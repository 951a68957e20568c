(** The frame-stack execution engine for SHL — a CEK-style abstract
    machine over the same head-step relation as {!Step}.

    {!Step.prim_step} re-discovers the head redex of the {e whole}
    program with {!Ctx.decompose} and re-plugs it with {!Ctx.fill} on
    every single step: O(context-depth) work and allocation per step.
    The machine instead keeps the decomposition {e as its state}: a
    focused expression together with the surrounding frame stack (the
    [K] of the paper's [K[e]], §4.1).  A head step rewrites only the
    focus; refocusing pushes or pops O(1) frames amortised — each frame
    is pushed once when first descended into and popped once when its
    hole turns into a value.

    The machine is {e observationally identical} to the reference
    stepper: same step count, same per-step {!Step.kind}, same final
    value and heap, same stuck redex.  [decompose (plug st) = Some
    (st.ctx, st.focus)] holds for every running state (the machine
    state {e is} the unique CBV decomposition), which is what
    {!lockstep} checks step by step and the differential property test
    checks on random programs. *)

open Ast

(** A machine thread: the focused expression and its frame stack.
    Normalised (by construction): [focus] is either a head redex, or a
    value with an empty [ctx].  The heap is deliberately {e not} part of
    this type so that {!Conc} threads can share one heap while each
    carries its own frame stack. *)
type t = {
  focus : expr;
  ctx : Ctx.t;
}

(** What a normalised thread is about to do — O(1). *)
type view =
  | V_value of value  (** the whole thread is this value *)
  | V_redex of expr  (** the head redex in focus *)

(* Refocusing: descend [e] under [k] pushing frames until the head
   redex is in focus, popping frames whenever the focus is a value.
   This is Ctx.decompose made incremental: the cases match it
   constructor for constructor, so the normalised state is exactly the
   reference decomposition of the plugged program. *)
let rec norm (k : Ctx.t) (e : expr) : t =
  (* Runs once per frame pushed or popped, so every arm builds its
     result directly: a redex is [{ focus = e; ctx = k }], a descent is
     [norm (frame :: k) e'] — no per-call helper closures. *)
  match e with
  | Val _ -> (
    match k with
    | [] -> { focus = e; ctx = [] }
    | f :: k' -> norm k' (Ctx.fill_frame f e))
  | Var _ | Rec _ -> { focus = e; ctx = k }
  | App (Val _, Val _) -> { focus = e; ctx = k }
  | App (Val v1, e2) -> norm (Ctx.App_r v1 :: k) e2
  | App (e1, e2) -> norm (Ctx.App_l e2 :: k) e1
  | Un_op (_, Val _) -> { focus = e; ctx = k }
  | Un_op (op, e1) -> norm (Ctx.Un_op_f op :: k) e1
  | Bin_op (_, Val _, Val _) -> { focus = e; ctx = k }
  | Bin_op (op, Val v1, e2) -> norm (Ctx.Bin_op_r (op, v1) :: k) e2
  | Bin_op (op, e1, e2) -> norm (Ctx.Bin_op_l (op, e2) :: k) e1
  | If (Val _, _, _) -> { focus = e; ctx = k }
  | If (e1, e2, e3) -> norm (Ctx.If_f (e2, e3) :: k) e1
  | Pair_e (Val _, Val _) -> { focus = e; ctx = k }
  | Pair_e (Val v1, e2) -> norm (Ctx.Pair_r v1 :: k) e2
  | Pair_e (e1, e2) -> norm (Ctx.Pair_l e2 :: k) e1
  | Fst (Val _) -> { focus = e; ctx = k }
  | Fst e1 -> norm (Ctx.Fst_f :: k) e1
  | Snd (Val _) -> { focus = e; ctx = k }
  | Snd e1 -> norm (Ctx.Snd_f :: k) e1
  | Inj_l_e (Val _) -> { focus = e; ctx = k }
  | Inj_l_e e1 -> norm (Ctx.Inj_l_f :: k) e1
  | Inj_r_e (Val _) -> { focus = e; ctx = k }
  | Inj_r_e e1 -> norm (Ctx.Inj_r_f :: k) e1
  | Case (Val _, _, _) -> { focus = e; ctx = k }
  | Case (e1, b1, b2) -> norm (Ctx.Case_f (b1, b2) :: k) e1
  | Ref (Val _) -> { focus = e; ctx = k }
  | Ref e1 -> norm (Ctx.Ref_f :: k) e1
  | Load (Val _) -> { focus = e; ctx = k }
  | Load e1 -> norm (Ctx.Load_f :: k) e1
  | Store (Val _, Val _) -> { focus = e; ctx = k }
  | Store (Val v1, e2) -> norm (Ctx.Store_r v1 :: k) e2
  | Store (e1, e2) -> norm (Ctx.Store_l e2 :: k) e1
  | Let (_, Val _, _) -> { focus = e; ctx = k }
  | Let (x, e1, e2) -> norm (Ctx.Let_f (x, e2) :: k) e1
  | Seq (e1, _) when is_value e1 -> { focus = e; ctx = k }
  | Seq (e1, e2) -> norm (Ctx.Seq_f e2 :: k) e1
  | Fork _ -> { focus = e; ctx = k }
  | Cas (Val _, Val _, Val _) -> { focus = e; ctx = k }
  | Cas (Val v1, Val v2, e3) -> norm (Ctx.Cas_3 (v1, v2) :: k) e3
  | Cas (Val v1, e2, e3) -> norm (Ctx.Cas_2 (v1, e3) :: k) e2
  | Cas (e1, e2, e3) -> norm (Ctx.Cas_1 (e2, e3) :: k) e1

let inject (e : expr) : t = norm [] e

(** Plug the thread back into a whole program — O(context depth); used
    at run boundaries (outcomes, traces, strategy callbacks), never on
    the per-step path. *)
let plug (st : t) : expr = Ctx.fill st.ctx st.focus

let view (st : t) : view =
  match st.focus, st.ctx with
  | Val v, [] -> V_value v
  | e, _ -> V_redex e

(** Result of attempting one genuine head step of a thread in a heap.
    Mirrors {!Step.prim_step}'s [(config * kind, error) result] shape:
    focusing and unwinding are administrative and never show up as
    steps, so step counts and kinds agree with the reference stepper. *)
type step_result =
  | Stepped of t * Heap.t * Step.kind
  | Final of value  (** the thread is a value (no step taken) *)
  | Stuck_redex of expr  (** the head redex in focus cannot step *)

let step (heap : Heap.t) (st : t) : step_result =
  (* matches the state directly rather than through [view], whose
     result would be one more allocation per step *)
  match st.focus, st.ctx with
  | Val v, [] -> Final v
  | r, _ -> (
    match Step.head_step heap r with
    | Step.No_step -> Stuck_redex r
    | Step.Pure_step e' -> Stepped (norm st.ctx e', heap, Step.Pure)
    | Step.Heap_step (e', h', kind) -> Stepped (norm st.ctx e', h', kind))

(** [step_fork st]: if the focus is a [fork body] redex, consume it —
    return the spawned body and the parent thread with the hole filled
    by [()].  The scheduler of {!Conc} is the only consumer: [fork] is
    not a head step of the sequential relation. *)
let step_fork (st : t) : (expr * t) option =
  match st.focus with
  | Fork body -> Some (body, norm st.ctx unit_)
  | _ -> None

(** {1 Whole-configuration driving} *)

(** A sequential machine configuration: one thread plus the heap —
    the machine counterpart of {!Step.config}. *)
type config = {
  thread : t;
  heap : Heap.t;
}

let of_config (c : Step.config) : config =
  { thread = inject c.Step.expr; heap = c.Step.heap }

let to_config (c : config) : Step.config =
  { Step.expr = plug c.thread; heap = c.heap }

let config ?(heap = Heap.empty) (e : expr) : config =
  { thread = inject e; heap }

(** [prim_step c]: drop-in machine replacement for {!Step.prim_step} —
    same result type, same observable behaviour, but O(1) refocusing
    instead of a whole-program decompose/fill round trip. *)
let prim_step (c : config) : (config * Step.kind, Step.error) result =
  match step c.heap c.thread with
  | Final _ -> Error Step.Finished
  | Stuck_redex r -> Error (Step.Stuck r)
  | Stepped (th', h', kind) -> Ok ({ thread = th'; heap = h' }, kind)

(** [steps_to_value c]: how many steps [c] takes to reach a value, when
    that is at most [fuel] (default 10⁷); [None] when it needs more, or
    gets stuck on the way.  The oracle pre-runs of the termination and
    refinement drivers need only this count, so they run on the
    environment machine of {!Prerun}, which builds no terms. *)
let steps_to_value ?(fuel = 10_000_000) (c : config) : int option =
  Prerun.steps_to_value ~fuel c.heap (plug c.thread)

(** {1 Differential (lockstep) mode}

    Run the machine and {!Step.prim_step} side by side on the same
    program and compare after {e every} step: plugged expression, heap,
    and step kind — and at the end, the outcome (value+heap, stuck
    redex, or out of fuel).  This is the executable statement of the
    machine's correctness, used by the property suite and available to
    harnesses that want the reference relation validated online. *)

type mismatch = {
  at_step : int;
  what : string;  (** which observation disagreed *)
}

type lockstep_outcome =
  | Agree_value of value * Heap.t * int  (** final value, heap, steps *)
  | Agree_stuck of expr * int  (** stuck redex, steps taken before *)
  | Agree_out_of_fuel of int
  | Disagree of mismatch

let kind_eq (a : Step.kind) (b : Step.kind) =
  match a, b with
  | Step.Pure, Step.Pure -> true
  | Step.Alloc l, Step.Alloc l'
  | Step.Load_of l, Step.Load_of l'
  | Step.Store_to l, Step.Store_to l' ->
    l = l'
  | (Step.Pure | Step.Alloc _ | Step.Load_of _ | Step.Store_to _), _ -> false

let lockstep ?fuel ?budget ?(heap = Heap.empty) (e : expr) :
    lockstep_outcome =
  let meter =
    Tfiris_robust.Budget.(
      meter (resolve ?fuel ?budget ~default_steps:10_000 ()))
  in
  (* Structural identity of the two runs' heaps — deliberately not
     {!Heap.equal}, whose [value_eq] treats closures as incomparable:
     here both heaps come from the same execution, so stored closures
     must be syntactically the very same term. *)
  let same_heap a b = Heap.bindings a = Heap.bindings b in
  let rec go (m : config) (r : Step.config) steps =
    match prim_step m, Step.prim_step r with
    | Error Step.Finished, Error Step.Finished -> (
      match plug m.thread with
      | Val v when r.Step.expr = Val v && same_heap m.heap r.Step.heap ->
        Agree_value (v, m.heap, steps)
      | _ -> Disagree { at_step = steps; what = "final value or heap" })
    | Error (Step.Stuck a), Error (Step.Stuck b) ->
      if a = b && plug m.thread = r.Step.expr then Agree_stuck (a, steps)
      else Disagree { at_step = steps; what = "stuck redex" }
    | Ok (m', ka), Ok (r', kb) ->
      if not (Tfiris_robust.Budget.step meter) then Agree_out_of_fuel steps
      else if not (kind_eq ka kb) then
        Disagree { at_step = steps + 1; what = "step kind" }
      else if not (same_heap m'.heap r'.Step.heap) then
        Disagree { at_step = steps + 1; what = "heap" }
      else if plug m'.thread <> r'.Step.expr then
        Disagree { at_step = steps + 1; what = "expression" }
      else go m' r' (steps + 1)
    | Error Step.Finished, _ | _, Error Step.Finished ->
      Disagree { at_step = steps; what = "termination" }
    | Error (Step.Stuck _), _ | _, Error (Step.Stuck _) ->
      Disagree { at_step = steps; what = "stuckness" }
  in
  go (config ~heap e) (Step.config ~heap e) 0

let pp_lockstep ppf = function
  | Agree_value (v, _, n) ->
    Format.fprintf ppf "agree: value %a after %d steps" Pretty.pp_value v n
  | Agree_stuck (_, n) -> Format.fprintf ppf "agree: stuck after %d steps" n
  | Agree_out_of_fuel n ->
    Format.fprintf ppf "agree: still running after %d steps" n
  | Disagree m ->
    Format.fprintf ppf "DISAGREE at step %d on %s" m.at_step m.what
