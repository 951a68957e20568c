(** Small-step operational semantics of SHL.

    SHL is deterministic, so the step relation [{tgt] is a partial
    function on configurations.  Head steps are classified as {e pure}
    (independent of the heap — the [e { e'] of the paper's PureT/PureS
    rules) or {e heap} steps (alloc/load/store), which is the distinction
    the program logics' rules key on (Figure 3). *)

open Ast

type config = {
  expr : expr;
  heap : Heap.t;
}

let config ?(heap = Heap.empty) expr = { expr; heap }

type kind =
  | Pure  (** a [{] step: β, if, case, projections, arithmetic, … *)
  | Alloc of loc
  | Load_of of loc
  | Store_to of loc

let kind_is_pure = function
  | Pure -> true
  | Alloc _ | Load_of _ | Store_to _ -> false

type error =
  | Stuck of expr  (** the head redex cannot step *)
  | Finished  (** the expression is already a value *)

let pp_error ppf = function
  | Stuck e -> Format.fprintf ppf "stuck redex (size %d)" (size_expr e)
  | Finished -> Format.pp_print_string ppf "already a value"

let eval_un_op op v =
  match op, v with
  | Neg, Bool b -> Some (Bool (not b))
  | Minus, Int n -> Some (Int (-n))
  | (Neg | Minus), _ -> None

let eval_bin_op op v1 v2 =
  match op, v1, v2 with
  | Add, Int a, Int b -> Some (Int (a + b))
  | Sub, Int a, Int b -> Some (Int (a - b))
  | Mul, Int a, Int b -> Some (Int (a * b))
  | Quot, Int a, Int b -> if b = 0 then None else Some (Int (a / b))
  | Rem, Int a, Int b -> if b = 0 then None else Some (Int (a mod b))
  | Lt, Int a, Int b -> Some (Bool (a < b))
  | Le, Int a, Int b -> Some (Bool (a <= b))
  | Eq, a, b -> Option.map (fun r -> Bool r) (value_eq a b)
  | Ptr_add, Loc l, Int n -> Some (Loc (l + n))
  | (Add | Sub | Mul | Quot | Rem | Lt | Le | Ptr_add), _, _ -> None

(** What one head step does.  A pure step carries only the new
    expression (the heap is unchanged); a heap step carries the heap
    and its kind too.  On the machine's hot path a pure β step then
    allocates one two-word block for its result. *)
type head_result =
  | Pure_step of expr
  | Heap_step of expr * Heap.t * kind  (** never of kind [Pure] *)
  | No_step  (** the redex cannot step *)

(** One head step of the redex [e] in heap [h].  Every arm builds its
    result directly (no helper closures), since this runs once per
    machine step. *)
let head_step (h : Heap.t) (e : expr) : head_result =
  match e with
  | Rec (f, x, body) -> Pure_step (Val (Rec_fun (f, x, body)))
  | App (Val (Rec_fun (f, x, body) as fv), Val v) ->
    (* One simultaneous pass for named recursion instead of two
       sequential ones — β is the hot path of every [rec] loop. *)
    let body =
      match f with
      | None -> subst x v body
      | Some fname -> subst2_expr x v fname fv body
    in
    Pure_step body
  | Un_op (op, Val v) -> (
    match eval_un_op op v with Some v' -> Pure_step (Val v') | None -> No_step)
  | Bin_op (op, Val v1, Val v2) -> (
    match eval_bin_op op v1 v2 with
    | Some v' -> Pure_step (Val v')
    | None -> No_step)
  | If (Val (Bool true), e1, _) -> Pure_step e1
  | If (Val (Bool false), _, e2) -> Pure_step e2
  | Pair_e (Val v1, Val v2) -> Pure_step (Val (Pair (v1, v2)))
  | Fst (Val (Pair (v1, _))) -> Pure_step (Val v1)
  | Snd (Val (Pair (_, v2))) -> Pure_step (Val v2)
  | Inj_l_e (Val v) -> Pure_step (Val (Inj_l v))
  | Inj_r_e (Val v) -> Pure_step (Val (Inj_r v))
  | Case (Val (Inj_l v), (x, e1), _) -> Pure_step (subst x v e1)
  | Case (Val (Inj_r v), _, (y, e2)) -> Pure_step (subst y v e2)
  | Let (x, Val v, e2) -> Pure_step (subst x v e2)
  | Seq (Val _, e2) -> Pure_step e2
  | Ref (Val v) ->
    let l, h' = Heap.alloc v h in
    Heap_step (Val (Loc l), h', Alloc l)
  | Load (Val (Loc l)) -> (
    match Heap.lookup l h with
    | Some v -> Heap_step (Val v, h, Load_of l)
    | None -> No_step)
  | Store (Val (Loc l), Val v) ->
    if Heap.mem l h then Heap_step (Val Unit, Heap.store l v h, Store_to l)
    else No_step
  | Cas (Val (Loc l), Val expected, Val desired) -> (
    match Heap.lookup l h with
    | None -> No_step
    | Some current -> (
      match value_eq current expected with
      | None -> No_step (* incomparable values *)
      | Some true ->
        Heap_step (Val (Bool true), Heap.store l desired h, Store_to l)
      | Some false -> Heap_step (Val (Bool false), h, Load_of l)))
  | Val _ | Var _ | App _ | Un_op _ | Bin_op _ | If _ | Pair_e _ | Fst _
  | Snd _ | Inj_l_e _ | Inj_r_e _ | Case _ | Ref _ | Load _ | Store _
  | Let _ | Seq _ | Cas _ ->
    No_step
  | Fork _ ->
    (* a concurrent redex: only the scheduler of {!Conc} can step it *)
    No_step

(** One step of a whole configuration: decompose, head-step, refill. *)
let prim_step ({ expr; heap } : config) : (config * kind, error) result =
  match Ctx.decompose expr with
  | None -> Error Finished
  | Some (k, redex) -> (
    match head_step heap redex with
    | No_step -> Error (Stuck redex)
    | Pure_step e' -> Ok ({ expr = Ctx.fill k e'; heap }, Pure)
    | Heap_step (e', h', kind) ->
      Ok ({ expr = Ctx.fill k e'; heap = h' }, kind))

(** [pure_step e]: the paper's [e { e']: a whole-program step whose head
    step is pure (so it neither reads nor writes the heap). *)
let pure_step (e : expr) : expr option =
  match prim_step (config e) with
  | Ok ({ expr; _ }, Pure) -> Some expr
  | Ok (_, (Alloc _ | Load_of _ | Store_to _)) | Error _ -> None

(** [pure_steps e e']: [e {* e'] using only pure steps, with a fuel
    bound; used by rule checkers that must validate a [{] side
    condition. *)
let pure_steps ?(fuel = 10_000) e e' =
  let rec go e n =
    if e = e' then true
    else if n = 0 then false
    else match pure_step e with None -> false | Some e2 -> go e2 (n - 1)
  in
  go e fuel

let is_reducible_in (h : Heap.t) (e : expr) =
  match prim_step { expr = e; heap = h } with Ok _ -> true | Error _ -> false
