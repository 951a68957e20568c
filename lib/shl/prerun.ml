(** The pre-run engine: an environment machine that counts the steps a
    configuration takes to reach a value.

    The termination and refinement drivers instantiate a transfinite
    credit once the bound on the rest of the run is known (the
    executable face of [TSource], §5.1), and they learn that bound by
    running the program ahead.  Such a run needs only the step count and
    whether a value is reached — never the final term — so it does not
    have to build the terms the substitution machine builds.  Here a β
    step extends an environment instead of copying the body, and a
    variable is an indexed lookup.

    The count is exactly {!Step.head_step}'s: [rec], β, [let], [;],
    [if], [match], projections, injections, pairing, arithmetic, [ref],
    [!], [:=] and [cas] are one step each; looking up a variable or a
    literal is none.  A free variable, [fork], [=] on a closure, an
    incomparable [cas], division by zero and every ill-typed redex are
    stuck.  The heap is a private mutable table seeded from the
    configuration's heap; it numbers fresh locations as {!Heap.alloc}
    does and consults the same allocation-fault hook, before the step
    is charged, exactly where the substitution machine does. *)

module Trace = Tfiris_obs.Trace
module Metrics = Tfiris_obs.Metrics

(* Runtime values.  A closure is its compiled body and the environment
   it was built in. *)
type rv =
  | R_unit
  | R_bool of bool
  | R_int of int
  | R_loc of int
  | R_pair of rv * rv
  | R_inl of rv
  | R_inr of rv
  | R_clo of code * env

(* A [let] or [match] binds one slot; a β step binds the argument and
   the function itself in one node. *)
and env =
  | Nil
  | Bind of rv * env
  | Frame of rv * rv * env  (** argument (index 0), function (index 1) *)

(* Expressions with variables resolved to de Bruijn indices (counting
   slots, so a [Frame] counts two) and literals converted once. *)
and code =
  | C_lit of rv  (** a literal with no closure over the environment *)
  | C_open of lit  (** a literal whose closures capture the environment *)
  | C_var of int
  | C_free  (** a free variable: stuck *)
  | C_fork  (** stuck in the sequential semantics *)
  | C_rec of code  (** the body, under [argument; function] *)
  | C_app of code * code
  | C_prim1 of prim1 * code
  | C_prim2 of prim2 * code * code
  | C_arith of Ast.bin_op * code * code  (** both operands atoms *)
  | C_if of code * code * code
  | C_case of code * code * code  (** each branch under one binder *)
  | C_let of code * code
  | C_seq of code * code
  | C_cas of code * code * code

(* The redexes that take their operands' values and nothing else. *)
and prim1 =
  | P_un of Ast.un_op
  | P_fst
  | P_snd
  | P_inl
  | P_inr
  | P_ref
  | P_load

and prim2 =
  | P_bin of Ast.bin_op
  | P_pair
  | P_store

and lit =
  | L_val of rv
  | L_pair of lit * lit
  | L_inl of lit
  | L_inr of lit
  | L_clo of code

(* What to do with a returned value: one frame per pending evaluation
   context, each holding what its hole needs. *)
type kont =
  | K_done
  | K_app_arg of code * env * kont
  | K_app of rv * kont
  | K_prim1 of prim1 * kont
  | K_prim2_r of prim2 * code * env * kont
  | K_prim2 of prim2 * rv * kont
  | K_if of code * code * env * kont
  | K_case of code * code * env * kont
  | K_let of code * env * kont
  | K_seq of code * env * kont
  | K_cas_2 of code * code * env * kont
  | K_cas_3 of rv * code * env * kont
  | K_cas of rv * rv * kont

(* ---------- compilation ---------- *)

let r_true = R_bool true
let r_false = R_bool false
let r_bool b = if b then r_true else r_false

(* A scope lists the slot names innermost first; a function's own slot
   is [None] when it is anonymous, so no variable resolves to it. *)
let rec index (scope : string option list) x i =
  match scope with
  | [] -> -1
  | Some y :: _ when String.equal x y -> i
  | _ :: rest -> index rest x (i + 1)

let rec compile scope (e : Ast.expr) : code =
  match e with
  | Ast.Val v ->
    if Ast.Sset.is_empty (Ast.free_vars_value Ast.Sset.empty Ast.Sset.empty v)
    then C_lit (const v)
    else C_open (lit scope v)
  | Ast.Var x ->
    let i = index scope x 0 in
    if i < 0 then C_free else C_var i
  | Ast.Rec (f, x, body) -> C_rec (compile (Some x :: f :: scope) body)
  | Ast.App (e1, e2) -> C_app (compile scope e1, compile scope e2)
  | Ast.Un_op (op, e1) -> C_prim1 (P_un op, compile scope e1)
  | Ast.Bin_op (op, e1, e2) -> (
    match compile scope e1, compile scope e2 with
    | ((C_lit _ | C_var _) as a), ((C_lit _ | C_var _) as b) ->
      C_arith (op, a, b)
    | a, b -> C_prim2 (P_bin op, a, b))
  | Ast.If (e1, e2, e3) ->
    C_if (compile scope e1, compile scope e2, compile scope e3)
  | Ast.Pair_e (e1, e2) -> C_prim2 (P_pair, compile scope e1, compile scope e2)
  | Ast.Fst e1 -> C_prim1 (P_fst, compile scope e1)
  | Ast.Snd e1 -> C_prim1 (P_snd, compile scope e1)
  | Ast.Inj_l_e e1 -> C_prim1 (P_inl, compile scope e1)
  | Ast.Inj_r_e e1 -> C_prim1 (P_inr, compile scope e1)
  | Ast.Case (e0, (x, e1), (y, e2)) ->
    C_case
      ( compile scope e0,
        compile (Some x :: scope) e1,
        compile (Some y :: scope) e2 )
  | Ast.Ref e1 -> C_prim1 (P_ref, compile scope e1)
  | Ast.Load e1 -> C_prim1 (P_load, compile scope e1)
  | Ast.Store (e1, e2) -> C_prim2 (P_store, compile scope e1, compile scope e2)
  | Ast.Let (x, e1, e2) ->
    C_let (compile scope e1, compile (Some x :: scope) e2)
  | Ast.Seq (e1, e2) -> C_seq (compile scope e1, compile scope e2)
  | Ast.Fork _ -> C_fork
  | Ast.Cas (e1, e2, e3) ->
    C_cas (compile scope e1, compile scope e2, compile scope e3)

(* A closed value: its closures need no environment. *)
and const (v : Ast.value) : rv =
  match v with
  | Ast.Unit -> R_unit
  | Ast.Bool b -> r_bool b
  | Ast.Int n -> R_int n
  | Ast.Loc l -> R_loc l
  | Ast.Pair (a, b) -> R_pair (const a, const b)
  | Ast.Inj_l a -> R_inl (const a)
  | Ast.Inj_r a -> R_inr (const a)
  | Ast.Rec_fun (f, x, body) -> R_clo (compile [ Some x; f ] body, Nil)

(* A literal holding closures that mention enclosing binders: the
   substitution machine rewrites such a literal as those binders
   reduce, so here it captures the environment when it is reached. *)
and lit scope (v : Ast.value) : lit =
  match v with
  | Ast.Unit | Ast.Bool _ | Ast.Int _ | Ast.Loc _ -> L_val (const v)
  | Ast.Pair (a, b) -> L_pair (lit scope a, lit scope b)
  | Ast.Inj_l a -> L_inl (lit scope a)
  | Ast.Inj_r a -> L_inr (lit scope a)
  | Ast.Rec_fun (f, x, body) -> L_clo (compile (Some x :: f :: scope) body)

(* ---------- the machine ---------- *)

module Cells = Hashtbl.Make (Int)

(* A stuck redex or exhausted fuel: either way the run has no count. *)
exception Stop

type state = {
  mutable left : int;  (** fuel still available *)
  mutable next : int;  (** the next fresh location, as {!Heap.fresh} *)
  cells : rv Cells.t;
}

(* Charge one step; called after the redex is known to step, so a run
   that ends in exactly [fuel] steps fits. *)
let tick st = if st.left = 0 then raise Stop else st.left <- st.left - 1

let rec lookup env i =
  match env with
  | Bind (v, rest) -> if i = 0 then v else lookup rest (i - 1)
  | Frame (a, f, rest) ->
    if i = 0 then a else if i = 1 then f else lookup rest (i - 2)
  | Nil -> raise Stop (* not reached: indices come from the scope *)

let atom env = function
  | C_lit v -> v
  | C_var i -> lookup env i
  | _ -> raise Stop

let rec build env = function
  | L_val v -> v
  | L_pair (a, b) -> R_pair (build env a, build env b)
  | L_inl a -> R_inl (build env a)
  | L_inr a -> R_inr (build env a)
  | L_clo body -> R_clo (body, env)

(* {!Ast.value_eq}, case for case: [None] when a closure is reached. *)
let rec value_eq a b =
  match a, b with
  | R_clo _, _ | _, R_clo _ -> None
  | R_unit, R_unit -> Some true
  | R_bool x, R_bool y -> Some (x = y)
  | R_int x, R_int y | R_loc x, R_loc y -> Some (x = y)
  | R_pair (a1, b1), R_pair (a2, b2) -> (
    match value_eq a1 a2 with
    | Some true -> value_eq b1 b2
    | (Some false | None) as r -> r)
  | R_inl x, R_inl y | R_inr x, R_inr y -> value_eq x y
  | (R_unit | R_bool _ | R_int _ | R_loc _ | R_pair _ | R_inl _ | R_inr _), _
    ->
    Some false

(* {!Step.eval_bin_op}, charging the step it takes. *)
let binop st (op : Ast.bin_op) v1 v2 =
  let r =
    match op, v1, v2 with
    | Ast.Add, R_int a, R_int b -> R_int (a + b)
    | Ast.Sub, R_int a, R_int b -> R_int (a - b)
    | Ast.Mul, R_int a, R_int b -> R_int (a * b)
    | Ast.Quot, R_int a, R_int b -> if b = 0 then raise Stop else R_int (a / b)
    | Ast.Rem, R_int a, R_int b ->
      if b = 0 then raise Stop else R_int (a mod b)
    | Ast.Lt, R_int a, R_int b -> r_bool (a < b)
    | Ast.Le, R_int a, R_int b -> r_bool (a <= b)
    | Ast.Eq, a, b -> (
      match value_eq a b with Some r -> r_bool r | None -> raise Stop)
    | Ast.Ptr_add, R_loc l, R_int n -> R_loc (l + n)
    | ( ( Ast.Add | Ast.Sub | Ast.Mul | Ast.Quot | Ast.Rem | Ast.Lt | Ast.Le
        | Ast.Ptr_add ),
        _,
        _ ) ->
      raise Stop
  in
  tick st;
  r

(* The fault hook runs before the step is charged: that is where
   {!Heap.alloc} runs inside the substitution machine's head step. *)
let alloc st v =
  Heap.check_fault 1;
  tick st;
  let l = st.next in
  st.next <- l + 1;
  Cells.replace st.cells l v;
  R_loc l

let load st = function
  | R_loc l -> (
    match Cells.find st.cells l with
    | v ->
      tick st;
      v
    | exception Not_found -> raise Stop)
  | _ -> raise Stop

let store st l v =
  match l with
  | R_loc l when Cells.mem st.cells l ->
    tick st;
    Cells.replace st.cells l v;
    R_unit
  | _ -> raise Stop

let prim1 st p v =
  match p, v with
  | P_un Ast.Neg, R_bool b ->
    tick st;
    r_bool (not b)
  | P_un Ast.Minus, R_int n ->
    tick st;
    R_int (-n)
  | P_fst, R_pair (a, _) ->
    tick st;
    a
  | P_snd, R_pair (_, b) ->
    tick st;
    b
  | P_inl, _ ->
    tick st;
    R_inl v
  | P_inr, _ ->
    tick st;
    R_inr v
  | P_ref, _ -> alloc st v
  | P_load, _ -> load st v
  | (P_un _ | P_fst | P_snd), _ -> raise Stop

let prim2 st p v1 v2 =
  match p with
  | P_bin op -> binop st op v1 v2
  | P_pair ->
    tick st;
    R_pair (v1, v2)
  | P_store -> store st v1 v2

let cas st l expected desired =
  match l with
  | R_loc l -> (
    match Cells.find st.cells l with
    | current -> (
      match value_eq current expected with
      | None -> raise Stop
      | Some true ->
        tick st;
        Cells.replace st.cells l desired;
        r_true
      | Some false ->
        tick st;
        r_false)
    | exception Not_found -> raise Stop)
  | _ -> raise Stop

(* An operand that needs no frame: an atom, or arithmetic on atoms. *)
let simple = function
  | C_lit _ | C_var _ | C_arith _ -> true
  | _ -> false

let simple_value st env = function
  | C_var i -> lookup env i
  | C_lit v -> v
  | C_arith (op, a, b) -> binop st op (atom env a) (atom env b)
  | _ -> raise Stop

let rec eval st c env k =
  match c with
  | C_lit v -> ret st v k
  | C_var i -> ret st (lookup env i) k
  | C_open l -> ret st (build env l) k
  | C_free | C_fork -> raise Stop
  | C_rec body ->
    tick st;
    ret st (R_clo (body, env)) k
  | C_app (C_var i, a) -> arg st (lookup env i) a env k
  | C_app (f, a) ->
    if simple f then arg st (simple_value st env f) a env k
    else eval st f env (K_app_arg (a, env, k))
  | C_prim1 (p, a) ->
    if simple a then ret st (prim1 st p (simple_value st env a)) k
    else eval st a env (K_prim1 (p, k))
  | C_arith (op, a, b) -> ret st (binop st op (atom env a) (atom env b)) k
  | C_prim2 (p, a, b) ->
    if simple a then prim2_r st p (simple_value st env a) b env k
    else eval st a env (K_prim2_r (p, b, env, k))
  | C_if (a, t, e) ->
    if simple a then branch st (simple_value st env a) t e env k
    else eval st a env (K_if (t, e, env, k))
  | C_case (a, l, r) ->
    if simple a then case st (simple_value st env a) l r env k
    else eval st a env (K_case (l, r, env, k))
  | C_let (a, body) ->
    if simple a then begin
      let v = simple_value st env a in
      tick st;
      eval st body (Bind (v, env)) k
    end
    else eval st a env (K_let (body, env, k))
  | C_seq (a, b) -> eval st a env (K_seq (b, env, k))
  | C_cas (a, b, c) -> eval st a env (K_cas_2 (b, c, env, k))

(* The function is a value: evaluate the argument, then β. *)
and arg st f a env k =
  match a with
  | C_var i -> apply st f (lookup env i) k
  | C_lit v -> apply st f v k
  | C_arith (op, x, y) -> apply st f (binop st op (atom env x) (atom env y)) k
  | _ -> eval st a env (K_app (f, k))

and apply st f v k =
  match f with
  | R_clo (body, cenv) ->
    tick st;
    eval st body (Frame (v, f, cenv)) k
  | _ -> raise Stop

and prim2_r st p v1 b env k =
  if simple b then ret st (prim2 st p v1 (simple_value st env b)) k
  else eval st b env (K_prim2 (p, v1, k))

and branch st v t e env k =
  match v with
  | R_bool true ->
    tick st;
    eval st t env k
  | R_bool false ->
    tick st;
    eval st e env k
  | _ -> raise Stop

and case st v l r env k =
  match v with
  | R_inl x ->
    tick st;
    eval st l (Bind (x, env)) k
  | R_inr x ->
    tick st;
    eval st r (Bind (x, env)) k
  | _ -> raise Stop

and ret st v k =
  match k with
  | K_done -> ()
  | K_app_arg (a, env, k) -> arg st v a env k
  | K_app (f, k) -> apply st f v k
  | K_prim1 (p, k) -> ret st (prim1 st p v) k
  | K_prim2_r (p, b, env, k) -> prim2_r st p v b env k
  | K_prim2 (p, v1, k) -> ret st (prim2 st p v1 v) k
  | K_if (t, e, env, k) -> branch st v t e env k
  | K_case (l, r, env, k) -> case st v l r env k
  | K_let (body, env, k) ->
    tick st;
    eval st body (Bind (v, env)) k
  | K_seq (b, env, k) ->
    tick st;
    eval st b env k
  | K_cas_2 (b, c, env, k) -> eval st b env (K_cas_3 (v, c, env, k))
  | K_cas_3 (l, c, env, k) -> eval st c env (K_cas (l, v, k))
  | K_cas (l, expected, k) -> ret st (cas st l expected v) k

(* ---------- entry point ---------- *)

let c_steps = Metrics.counter "machine.prerun.steps"

(* Steps walked, and whether a value was reached. *)
let walk ~fuel (heap : Heap.t) (e : Ast.expr) : int * bool =
  let cells = Cells.create 16 in
  List.iter (fun (l, v) -> Cells.replace cells l (const v)) (Heap.bindings heap);
  let st = { left = fuel; next = Heap.fresh heap; cells } in
  let reached =
    match eval st (compile [] e) Nil K_done with
    | () -> true
    | exception Stop -> false
  in
  (fuel - st.left, reached)

let steps_to_value ~fuel (heap : Heap.t) (e : Ast.expr) : int option =
  let finish (steps, reached) =
    Metrics.add c_steps steps;
    if reached then Some steps else None
  in
  if not (Trace.on ()) then finish (walk ~fuel heap e)
  else begin
    Trace.span_begin "machine.prerun" ~attrs:[ ("fuel", Trace.I fuel) ];
    match walk ~fuel heap e with
    | (steps, reached) as r ->
      Trace.span_end "machine.prerun"
        ~attrs:[ ("steps", Trace.I steps); ("value", Trace.B reached) ];
      finish r
    | exception ex ->
      Trace.span_end "machine.prerun";
      raise ex
  end
