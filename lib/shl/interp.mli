(** Executing SHL programs: a fueled driver over the frame-stack
    {!Machine} (observationally identical to {!Step.prim_step}) with
    step accounting and tracing — the "run the target" half of every
    experiment harness. *)

type outcome =
  | Value of Ast.value * Heap.t
  | Stuck of Step.config * Ast.expr  (** configuration and stuck redex *)
  | Out_of_fuel of Tfiris_robust.Budget.resource * Step.config
      (** which budget resource ran out, and where *)

type stats = {
  steps : int;
  pure_steps : int;
  heap_steps : int;
}

val no_stats : stats

val exec :
  ?fuel:int ->
  ?budget:Tfiris_robust.Budget.t ->
  ?heap:Heap.t ->
  Ast.expr ->
  outcome * stats
(** Run to completion or until the budget runs out.  An explicit
    [budget] wins over [fuel]; plain [fuel] (default 10⁶) is a
    steps-only budget, exactly the old behaviour. *)

val eval :
  ?fuel:int ->
  ?budget:Tfiris_robust.Budget.t ->
  ?heap:Heap.t ->
  Ast.expr ->
  Ast.value option
(** The result value; [None] on stuck or budget-exhausted runs. *)

val steps_to_value : ?fuel:int -> ?heap:Heap.t -> Ast.expr -> int option
(** Steps to reach a value, if at most [fuel] (default 10⁶): the count
    of {!Machine.steps_to_value}, from [heap] (default empty). *)

val trace : ?fuel:int -> ?heap:Heap.t -> Ast.expr -> Step.config list
(** The finite prefix of the execution trace, initial configuration
    included. *)

val diverges_beyond : int -> Ast.expr -> bool
(** [diverges_beyond n e]: [e] runs for at least [n] steps without
    finishing — the bounded, executable face of "e diverges" (true
    divergence is Π⁰₁; callers choose the observation depth). *)
