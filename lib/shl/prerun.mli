(** The pre-run engine: an environment machine that counts the steps a
    configuration takes to reach a value, without building the terms
    the substitution machine ({!Machine}, {!Step}) builds.

    It counts exactly what {!Step.head_step} counts, is stuck exactly
    where it is stuck, allocates the same locations and consults the
    same allocation-fault hook at the same allocations.  {!Machine}
    stays the reference: every path that needs a plugged configuration
    (outcomes, traces, lockstep, the explorer) runs there. *)

val steps_to_value : fuel:int -> Heap.t -> Ast.expr -> int option
(** [steps_to_value ~fuel heap e]: the number of steps [e] takes in
    [heap] to reach a value, when that is at most [fuel]; [None] when it
    needs more or gets stuck.  The fuel bound is exact.  Opens one
    [machine.prerun] span (attributes [fuel], and [steps] and [value]
    at its close) when tracing is on, and adds the steps walked to the
    [machine.prerun.steps] counter. *)
