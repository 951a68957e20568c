(** Heaps: finite maps from locations to values.

    Allocation is deterministic (next unused location), so whole
    executions are reproducible and target/source runs can be compared
    step by step.  The separation-logic structure (disjoint union,
    sub-heap, difference) is used by the safety logic's assertions and
    by the frame checks of {!Triple}. *)

type t

val empty : t
val lookup : Ast.loc -> t -> Ast.value option
val store : Ast.loc -> Ast.value -> t -> t
val mem : Ast.loc -> t -> bool
val size : t -> int
val bindings : t -> (Ast.loc * Ast.value) list

val fresh : t -> Ast.loc
(** The next unused location — an O(1) counter strictly above every
    bound location, maintained by every heap constructor. *)

val alloc : Ast.value -> t -> Ast.loc * t

val alloc_block : Ast.value list -> t -> Ast.loc * t
(** Lay out the values at consecutive locations, returning the first —
    used for the null-terminated strings of the Levenshtein study. *)

(** {1 Fault injection}

    A process-global allocation-fault hook, for the {!Tfiris} chaos
    harness: when set, every allocation consults it (with the number of
    cells requested) and raises {!Alloc_failure} when it answers [true].
    Classified as a structured [Fault_injected] failure by
    {!Tfiris_robust.Failure.of_exn}. *)

exception Alloc_failure

val set_alloc_fault : (int -> bool) -> unit
val clear_alloc_fault : unit -> unit

val check_fault : int -> unit
(** [check_fault cells]: consult the hook for an allocation of [cells]
    cells, raising {!Alloc_failure} when it answers [true] — what
    {!alloc} does first, for engines that keep their own heap. *)

val equal : t -> t -> bool
(** Observational equality of the bindings ({!Ast.value_eq}: closures
    are incomparable, so a heap holding one equals nothing). *)

val same_bindings : t -> t -> bool
(** Structural identity of the bindings, independent of tree shape and
    allocation counter: [same_bindings a b] iff [bindings a = bindings
    b], without building either list. *)

val hash_bindings : t -> int
(** A hash of every binding, independent of tree shape: heaps with
    {!same_bindings} hash equal. *)

val disjoint_union : t -> t -> t option
(** Heap composition in the separation-logic sense; [None] on domain
    overlap. *)

val subheap : t -> t -> bool
(** [subheap a b]: every binding of [a] occurs in [b]. *)

val diff : t -> t -> t
(** [diff b a]: remove [a]'s domain from [b]. *)

val reachable_from : Ast.value list -> t -> Ast.loc list
(** Locations reachable from the root values by following [Loc]s
    through heap cells (closure bodies included); sorted. *)

val unreachable_from : Ast.value list -> t -> Ast.loc list
(** Bound locations {e not} reachable from the roots — the leaked
    cells when the roots are a program's final value; sorted. *)
