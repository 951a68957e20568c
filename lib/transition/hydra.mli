(** The Kirby–Paris Hydra game, as a measured transition system.

    Chopping a head strictly decreases the ordinal measure
    [μ(node ts) = ⊕ ω^(μ t)], so the hydra dies under every strategy of
    Hercules and every regrowth factor — Lemma 2.3 in its most vivid
    form.  Careful with deep hydras: [line 3] has measure [ω^ω^ω] and a
    correspondingly astronomical (but finite!) game length. *)

module Ord = Tfiris_ordinal.Ord

type tree
(** A hydra.  Every node caches its size.  The successors {!chops}
    returns are {e suspended}: each knows its size, and is built only
    when its structure is looked at ({!chops}, {!measure}, {!pp},
    {!heads}) — so a game materialises the hydras it plays, not every
    hydra it could have played.  Polymorphic equality is tree equality
    on materialised hydras (every state {!Measure} compares has been
    measured, hence materialised). *)

val node : tree list -> tree
(** The hydra with these subtrees under its root. *)

val leaf : tree
val size : tree -> int
(** Number of nodes — O(1). *)

val heads : tree -> int
val measure : tree -> Ord.t
val pp : Format.formatter -> tree -> unit

val chops : regrow:int -> tree -> tree list
(** All hydras reachable by chopping one head, with [regrow] copies of
    the maimed limb grown at the grandparent (standard rules: root-level
    heads regrow nothing).  Below each node, its leaf children's chops
    come first, then those below each inner child, both in child order.
    The successors are suspended (see {!tree}): a call costs
    O(#heads + size), not O(#heads × size). *)

val system : regrow:int -> tree Measure.t

val line : int -> tree
(** A path of the given length under the root. *)

val bush : width:int -> depth:int -> tree

val choose_first : tree list -> tree
val choose_fattest : tree list -> tree
(** Adversarial Hercules: keep the hydra as big as possible (the first
    of the biggest successors; compares cached sizes, so choosing
    materialises nothing). *)

val play :
  ?regrow:int ->
  choose:(tree list -> tree) ->
  tree ->
  (int, tree Measure.violation) result
(** Play to the death; [Ok n] is the number of chops. *)
