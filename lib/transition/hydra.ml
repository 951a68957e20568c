(** The Hydra game (Kirby–Paris), as a measured transition system.

    A hydra is a finite rooted tree.  Hercules chops a head (a leaf);
    if the head was attached at depth ≥ 2, the hydra regrows [n] copies
    of the subtree that contained it (we use a fixed regrowth factor per
    step).  The hydra always dies — regardless of which heads Hercules
    chops and however fast the regrowth — because the tree's ordinal
    measure

    {v   μ(node ts) = ⊕_{t ∈ ts} ω^(μ t)   v}

    strictly decreases at every chop.  This is {!Measure}'s Lemma 2.3
    instance par excellence: the target (the game) is simulated in
    lockstep by the ordinal source, hence terminates, even though the
    number of heads can grow enormously along the way. *)

module Ord = Tfiris_ordinal.Ord

(* A hydra caches its size in every node.  A successor built by
   {!chops} starts out {e suspended}: it records the hydra it was chopped
   from, the site of the chopped head and its (already known) size, and
   is materialised in place — once — the first time anything looks at
   its structure.  Materialising rebuilds the path to the chopped head
   and shares the rest with [parent], so every subtree of a materialised
   successor is materialised too, and polymorphic equality on such
   hydras is tree equality. *)
type tree = {
  size : int;
  mutable shape : shape;
}

and shape =
  | Node of tree list
  | Chop of {
      parent : tree;  (** materialised *)
      site : int list;
          (** child indices from the chopped head up to the root *)
      regrow : int;
    }

let node ts = { size = List.fold_left (fun a t -> a + t.size) 1 ts; shape = Node ts }
let leaf = node []
let size t = t.size

(* [chop_at ~regrow t path]: chop the head at [path] (child indices,
   root first) below [t]; returns [t]'s replacement and the copies of it
   to regrow at [t]'s parent:
   - a leaf child disappears, and the post-chop node regrows [regrow]
     times at the parent;
   - otherwise the copies from below regrow here. *)
let rec chop_at ~regrow t path : tree * tree list =
  let ts = children t in
  match path with
  | [ i ] ->
    let after = node (List.filteri (fun j _ -> j <> i) ts) in
    (after, List.init regrow (fun _ -> after))
  | i :: rest ->
    let child', copies = chop_at ~regrow (List.nth ts i) rest in
    (node (List.mapi (fun j c -> if j = i then child' else c) ts @ copies), [])
  | [] -> invalid_arg "Hydra: empty chop site"

and children t =
  match t.shape with
  | Node ts -> ts
  | Chop { parent; site; regrow } ->
    (* At the root, copies of a maimed root-level node are dropped: a
       root-level head regrows nothing (the standard rule). *)
    let t', _ = chop_at ~regrow parent (List.rev site) in
    t.shape <- t'.shape;
    children t'

let heads t =
  let rec go t =
    match children t with
    | [] -> 1
    | ts -> List.fold_left (fun a t -> a + go t) 0 ts
  in
  go t

(** μ(node ts) = ⊕ ω^(μ t): Hessenberg so the order of children is
    irrelevant. *)
let rec measure t : Ord.t =
  Ord.hsum_list (List.map (fun t -> Ord.omega_pow (measure t)) (children t))

let rec pp ppf t =
  match children t with
  | [] -> Format.pp_print_string ppf "\xe2\x80\xa2"
  | ts ->
    Format.fprintf ppf "(%a)"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ") pp)
      ts

(** All hydras reachable by chopping one head, with regrowth [regrow]:
    - a leaf child of the root disappears;
    - a leaf at depth ≥ 2: its parent loses the leaf, and the
      grandparent gains [regrow] extra copies of the (post-chop) parent.

    Order: below each node, its leaf children's chops come first (in
    child order), then those below each inner child (in child order).
    Each successor is suspended, with its size computed in O(1) as
    [size t − 1 + regrow·(size parent − 1)] ([parent] being the chopped
    head's parent; no regrowth at the root), so a call costs
    O(#heads + size t) and a successor is built only if it is looked
    at. *)
let chops ~regrow (t : tree) : tree list =
  let suspend site size = { size; shape = Chop { parent = t; site; regrow } } in
  (* the successors for the heads below [n] (reached by [site]),
     followed by [tail] *)
  let rec below n ~root site tail =
    let ts = children n in
    let head_size =
      if root then t.size - 1 else t.size - 1 + (regrow * (n.size - 1))
    in
    let rec leaves i = function
      | [] -> inner 0 ts
      | c :: cs ->
        if c.size = 1 then suspend (i :: site) head_size :: leaves (i + 1) cs
        else leaves (i + 1) cs
    and inner i = function
      | [] -> tail
      | c :: cs ->
        if c.size = 1 then inner (i + 1) cs
        else below c ~root:false (i :: site) (inner (i + 1) cs)
    in
    leaves 0 ts
  in
  below t ~root:true [] []

(** The game as a measured transition system. *)
let system ~regrow : tree Measure.t =
  { Measure.state_pp = pp; step = chops ~regrow; measure }

(** Some hydras. *)
let line n =
  (* a path of length n *)
  let rec go k = if k = 0 then leaf else node [ go (k - 1) ] in
  node [ go n ]

let bush ~width ~depth =
  let rec go d = if d = 0 then leaf else node (List.init width (fun _ -> go (d - 1))) in
  go depth

(** Greedy strategies for Hercules (the point is that {e any} strategy
    wins). *)
let choose_first = function s :: _ -> s | [] -> invalid_arg "no successor"

let choose_fattest succs =
  match succs with
  | [] -> invalid_arg "no successor"
  | s :: rest ->
    (* adversarial: keep the hydra as big as possible (the first of the
       biggest, compared by cached size — nothing is materialised) *)
    List.fold_left (fun best s' -> if s'.size > best.size then s' else best) s rest

(** Play to the death; the result is the number of chops. *)
let play ?(regrow = 2) ~choose (h : tree) : (int, tree Measure.violation) result
    =
  match Measure.run (system ~regrow) ~choose h with
  | Ok states -> Ok (List.length states - 1)
  | Error v -> Error v
