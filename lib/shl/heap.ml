(** Heaps: finite maps from locations to values, with fresh allocation.

    Allocation is deterministic (next unused location) so that whole
    executions are reproducible and source/target runs can be compared
    step by step.

    The map carries a next-location counter so [fresh] is O(1) instead
    of a [max_binding] walk per allocation — the allocation hot path of
    the frame-stack machine ({!Machine}) and the reference stepper alike.
    The counter is an upper bound maintained by every constructor:
    [next > l] for every bound location [l].  It never decreases (in
    particular [diff] keeps it), which preserves the invariant and keeps
    allocation deterministic along an execution; observational equality
    ({!equal}) compares bindings only. *)

module M = Map.Make (Int)

type t = {
  map : Ast.value M.t;
  next : int;  (** strictly above every bound location *)
}

let empty : t = { map = M.empty; next = 0 }
let lookup l (h : t) = M.find_opt l h.map

let store l v (h : t) : t =
  { map = M.add l v h.map; next = Stdlib.max h.next (l + 1) }

let mem l (h : t) = M.mem l h.map
let size (h : t) = M.cardinal h.map
let bindings (h : t) = M.bindings h.map
let fresh (h : t) = h.next

exception Alloc_failure

(* The chaos harness's allocation-fault hook.  [None] in normal
   operation, so the hot path pays one load and branch. *)
let alloc_fault : (int -> bool) option ref = ref None
let set_alloc_fault f = alloc_fault := Some f
let clear_alloc_fault () = alloc_fault := None

let check_fault cells =
  match !alloc_fault with
  | Some f when f cells -> raise Alloc_failure
  | Some _ | None -> ()

(** [alloc v h] returns the fresh location and the extended heap. *)
let alloc v (h : t) =
  check_fault 1;
  let l = h.next in
  (l, { map = M.add l v h.map; next = l + 1 })

(** [alloc_block vs h] lays out the values [vs] at consecutive
    locations, returning the first one — used to build the
    null-terminated strings of the Levenshtein case study. *)
let alloc_block vs (h : t) =
  check_fault (List.length vs);
  let l0 = h.next in
  let map, next =
    List.fold_left (fun (m, l) v -> (M.add l v m, l + 1)) (h.map, l0) vs
  in
  (l0, { map; next })

let equal (a : t) (b : t) =
  M.equal (fun v1 v2 -> Ast.value_eq v1 v2 = Some true) a.map b.map

(* Structural identity of the bindings, whatever the tree shapes and
   allocation counters: [same_bindings a b] iff [bindings a = bindings
   b], without building either list.  [compare] skips values that are
   physically shared, which successive states of one execution mostly
   are. *)
let same_bindings (a : t) (b : t) =
  a.map == b.map || M.equal (fun v1 v2 -> compare v1 v2 = 0) a.map b.map

(* Every binding folded in location order, so the hash does not
   depend on the tree shape: [same_bindings] heaps hash equal. *)
let hash_bindings (h : t) =
  M.fold (fun l v acc -> (((acc * 65599) + l) * 65599) + Hashtbl.hash v) h.map 0

(** [disjoint_union a b]: the union of two heaps with disjoint domains,
    or [None] on overlap — heap composition in the separation-logic
    sense. *)
let disjoint_union (a : t) (b : t) : t option =
  let clash = ref false in
  let merged =
    M.union
      (fun _ _ _ ->
        clash := true;
        None)
      a.map b.map
  in
  if !clash then None
  else Some { map = merged; next = Stdlib.max a.next b.next }

(** [subheap a b]: every binding of [a] occurs in [b]. *)
let subheap (a : t) (b : t) : bool =
  M.for_all
    (fun l v ->
      match M.find_opt l b.map with
      | Some v' -> Ast.value_eq v v' = Some true || v = v'
      | None -> false)
    a.map

(** [diff b a]: remove [a]'s domain from [b]. *)
let diff (b : t) (a : t) : t =
  { b with map = M.filter (fun l _ -> not (M.mem l a.map)) b.map }

(* ---------- reachability ---------- *)

(** [reachable_from roots h]: the locations reachable from the root
    values by following [Loc]s through heap cells (including locations
    captured inside closure bodies).  Sorted.  This is the
    garbage-collection view of the heap the leak analysis and its
    machine-side differential both use. *)
let reachable_from (roots : Ast.value list) (h : t) : Ast.loc list =
  let seen = Hashtbl.create 16 in
  let rec visit l =
    if not (Hashtbl.mem seen l) then begin
      Hashtbl.add seen l ();
      match lookup l h with
      | None -> ()
      | Some v -> List.iter visit (Ast.locs_value v)
    end
  in
  List.iter (fun v -> List.iter visit (Ast.locs_value v)) roots;
  List.sort compare (Hashtbl.fold (fun l () acc -> l :: acc) seen [])

(** [unreachable_from roots h]: the bound locations {e not} reachable
    from the roots — the cells a program leaked if the roots are its
    final value.  Sorted. *)
let unreachable_from (roots : Ast.value list) (h : t) : Ast.loc list =
  let reach = reachable_from roots h in
  let tbl = Hashtbl.create 16 in
  List.iter (fun l -> Hashtbl.replace tbl l ()) reach;
  List.filter_map
    (fun (l, _) -> if Hashtbl.mem tbl l then None else Some l)
    (bindings h)

let () =
  Tfiris_robust.Failure.register (function
    | Alloc_failure ->
      Some (Tfiris_robust.Failure.Fault_injected "heap allocation failure")
    | _ -> None)
