(* Abstract simulations (§2): gfp vs step-indexed approximations on
   finite systems, adequacy against brute-force refinement checking, and
   the t∞ ⪯ s<∞ counterexample. *)

open Tfiris
module Q = QCheck2

(* A deterministic 3-step terminating system: 0 → 1 → 2 (= true). *)
let straight =
  Ts.make ~num_states:3 ~initial:0 ~edges:[ (0, 1); (1, 2) ]
    ~results:[ (2, true) ]

(* A looping system. *)
let looping = Ts.make ~num_states:1 ~initial:0 ~edges:[ (0, 0) ] ~results:[]

(* Nondeterministic: may terminate true or loop. *)
let maybe =
  Ts.make ~num_states:3 ~initial:0 ~edges:[ (0, 1); (0, 2); (2, 2) ]
    ~results:[ (1, true) ]

let test_ts_basics () =
  Alcotest.(check bool) "straight evaluates to true" true
    (Ts.evaluates_to straight true);
  Alcotest.(check bool) "straight does not diverge" false (Ts.diverges straight);
  Alcotest.(check bool) "looping diverges" true (Ts.diverges looping);
  Alcotest.(check bool) "maybe does both" true
    (Ts.evaluates_to maybe true && Ts.diverges maybe)

let test_refinement_checkers () =
  Alcotest.(check bool) "straight result-refines maybe" true
    (Ts.result_refinement ~target:straight ~source:maybe);
  Alcotest.(check bool) "looping TP-refines maybe" true
    (Ts.tp_refinement ~target:looping ~source:maybe);
  Alcotest.(check bool) "looping does NOT TP-refine straight" false
    (Ts.tp_refinement ~target:looping ~source:straight)

let test_simulation_basics () =
  Alcotest.(check bool) "straight ⪯ straight" true
    (Simulation.simulates ~target:straight ~source:straight);
  Alcotest.(check bool) "looping ⪯ looping" true
    (Simulation.simulates ~target:looping ~source:looping);
  Alcotest.(check bool) "looping ⪯ maybe (via the loop branch)" true
    (Simulation.simulates ~target:looping ~source:maybe);
  Alcotest.(check bool) "straight ⋠ looping (no result)" false
    (Simulation.simulates ~target:straight ~source:looping)

let test_approximations () =
  (* ⪯₀ is full; the chain is decreasing; it stabilizes at the gfp *)
  let r0 = Simulation.approx ~target:straight ~source:looping 0 in
  Alcotest.(check bool) "⪯₀ relates everything" true
    (Simulation.holds r0 straight looping);
  let gfp, stage = Simulation.gfp ~target:straight ~source:looping in
  Alcotest.(check bool) "stabilizes within |T|·|S| stages" true
    (stage <= 3 * 1);
  let at_stage = Simulation.approx ~target:straight ~source:looping stage in
  Alcotest.(check bool) "approx at stage = gfp" true
    (Simulation.rel_equal gfp at_stage);
  (* ordinal-indexed: ω gives the gfp on finite systems *)
  let at_omega = Simulation.approx_ord ~target:straight ~source:looping Ord.omega in
  Alcotest.(check bool) "⪯_ω = gfp" true (Simulation.rel_equal gfp at_omega)

let test_replay () =
  match Simulation.replay ~target:straight ~source:straight [ 0; 1; 2 ] with
  | Some run -> Alcotest.(check (list int)) "lockstep replay" [ 0; 1; 2 ] run
  | None -> Alcotest.fail "replay failed"

(* ---------- §2.3 counterexample ---------- *)

let test_counterexample () =
  let r = Counterexample.run ~indices:64 ~max_pick:256 () in
  Alcotest.(check bool) "t∞ ⪯ᵢ s<∞ for all finite i" true r.approx_all_hold;
  Alcotest.(check bool) "witnesses are incoherent" true r.witnesses_incoherent;
  Alcotest.(check bool) "s<∞ always terminates" true r.source_always_terminates

let test_counterexample_runs () =
  (* Pick, Run 5 … Run 0, Done: 8 states *)
  Alcotest.(check int) "run picking 5 has length 8"
    8 (Counterexample.run_length_of_pick 5);
  Alcotest.(check bool) "run lengths grow with the pick" true
    (Counterexample.run_length_of_pick 10 < Counterexample.run_length_of_pick 20);
  Alcotest.(check (option int)) "witness for i=8 picks 7" (Some 7)
    (Counterexample.first_pick (Counterexample.witness_run 8))

(* ---------- Lemma 2.3: measured systems (Goodstein, Hydra) ---------- *)

let test_measure_validate () =
  (* a correct countdown measure validates; an off-by-one one does not *)
  let countdown : int Measure.t =
    {
      Measure.state_pp = Format.pp_print_int;
      step = (fun n -> if n = 0 then [] else [ n - 1 ]);
      measure = (fun n -> Ord.of_int n);
    }
  in
  (match Measure.validate countdown 10 with
  | Ok None -> ()
  | Ok (Some _) -> Alcotest.fail "countdown measure wrongly refuted"
  | Error m -> Alcotest.fail m);
  let broken = { countdown with Measure.measure = (fun n -> Ord.of_int (n / 2)) } in
  match Measure.validate broken 10 with
  | Ok (Some v) ->
    Alcotest.(check bool) "violation reported with equal measures" true
      (Ord.equal v.Measure.from_measure v.Measure.to_measure)
  | Ok None -> Alcotest.fail "broken measure wrongly validated"
  | Error m -> Alcotest.fail m

let test_measure_run_rejects_cheat () =
  (* a system that does not decrease is stopped, not spun *)
  let cheat : int Measure.t =
    {
      Measure.state_pp = Format.pp_print_int;
      step = (fun n -> [ n + 1 ]);
      measure = (fun _ -> Ord.omega);
    }
  in
  match Measure.run cheat ~choose:List.hd 0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-descending run accepted"

let test_hydra_dies () =
  List.iter
    (fun (h, regrow, choose, name) ->
      match Hydra.play ~regrow ~choose h with
      | Ok n -> Alcotest.(check bool) (name ^ " takes chops") true (n > 0)
      | Error _ -> Alcotest.failf "%s: measure violation" name)
    [
      (Hydra.bush ~width:2 ~depth:2, 2, Hydra.choose_first, "bush greedy");
      (Hydra.bush ~width:2 ~depth:2, 3, Hydra.choose_fattest, "bush adversarial");
      (Hydra.line 1, 5, Hydra.choose_fattest, "line heavy regrow");
    ]

let test_hydra_measure () =
  Alcotest.(check string) "μ(bush 2x2) = ω²·2" "\xcf\x89^2\xc2\xb72"
    (Ord.to_string (Hydra.measure (Hydra.bush ~width:2 ~depth:2)));
  Alcotest.(check string) "μ(line 3) = ω^ω^ω" "\xcf\x89^\xcf\x89^\xcf\x89"
    (Ord.to_string (Hydra.measure (Hydra.line 3)));
  Alcotest.(check string) "μ(leaf) = 0" "0" (Ord.to_string (Hydra.measure Hydra.leaf))

let hydra_descent_prop =
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count:60 ~name:"every chop strictly decreases μ"
       ~print:(fun (w, r) -> Printf.sprintf "width %d, regrow %d" w r)
       (Q.Gen.pair (Q.Gen.int_range 1 3) (Q.Gen.int_range 1 3))
       (fun (width, regrow) ->
         let h = Hydra.bush ~width ~depth:2 in
         let m = Hydra.measure h in
         List.for_all
           (fun h' -> Ord.lt (Hydra.measure h') m)
           (Hydra.chops ~regrow h)))

(* ---------- hydra successors against an eager reference ---------- *)

(* The reference: hydras as plain trees and every successor built
   eagerly — the straightforward rule [Hydra.chops] must reproduce,
   successor for successor and in the same order. *)
type ref_tree = R of ref_tree list

let rec ref_size (R ts) = List.fold_left (fun a t -> a + ref_size t) 1 ts
let rec of_ref (R ts) = Hydra.node (List.map of_ref ts)

let ref_chops ~regrow (R roots) : ref_tree list =
  let indexed ts = List.mapi (fun i c -> (i, c)) ts in
  let rec chop_in (R ts) : (ref_tree * ref_tree list) list =
    let here =
      List.concat_map
        (fun (i, child) ->
          match child with
          | R [] ->
            let after = R (List.filteri (fun j _ -> j <> i) ts) in
            [ (after, List.init regrow (fun _ -> after)) ]
          | R _ -> [])
        (indexed ts)
    in
    let deeper =
      List.concat_map
        (fun (i, child) ->
          match child with
          | R [] -> []
          | R _ ->
            List.map
              (fun (child', copies) ->
                (R (List.mapi (fun j c -> if j = i then child' else c) ts @ copies), []))
              (chop_in child))
        (indexed ts)
    in
    here @ deeper
  in
  let root_level =
    List.concat_map
      (fun (i, child) ->
        match child with
        | R [] -> [ R (List.filteri (fun j _ -> j <> i) roots) ]
        | R _ -> [])
      (indexed roots)
  in
  let deeper =
    List.concat_map
      (fun (i, child) ->
        match child with
        | R [] -> []
        | R _ ->
          List.map
            (fun (child', copies) ->
              R (List.mapi (fun j c -> if j = i then child' else c) roots @ copies))
            (chop_in child))
      (indexed roots)
  in
  root_level @ deeper

let ref_fattest = function
  | [] -> invalid_arg "no successor"
  | s :: rest ->
    List.fold_left (fun best s' -> if ref_size s' > ref_size best then s' else best) s rest

let ref_tree_gen : ref_tree Q.Gen.t =
  let open Q.Gen in
  let rec go depth =
    if depth = 0 then return (R [])
    else map (fun ts -> R ts) (list_size (int_range 0 3) (go (depth - 1)))
  in
  int_range 0 3 >>= go

let rec ref_print (R ts) =
  if ts = [] then "." else "(" ^ String.concat " " (List.map ref_print ts) ^ ")"

let show_hydra = Format.asprintf "%a" Hydra.pp

let hydra_chops_agree_prop =
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count:300 ~name:"Hydra.chops ≡ eager reference chops"
       ~print:(fun (h, r) -> Printf.sprintf "%s, regrow %d" (ref_print h) r)
       (Q.Gen.pair ref_tree_gen (Q.Gen.int_range 0 4))
       (fun (h, regrow) ->
         let expected = ref_chops ~regrow h in
         let succs = Hydra.chops ~regrow (of_ref h) in
         (* sizes and the adversarial choice come from the suspended
            successors, before anything materialises them *)
         let sizes = List.map Hydra.size succs in
         let fattest =
           match succs with [] -> None | _ -> Some (Hydra.choose_fattest succs)
         in
         List.length succs = List.length expected
         && sizes = List.map ref_size expected
         && List.for_all2
              (fun s e ->
                let e = of_ref e in
                String.equal (show_hydra s) (show_hydra e)
                && Ord.equal (Hydra.measure s) (Hydra.measure e))
              succs expected
         && Option.map show_hydra fattest
            = Option.map
                (fun e -> show_hydra (of_ref e))
                (match expected with [] -> None | _ -> Some (ref_fattest expected))))

(* Every strategy kills a depth-2 bush of width [w] in [w·f(w)] chops,
   [f 0 = 1], [f k = 1 + (r+1)·f(k−1)]: pinned on every (width, regrow)
   pair the benchmark's search workload plays, for both strategies. *)
let test_hydra_chop_counts () =
  let closed_form w r =
    let rec f k = if k = 0 then 1 else 1 + ((r + 1) * f (k - 1)) in
    w * f w
  in
  Alcotest.(check int) "bush 3x2, regrow 4" 468 (closed_form 3 4);
  List.iter
    (fun (w, r) ->
      List.iter
        (fun (choose, strategy) ->
          match Hydra.play ~regrow:r ~choose (Hydra.bush ~width:w ~depth:2) with
          | Ok n ->
            Alcotest.(check int)
              (Printf.sprintf "bush %dx2, regrow %d, %s" w r strategy)
              (closed_form w r) n
          | Error _ -> Alcotest.failf "bush %dx2, regrow %d: measure violation" w r)
        [ (Hydra.choose_first, "greedy"); (Hydra.choose_fattest, "adversarial") ])
    [ (2, 1); (2, 2); (2, 3); (2, 4); (3, 1); (3, 2); (3, 3); (3, 4); (4, 1); (4, 2); (4, 3) ]

(* validate compares states with polymorphic equality (List.mem): the
   suspended successors must not break it. *)
let test_hydra_validate () =
  match Measure.validate (Hydra.system ~regrow:2) (Hydra.bush ~width:2 ~depth:2) with
  | Ok None -> ()
  | Ok (Some _) -> Alcotest.fail "hydra measure wrongly refuted"
  | Error m -> Alcotest.fail m

(* ---------- properties: simulation adequacy on random systems ---------- *)

let prop name f =
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count:400 ~name
       ~print:(fun (a, b) -> Gen.print_ts a ^ " vs " ^ Gen.print_ts b)
       (Q.Gen.pair Gen.finite_ts Gen.finite_ts)
       f)

let properties =
  [
    prop "Lemma 2.1: gfp simulation implies result refinement"
      (fun (target, source) ->
        (not (Simulation.simulates ~target ~source))
        || Ts.result_refinement ~target ~source);
    prop "Lemma 2.2 (finite case): gfp simulation implies TP refinement"
      (fun (target, source) ->
        (* On finite systems the coinductive simulation transfers
           divergence: replaying a lasso yields a source lasso. *)
        (not (Simulation.simulates ~target ~source))
        || Ts.tp_refinement ~target ~source);
    prop "approximation chain is decreasing" (fun (target, source) ->
        let r1 = Simulation.approx ~target ~source 1 in
        let r2 = Simulation.approx ~target ~source 2 in
        let r3 = Simulation.approx ~target ~source 3 in
        let included a b =
          (* b ⊆ a pointwise *)
          Array.for_all2
            (fun ra rb -> Array.for_all2 (fun x y -> (not y) || x) ra rb)
            a b
        in
        included r1 r2 && included r2 r3);
    prop "gfp = intersection of finite approximations (finite systems)"
      (fun (target, source) ->
        let gfp, stage = Simulation.gfp ~target ~source in
        Simulation.rel_equal gfp (Simulation.approx ~target ~source (stage + 5)));
    prop "gfp is a post-fixpoint" (fun (target, source) ->
        let gfp, _ = Simulation.gfp ~target ~source in
        Simulation.rel_equal gfp (Simulation.unfold ~target ~source gfp));
    prop "reflexivity of simulation (stuck-free systems)" (fun (target, _) ->
        (* a stuck non-value state simulates nothing, not even itself;
           reflexivity holds for systems without reachable stuck states *)
        let has_stuck =
          List.exists
            (fun s -> target.Ts.step s = [] && target.Ts.result s = None)
            (List.init target.Ts.num_states Fun.id)
        in
        has_stuck || Simulation.simulates ~target ~source:target);
  ]

let suite =
  [
    Alcotest.test_case "transition system basics" `Quick test_ts_basics;
    Alcotest.test_case "brute-force refinement checkers" `Quick
      test_refinement_checkers;
    Alcotest.test_case "simulation gfp basics" `Quick test_simulation_basics;
    Alcotest.test_case "step-indexed approximations" `Quick test_approximations;
    Alcotest.test_case "source run replay" `Quick test_replay;
    Alcotest.test_case "§2.3 counterexample report" `Quick test_counterexample;
    Alcotest.test_case "§2.3 counterexample runs" `Quick
      test_counterexample_runs;
    Alcotest.test_case "Lemma 2.3: measure validation" `Quick
      test_measure_validate;
    Alcotest.test_case "Lemma 2.3: descent enforced at run time" `Quick
      test_measure_run_rejects_cheat;
    Alcotest.test_case "hydra always dies" `Quick test_hydra_dies;
    Alcotest.test_case "hydra measures" `Quick test_hydra_measure;
    hydra_descent_prop;
    hydra_chops_agree_prop;
    Alcotest.test_case "hydra chop counts: closed form, both strategies" `Quick
      test_hydra_chop_counts;
    Alcotest.test_case "hydra measure validates (lazy successors)" `Quick
      test_hydra_validate;
  ]
  @ properties
