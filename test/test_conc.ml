(* Concurrent HeapLang: the thread-pool semantics, schedulers, and the
   exhaustive interleaving explorer (the substrate for the concurrent
   safety reasoning Transfinite Iris inherits, §3). *)

module Q = QCheck2
module Shl = Tfiris.Shl
module Conc = Tfiris_shl.Conc
module Budget = Tfiris_robust.Budget

let parse = Shl.Parser.parse_exn

let final_ints (r : Conc.exploration) =
  List.filter_map
    (fun (v, _) -> match v with Shl.Ast.Int n -> Some n | _ -> None)
    r.Conc.final_values
  |> List.sort compare

let test_racy_counter () =
  let r = Conc.explore (Conc.init Conc.racy_incr) in
  Alcotest.(check (list int)) "both outcomes reachable" [ 1; 2 ] (final_ints r);
  Alcotest.(check int) "no stuck thread" 0 (List.length r.Conc.stuck);
  Alcotest.(check bool) "exploration complete" false (r.Conc.exhausted <> None)

let test_locked_counter () =
  let r = Conc.explore (Conc.init Conc.locked_incr) in
  Alcotest.(check (list int)) "CAS loop: only 2" [ 2 ] (final_ints r);
  Alcotest.(check bool) "complete" false (r.Conc.exhausted <> None)

let test_spinlock () =
  let r = Conc.explore (Conc.init Conc.spinlock_pair) in
  Alcotest.(check int) "single outcome" 1 (List.length r.Conc.final_values);
  (match r.Conc.final_values with
  | [ (Shl.Ast.Pair (Shl.Ast.Int 2, Shl.Ast.Int 2), _) ] -> ()
  | _ -> Alcotest.fail "expected (2, 2)");
  (* the racy-read variant observes a mid-critical-section state *)
  let r' = Conc.explore (Conc.init Conc.spinlock_pair_racy_read) in
  Alcotest.(check bool) "racy read sees (2,1) on some schedule" true
    (List.exists
       (fun (v, _) -> v = Shl.Ast.Pair (Shl.Ast.Int 2, Shl.Ast.Int 1))
       r'.Conc.final_values)

let test_schedulers_agree_with_exploration () =
  let r = Conc.explore (Conc.init Conc.racy_incr) in
  let observed = final_ints r in
  List.iter
    (fun sched ->
      match Conc.run ~fuel:100_000 ~sched (Conc.init Conc.racy_incr) with
      | Conc.All_done (Shl.Ast.Int n, _) ->
        Alcotest.(check bool) "scheduled outcome was explored" true
          (List.mem n observed)
      | _ -> Alcotest.fail "scheduler run did not finish")
    [ Conc.round_robin; Conc.seeded 1; Conc.seeded 7; Conc.seeded 99 ]

let test_seeded_determinism () =
  (* a seeded scheduler is a pure function of its seed: the same seed
     must reproduce both the outcome and the exact step count, while
     over a racy program different seeds should exhibit at least two
     distinct schedules *)
  let describe = function
    | Conc.All_done (v, _) -> "done " ^ Shl.Pretty.value_to_string v
    | Conc.Thread_stuck (i, _) -> Printf.sprintf "stuck %d" i
    | Conc.Out_of_fuel _ -> "fuel"
  in
  let seeds = [ 0; 1; 7; 42; 99; 1234 ] in
  let runs =
    List.map
      (fun seed ->
        let run () =
          let o, steps =
            Conc.run_stats ~fuel:100_000 ~sched:(Conc.seeded seed)
              (Conc.init Conc.racy_incr)
          in
          (describe o, steps)
        in
        let o1, n1 = run () in
        let o2, n2 = run () in
        Alcotest.(check string)
          (Printf.sprintf "seed %d outcome reproducible" seed)
          o1 o2;
        Alcotest.(check int)
          (Printf.sprintf "seed %d step count reproducible" seed)
          n1 n2;
        (o1, n1))
      seeds
  in
  let distinct = List.sort_uniq compare runs in
  Alcotest.(check bool) "different seeds explore different schedules" true
    (List.length distinct > 1)

let test_fork_semantics () =
  (* fork returns unit immediately; the child's effect lands later *)
  let e = parse "let r = ref 0 in fork (r := 1); !r" in
  let rr = Conc.explore (Conc.init e) in
  Alcotest.(check (list int)) "0 or 1" [ 0; 1 ] (final_ints rr);
  (* sequentially, fork is stuck *)
  match Shl.Interp.exec e with
  | Shl.Interp.Stuck _, _ -> ()
  | _ -> Alcotest.fail "fork should be stuck sequentially"

let test_cas_sequential () =
  (* cas works (and is typed) in the sequential fragment *)
  (match Shl.Interp.eval (parse "let r = ref 5 in (cas r 5 9, !r)") with
  | Some (Shl.Ast.Pair (Shl.Ast.Bool true, Shl.Ast.Int 9)) -> ()
  | _ -> Alcotest.fail "successful cas");
  (match Shl.Interp.eval (parse "let r = ref 5 in (cas r 4 9, !r)") with
  | Some (Shl.Ast.Pair (Shl.Ast.Bool false, Shl.Ast.Int 5)) -> ()
  | _ -> Alcotest.fail "failed cas");
  match Shl.Types.infer (parse "fun r -> cas r 0 1") with
  | Ok t ->
    Alcotest.(check string) "cas type" "(ref int -> bool)"
      (Shl.Types.ty_to_string t)
  | Error m -> Alcotest.failf "cas untyped: %s" m

let test_fork_untyped () =
  match Shl.Types.infer (parse "fork ()") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "fork must be outside the typed fragment"

let test_stuck_thread_reported () =
  let e = parse "fork (1 + true); 0" in
  let r = Conc.explore (Conc.init e) in
  Alcotest.(check bool) "stuck child reported" true (List.length r.Conc.stuck > 0)

let test_roundtrip_conc_syntax () =
  List.iter
    (fun src ->
      let e = parse src in
      let printed = Shl.Pretty.expr_to_string e in
      Alcotest.(check bool) (src ^ " roundtrips") true (parse printed = e))
    [ "fork (x := 1)"; "cas r 0 1"; "if cas l 0 1 then () else ()" ]

let locked_always_two_prop =
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count:60 ~name:"CAS counter: every seeded schedule gives 2"
       ~print:string_of_int (Q.Gen.int_bound 10_000)
       (fun seed ->
         match
           Conc.run ~fuel:200_000 ~sched:(Conc.seeded seed)
             (Conc.init Conc.locked_incr)
         with
         | Conc.All_done (Shl.Ast.Int 2, _) -> true
         | _ -> false))

(* ---------- concurrent TP-refinement (the paper's future work,
   bounded to per-scheduler certificates) ---------- *)

module CR = Tfiris_refinement.Conc_refine

let test_conc_refinement_locked () =
  (* the CAS counter refines the sequential "2" under every schedule *)
  let ok, bad =
    CR.certify_all_seeds ~seeds:10 ~target:Conc.locked_incr
      ~source:(parse "1 + 1") ()
  in
  Alcotest.(check int) "all seeds pass" 10 (List.length ok);
  Alcotest.(check int) "none fail" 0 (List.length bad)

let test_conc_refinement_racy () =
  (* under each schedule the racy counter deterministically yields 1 or
     2; it refines exactly one of the two sequential constants *)
  List.iter
    (fun seed ->
      let sched = Conc.seeded (seed * 37) in
      let against src =
        match
          CR.certify ~tgt_sched:sched ~target:Conc.racy_incr
            ~source:(parse src) ()
        with
        | CR.Accepted _ -> true
        | CR.Still_running _ | CR.Rejected _ -> false
      in
      let one = against "0 + 1" and two = against "1 + 1" in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d refines exactly one constant" seed)
        true
        (one <> two))
    [ 0; 1; 2; 3; 4 ]

let test_conc_refinement_divergence_rejected () =
  (* a diverging concurrent target can never be certified against a
     terminating source *)
  let spin = parse "let r = ref 0 in fork (r := 1); (rec w u. w u) ()" in
  match
    CR.certify ~fuel:50_000 ~tgt_sched:Conc.round_robin ~target:spin
      ~source:(parse "1 + 1") ()
  with
  | CR.Accepted _ -> Alcotest.fail "diverging target certified!"
  | CR.Still_running _ | CR.Rejected _ -> ()

(* ---------- the canonical visited-set key ---------- *)

(* explore's visited set must key on a canonical form (plugged threads
   + sorted heap bindings), not on raw configurations: Heap.t is an AVL
   map, so equal heaps built in different insertion orders are
   different trees and hash/compare unequal.  This test demonstrates
   the raw-keying failure directly, then checks the explorer is immune:
   the same program explored from the two representations of one heap
   sees the same state space. *)
let test_canonical_visited_key () =
  let open Shl in
  let build order =
    List.fold_left (fun h l -> Heap.store l (Ast.Int l) h) Heap.empty order
  in
  let keys = [ 0; 1; 2; 3 ] in
  let h_asc = build keys and h_desc = build (List.rev keys) in
  Alcotest.(check bool) "same bindings" true
    (Heap.bindings h_asc = Heap.bindings h_desc);
  Alcotest.(check bool) "observationally equal" true (Heap.equal h_asc h_desc);
  Alcotest.(check bool) "structurally distinct trees" true (h_asc <> h_desc);
  let raw_keyed = Hashtbl.create 8 in
  Hashtbl.replace raw_keyed h_asc ();
  Alcotest.(check bool) "a raw-keyed table misses the equal heap" false
    (Hashtbl.mem raw_keyed h_desc);
  let store l n = Ast.Store (Ast.Val (Ast.Loc l), Ast.Val (Ast.Int n)) in
  let prog = Ast.Seq (Ast.Fork (store 0 10), Ast.Seq (store 3 13, store 1 11)) in
  let r_asc = Conc.explore (Conc.init ~heap:h_asc prog)
  and r_desc = Conc.explore (Conc.init ~heap:h_desc prog) in
  Alcotest.(check int) "same distinct-state count" r_asc.Conc.states
    r_desc.Conc.states;
  Alcotest.(check int) "same outcomes" 1 (List.length r_asc.Conc.final_values);
  match (r_asc.Conc.final_values, r_desc.Conc.final_values) with
  | [ (_, ha) ], [ (_, hd) ] ->
    Alcotest.(check bool) "same final heap" true
      (Shl.Heap.bindings ha = Shl.Heap.bindings hd)
  | _ -> Alcotest.fail "expected a unique final heap on both sides"

let test_interleaving_diamond_dedup () =
  (* two threads store into distinct pre-existing cells: both orders
     reach the same configuration, which must be visited once — the
     state space is the 7-state diamond, not a tree of schedules *)
  let open Shl in
  let h0 = Heap.store 1 (Ast.Int 0) (Heap.store 0 (Ast.Int 0) Heap.empty) in
  let store l n = Ast.Store (Ast.Val (Ast.Loc l), Ast.Val (Ast.Int n)) in
  let prog = Ast.Seq (Ast.Fork (store 0 1), store 1 2) in
  let r = Conc.explore (Conc.init ~heap:h0 prog) in
  Alcotest.(check int) "one deduplicated final" 1
    (List.length r.Conc.final_values);
  (match r.Conc.final_values with
  | [ (Ast.Unit, h) ] ->
    Alcotest.(check bool) "both writes landed" true
      (Heap.bindings h = [ (0, Ast.Int 1); (1, Ast.Int 2) ])
  | _ -> Alcotest.fail "expected main to finish with ()");
  Alcotest.(check int) "diamond, not a schedule tree" 7 r.Conc.states

(* ---------- the state key: no plugging, whole-state hash ---------- *)

(* The key the explorer used to build for every successor: every thread
   plugged back into a whole program, plus the sorted heap bindings.
   Kept here as the reference that [Conc.same_state] must agree with. *)
let reference_key (c : Conc.cfg) =
  (Conc.thread_exprs c, Tfiris_shl.Heap.bindings c.Conc.heap)

(* The same configuration with its heap rebuilt in descending insertion
   order: a different AVL shape over the same bindings. *)
let reshaped (c : Conc.cfg) =
  let heap =
    List.fold_left
      (fun h (l, v) -> Tfiris_shl.Heap.store l v h)
      Tfiris_shl.Heap.empty
      (List.rev (Tfiris_shl.Heap.bindings c.Conc.heap))
  in
  { c with Conc.heap }

(* Up to [limit] configurations reached by exploring [e]: each expanded
   state, its reshaped copy, and all its successors — revisits included,
   so the sample holds equal states reached along different paths. *)
let reached_states ~limit e =
  let acc = ref [] and n = ref 0 in
  let keep c =
    if !n < limit then begin
      acc := c :: !acc;
      incr n
    end
  in
  let on_state c =
    keep c;
    keep (reshaped c);
    List.iter
      (fun i ->
        match Conc.step_thread c i with
        | Conc.T_progress c' -> keep c'
        | Conc.T_value | Conc.T_stuck _ -> ())
      (Conc.runnable c)
  in
  ignore
    (Conc.explore ~budget:(Budget.of_states 200) ~domains:1 ~on_state
       (Conc.init e));
  List.rev !acc

let state_key_matches_reference_prop =
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count:200
       ~name:"state key ≡ plugged reference key (equality and hash)"
       ~print:Gen.print_shl Gen.conc_expr
       (fun e ->
         let states =
           List.map
             (fun c -> (c, reference_key c, Conc.state_hash c))
             (reached_states ~limit:60 e)
         in
         List.for_all
           (fun (a, ka, ha) ->
             List.for_all
               (fun (b, kb, hb) ->
                 let same = Conc.same_state a b in
                 same = (ka = kb) && ((not same) || ha = hb))
               states)
           states))

(* Every visited state gets its own hash: the hash covers each focus,
   frame and heap binding, so no two of these state spaces' states
   share a bucket chain. *)
let test_state_hash_distinct () =
  let cas_counter threads =
    (* the shape of the benchmark's exploration requests *)
    let b = Buffer.create 512 in
    Buffer.add_string b "let c = ref 0 in\n";
    for i = 0 to threads - 1 do
      Printf.bprintf b "let d%d = ref 0 in\n" i
    done;
    Buffer.add_string b
      "let incr = rec retry u. let v = !c in if cas c v (v + 1) then () \
       else retry u in\n";
    for i = 0 to threads - 1 do
      Printf.bprintf b "fork (incr (); cas d%d 0 1);\n" i
    done;
    let wait = ref "!c" in
    for i = threads - 1 downto 0 do
      wait :=
        Printf.sprintf "(rec w%d u. if !d%d = 1 then %s else w%d u) ()" i i
          !wait i
    done;
    Buffer.add_string b !wait;
    parse (Buffer.contents b)
  in
  let conc_locked =
    parse
      (In_channel.with_open_text "../examples/shl/conc_locked.shl"
         In_channel.input_all)
  in
  List.iter
    (fun (name, e, expected_states) ->
      let hashes = Hashtbl.create 1024 in
      let r =
        Conc.explore ~domains:1
          ~on_state:(fun c -> Hashtbl.replace hashes (Conc.state_hash c) ())
          (Conc.init e)
      in
      Alcotest.(check bool) (name ^ ": complete") true (r.Conc.exhausted = None);
      (match expected_states with
      | Some n -> Alcotest.(check int) (name ^ ": states") n r.Conc.states
      | None -> ());
      Alcotest.(check int)
        (name ^ ": distinct hashes")
        r.Conc.states (Hashtbl.length hashes))
    [
      ("locked_incr", Conc.locked_incr, None);
      ("spinlock_pair", Conc.spinlock_pair, None);
      ("conc_locked.shl", conc_locked, Some 800);
      ("3-thread CAS counter", cas_counter 3, Some 12_144);
    ]

(* ---------- the parallel explorer (PR 9) ---------- *)

(* The full observable signature of an exploration, as a comparable
   value: state count, sorted final (value, heap) pairs, sorted stuck
   redexes, and which resource (if any) ran out.  The work-stealing
   engine must reproduce the sequential engine's signature exactly —
   only traversal order may differ. *)
let signature (r : Conc.exploration) =
  ( r.Conc.states,
    List.sort compare
      (List.map
         (fun (v, h) ->
           (Shl.Pretty.value_to_string v, Tfiris_shl.Heap.bindings h))
         r.Conc.final_values),
    List.sort compare
      (List.map
         (fun (tid, redex) -> (tid, Shl.Pretty.expr_to_string redex))
         r.Conc.stuck),
    r.Conc.exhausted )

let par_differential_prop =
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count:500
       ~name:"parallel explore ≡ sequential at 1/2/4 domains"
       ~print:Gen.print_shl Gen.conc_expr
       (fun e ->
         let budget = Budget.of_states 4_000 in
         let seq_r = Conc.explore ~budget ~domains:1 (Conc.init e) in
         let seq = signature seq_r in
         List.for_all
           (fun d ->
             let par_r =
               Conc.Par_explore.explore ~budget ~domains:d (Conc.init e)
             in
             match seq_r.Conc.exhausted with
             | None -> signature par_r = seq
             | Some res ->
               (* a tripped states cap still admits exactly min(cap,
                  |reachable|) states at every domain count, but *which*
                  finals were collected while draining depends on
                  traversal order — only count and verdict are
                  deterministic *)
               par_r.Conc.states = seq_r.Conc.states
               && par_r.Conc.exhausted = Some res)
           [ 1; 2; 4 ]))

let test_par_budget_steps_exhaustion () =
  (* a steps budget must exhaust globally and name the right resource
     at every domain count *)
  List.iter
    (fun d ->
      let r =
        Conc.explore ~budget:(Budget.of_steps 40) ~domains:d
          (Conc.init Conc.locked_incr)
      in
      Alcotest.(check bool)
        (Printf.sprintf "steps named at %d domains" d)
        true
        (r.Conc.exhausted = Some Budget.Steps))
    [ 1; 2; 4 ]

let test_par_budget_states_prefix () =
  (* a states cap admits exactly min(cap, |reachable|) visited states —
     deterministic at every domain count, because membership + charge +
     insert happen under one shard lock *)
  let full =
    (Conc.explore ~domains:1 (Conc.init Conc.locked_incr)).Conc.states
  in
  List.iter
    (fun cap ->
      List.iter
        (fun d ->
          let r =
            Conc.explore ~budget:(Budget.of_states cap) ~domains:d
              (Conc.init Conc.locked_incr)
          in
          Alcotest.(check int)
            (Printf.sprintf "states at cap %d, %d domains" cap d)
            (Stdlib.min cap full) r.Conc.states;
          Alcotest.(check bool)
            (Printf.sprintf "verdict at cap %d, %d domains" cap d)
            (cap < full)
            (r.Conc.exhausted = Some Budget.States))
        [ 1; 2; 4 ])
    [ 1; 10; full - 1; full; full + 50 ]

let test_par_worker_stats () =
  (* the parallel engine reports one stat per domain and the dequeue
     total covers the whole visited set; the sequential engine reports
     none *)
  let seq = Conc.explore ~domains:1 (Conc.init Conc.spinlock_pair) in
  Alcotest.(check int) "sequential: no worker stats" 0
    (List.length seq.Conc.workers);
  let par = Conc.Par_explore.explore ~domains:3 (Conc.init Conc.spinlock_pair) in
  Alcotest.(check int) "one stat per domain" 3 (List.length par.Conc.workers);
  Alcotest.(check int) "dequeues cover the state space" par.Conc.states
    (List.fold_left
       (fun acc w -> acc + w.Conc.w_dequeued)
       0 par.Conc.workers)

let test_par_races_oracle_agrees () =
  (* the dynamic race oracle rides the shared explorer's frontier
     callback: its findings must not depend on the domain count *)
  let module Races = Tfiris.Analysis.Races in
  let seq = Races.dynamic_races ~domains:1 Conc.spinlock_pair_racy_read in
  Alcotest.(check bool) "oracle finds races sequentially" true (seq <> []);
  List.iter
    (fun d ->
      let par = Races.dynamic_races ~domains:d Conc.spinlock_pair_racy_read in
      Alcotest.(check bool)
        (Printf.sprintf "oracle identical at %d domains" d)
        true (par = seq))
    [ 2; 4 ]

let suite =
  [
    Alcotest.test_case "racy counter loses updates" `Quick test_racy_counter;
    Alcotest.test_case "CAS counter is correct on all schedules" `Quick
      test_locked_counter;
    Alcotest.test_case "spin lock protects its invariant" `Slow test_spinlock;
    Alcotest.test_case "schedulers ⊆ exploration" `Quick
      test_schedulers_agree_with_exploration;
    Alcotest.test_case "seeded scheduler is deterministic" `Quick
      test_seeded_determinism;
    Alcotest.test_case "fork semantics" `Quick test_fork_semantics;
    Alcotest.test_case "cas sequentially (and typed)" `Quick
      test_cas_sequential;
    Alcotest.test_case "fork is untyped" `Quick test_fork_untyped;
    Alcotest.test_case "stuck threads reported" `Quick
      test_stuck_thread_reported;
    Alcotest.test_case "concurrent syntax roundtrips" `Quick
      test_roundtrip_conc_syntax;
    locked_always_two_prop;
    Alcotest.test_case "conc TP-refinement: CAS counter ⪯ 2" `Quick
      test_conc_refinement_locked;
    Alcotest.test_case "conc TP-refinement: racy counter per-schedule" `Quick
      test_conc_refinement_racy;
    Alcotest.test_case "conc TP-refinement: divergence rejected" `Quick
      test_conc_refinement_divergence_rejected;
    Alcotest.test_case "explore keys states canonically" `Quick
      test_canonical_visited_key;
    Alcotest.test_case "explore dedups commuting interleavings" `Quick
      test_interleaving_diamond_dedup;
    state_key_matches_reference_prop;
    Alcotest.test_case "state hashes are distinct on every visited state"
      `Quick test_state_hash_distinct;
    par_differential_prop;
    Alcotest.test_case "parallel explore: steps budget exhausts globally"
      `Quick test_par_budget_steps_exhaustion;
    Alcotest.test_case "parallel explore: states cap is a deterministic prefix"
      `Quick test_par_budget_states_prefix;
    Alcotest.test_case "parallel explore: per-worker accounting" `Quick
      test_par_worker_stats;
    Alcotest.test_case "race oracle is domain-count independent" `Quick
      test_par_races_oracle_agrees;
  ]
