(* The pre-run engine (Shl.Prerun, behind Machine.steps_to_value): the
   environment machine counts exactly what the substitution machine
   counts, is stuck where it is stuck, allocates where it allocates, and
   stays within a fixed number of allocated words per step. *)

module Q = QCheck2
open Tfiris
open Shl

let parse = Parser.parse_exn

(* The reference: the substitution machine's own count. *)
let reference ?(heap = Heap.empty) ~fuel e =
  match Interp.exec ~fuel ~heap e with
  | Interp.Value _, st -> Some st.Interp.steps
  | (Interp.Stuck _ | Interp.Out_of_fuel _), _ -> None

let prerun ?(heap = Heap.empty) ~fuel e =
  Machine.steps_to_value ~fuel (Machine.config ~heap e)

let pp_count = function Some n -> string_of_int n | None -> "None"

let fuels = [ 0; 1; 2; 3; 5; 10; 300 ]

(* Same answer at every fuel, and an exact boundary: a run of [n] steps
   fits in fuel [n] and not in [n - 1]. *)
let agrees ?heap e =
  List.for_all
    (fun fuel ->
      let want = reference ?heap ~fuel e and got = prerun ?heap ~fuel e in
      want = got
      || Q.Test.fail_reportf "fuel %d: substitution %s, pre-run %s" fuel
           (pp_count want) (pp_count got))
    fuels
  &&
  match reference ?heap ~fuel:300 e with
  | None -> true
  | Some n ->
    (prerun ?heap ~fuel:n e = Some n
    || Q.Test.fail_reportf "no count at its own fuel %d" n)
    && (n = 0 || prerun ?heap ~fuel:(n - 1) e = None
       || Q.Test.fail_reportf "a count at fuel %d" (n - 1))

let differential =
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count:1200 ~name:"pre-run ≡ substitution machine"
       ~print:Gen.print_shl Gen.shl_expr (fun e -> agrees e))

(* Mid-run configurations, as the adaptive strategy pre-runs them: the
   heap already holds values (locations, closures) the run stored. *)
let mid_run =
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count:300 ~name:"pre-run ≡ substitution from mid-run states"
       ~print:Gen.print_shl Gen.shl_expr (fun e ->
         List.for_all
           (fun (c : Step.config) -> agrees ~heap:c.Step.heap c.Step.expr)
           (Interp.trace ~fuel:12 e)))

(* ---------- pinned cases ---------- *)

let check_pinned name expected e =
  Alcotest.(check (option int)) (name ^ ": substitution") expected
    (reference ~fuel:10_000 e);
  Alcotest.(check (option int)) (name ^ ": pre-run") expected
    (prerun ~fuel:10_000 e)

let test_pinned () =
  let open Ast in
  (* closure literals whose bodies mention enclosing binders *)
  let add_y = Rec_fun (None, "x", Bin_op (Add, Var "x", Var "y")) in
  check_pinned "open closure literal" (Some 3)
    (Let ("y", int_ 1, App (Val add_y, int_ 2)));
  check_pinned "open closure inside a pair literal" (Some 4)
    (Let ("y", int_ 1, App (Fst (Val (Pair (add_y, Unit))), int_ 2)));
  check_pinned "open named closure literal" (Some 8)
    (Let
       ( "y",
         int_ 2,
         App
           ( Val
               (Rec_fun
                  ( Some "g",
                    "n",
                    If
                      ( Bin_op (Le, Var "n", Var "y"),
                        Var "n",
                        App (Var "g", Bin_op (Sub, Var "n", int_ 1)) ) )),
             int_ 3 ) ));
  (* [rec x x. …]: the argument shadows the function *)
  check_pinned "rec x x shadowing" (Some 3) (parse "(rec x x. x + 1) 5");
  check_pinned "rec x x: the name is the argument" None
    (parse "(rec x x. x 1) 5");
  check_pinned "case binders" (Some 4)
    (parse "let a = 10 in match inl 1 with inl a -> a + a | inr b -> a end");
  check_pinned "case binder shadows" (Some 4)
    (parse "let b = 10 in match inr 1 with inl a -> a | inr b -> b + b end");
  check_pinned "= on closures" None (parse "(fun x -> x) = (fun x -> x)");
  check_pinned "= decided before a closure" (Some 5)
    (parse "(1, fun x -> x) = (2, fun x -> x)");
  check_pinned "= reaching a closure" None
    (parse "(1, fun x -> x) = (1, fun x -> x)");
  check_pinned "fork" None (parse "let x = 1 + 1 in fork (x); x");
  check_pinned "cas on a closure" None
    (parse "let r = ref (fun x -> x) in cas r (fun x -> x) 1");
  check_pinned "cas success" (Some 3) (parse "let r = ref 1 in cas r 1 2");
  check_pinned "cas failure" (Some 3) (parse "let r = ref 1 in cas r 3 2");
  check_pinned "+l in bounds" (Some 4) (parse "let r = ref 1 in !(r +l 0)");
  check_pinned "+l out of bounds" None (parse "let r = ref 1 in !(r +l 1)");
  check_pinned "store out of bounds" None
    (parse "let r = ref 1 in (r +l 1) := 2");
  check_pinned "division by zero" None (parse "1 quot 0");
  check_pinned "remainder by zero" None (parse "1 rem 0");
  check_pinned "free variable" None (parse "let x = 1 in y");
  check_pinned "free variable in a closure" (Some 1) (parse "fun x -> y");
  check_pinned "ill-typed if" None (parse "if 1 then 2 else 3")

(* A heap holding closures and locations, pre-run from every state of
   the run: the pre-run reads the closures the run stored. *)
let test_heap_with_closures () =
  let e =
    parse
      "let r = ref (fun x -> x + 1) in let s = ref r in let t = ref (s, 7) \
       in let g = !r in r := (fun x -> g x * 2); (!(!(fst !t))) (snd !t)"
  in
  let states = Interp.trace ~fuel:10_000 e in
  Alcotest.(check bool) "a long run" true (List.length states > 20);
  List.iter
    (fun (c : Step.config) ->
      Alcotest.(check (option int)) "count from this state"
        (reference ~heap:c.Step.heap ~fuel:10_000 c.Step.expr)
        (prerun ~heap:c.Step.heap ~fuel:10_000 c.Step.expr))
    states;
  (* the heap's own counter numbers fresh cells: a [ref] lands above a
     cell stored by hand, as Heap.alloc does, so [r +l -1] is that cell *)
  let heap = Heap.store 5 (Ast.Int 41) Heap.empty in
  let e = parse "let r = ref 1 in !(r +l -1) + !r" in
  Alcotest.(check (option int)) "allocation numbering"
    (reference ~heap ~fuel:100 e) (prerun ~heap ~fuel:100 e);
  Alcotest.(check bool) "reaches a value" true (prerun ~heap ~fuel:100 e <> None)

(* ---------- the allocation-fault hook ---------- *)

(* Under an allocation-fault plan the pre-run fails at the same
   allocation as the substitution machine — including an allocation
   whose step the fuel no longer covers, which both consult first. *)
let chaos_same_allocation =
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count:400 ~name:"alloc faults fire at the same allocation"
       ~print:(fun (e, (p, fuel)) ->
         Printf.sprintf "period %d, fuel %d: %s" p fuel (Gen.print_shl e))
       Q.Gen.(pair Gen.shl_expr (pair (int_range 2 5) (oneofl fuels)))
       (fun (e, (period, fuel)) ->
         let plan =
           {
             Robust.Chaos.alloc_fault_period = Some period;
             failing_sink = false;
             clock_skew = false;
             steal_starve = false;
             cache_corrupt = false;
           }
         in
         let under_plan f =
           Robust.Chaos.with_plan plan (fun () ->
               match f () with
               | r -> Ok r
               | exception Heap.Alloc_failure -> Error ())
         in
         under_plan (fun () -> reference ~fuel e)
         = under_plan (fun () -> prerun ~fuel e)))

let test_chaos_boundary () =
  (* the second allocation is the third step: at fuel 2 the pre-run
     stops there, after consulting the hook, as the reference does *)
  let e = parse "let r = ref 1 in ref 2" in
  let calls = ref 0 in
  let count engine =
    calls := 0;
    Heap.set_alloc_fault (fun _ ->
        incr calls;
        false);
    Fun.protect ~finally:Heap.clear_alloc_fault (fun () ->
        let r = engine ~fuel:2 e in
        (r, !calls))
  in
  Alcotest.(check (pair (option int) int)) "hook calls at exhausted fuel"
    (count (fun ~fuel e -> reference ~fuel e))
    (count (fun ~fuel e -> prerun ~fuel e));
  Alcotest.(check (pair (option int) int)) "two calls, no count" (None, 2)
    (count (fun ~fuel e -> prerun ~fuel e))

(* ---------- deterministic allocation gate ---------- *)

(* Minor words per step at fuel 10⁶ on the three loop shapes.  The
   substitution machine allocates 12, 18.5 and 18.5; the environment
   machine allocates one β frame (4 words) per call and one boxed
   integer (2 words) per arithmetic step. *)
let test_words_per_step () =
  let words src fuel =
    let c = Machine.config (parse src) in
    let w0 = Gc.minor_words () in
    let r = Machine.steps_to_value ~fuel c in
    (r, Gc.minor_words () -. w0)
  in
  List.iter
    (fun src ->
      (* the run at fuel 0 is the per-call set-up: compiling the program *)
      let _, setup = words src 0 in
      let r, total = words src 1_000_000 in
      Alcotest.(check (option int)) (src ^ " diverges") None r;
      let per_step = (total -. setup) /. 1e6 in
      if per_step > 4.0 then
        Alcotest.failf "%s: %.3f words per step (gate: 4)" src per_step)
    [ "(rec f n. f n) 0"; "(rec f n. f (n + 1)) 0"; "(rec f n. f (n - 1)) 0" ]

let suite =
  [
    differential;
    mid_run;
    Alcotest.test_case "pinned: binders, literals, stuck redexes" `Quick
      test_pinned;
    Alcotest.test_case "heap with closures and locations" `Quick
      test_heap_with_closures;
    chaos_same_allocation;
    Alcotest.test_case "alloc fault at the fuel boundary" `Quick
      test_chaos_boundary;
    Alcotest.test_case "≤ 4 words per step on the loop shapes" `Quick
      test_words_per_step;
  ]
