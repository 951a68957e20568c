(* Obs.Profile: folding span streams into call trees — exact arithmetic
   on synthetic streams, robustness to truncation, the collapsed-stack
   renderer, and the conservation property (Σ self = root cumulative) on
   a real driver run. *)

open Tfiris
module Trace = Obs.Trace
module Profile = Obs.Profile
module Json = Obs.Json

(* Synthetic events; [of_events] ignores depth and attrs. *)
let ev name phase ts =
  Trace.{ name; phase; ts_ns = Int64.of_int ts; depth = 0; dom = 0; attrs = [] }

let b name ts = ev name Trace.Span_begin ts
let e name ts = ev name Trace.Span_end ts
let i name ts = ev name Trace.Instant ts

(* a spans [0,100]; b runs twice inside it: [10,30] and [40,50]. *)
let nested_events =
  [ b "a" 0; b "b" 10; e "b" 30; b "b" 40; e "b" 50; e "a" 100 ]

let test_nested_arithmetic () =
  let p = Profile.of_events nested_events in
  Alcotest.(check int64) "root cum = whole interval" 100L (Profile.total_ns p);
  Alcotest.(check bool) "consistent" true (Profile.consistent p);
  Alcotest.(check int64) "Σ self = total" 100L (Profile.sum_self p);
  Alcotest.(check int) "node count" 3 (Profile.node_count p);
  (match Profile.find p [ "a" ] with
  | None -> Alcotest.fail "node a missing"
  | Some a ->
    Alcotest.(check int) "a calls" 1 a.Profile.p_calls;
    Alcotest.(check int64) "a cum" 100L a.Profile.p_cum_ns;
    Alcotest.(check int64) "a self = cum - children" 70L a.Profile.p_self_ns);
  match Profile.find p [ "a"; "b" ] with
  | None -> Alcotest.fail "node a;b missing"
  | Some node ->
    Alcotest.(check int) "b calls merged" 2 node.Profile.p_calls;
    Alcotest.(check int64) "b cum = 20 + 10" 30L node.Profile.p_cum_ns;
    Alcotest.(check int64) "b self (leaf)" 30L node.Profile.p_self_ns

let test_siblings_hottest_first () =
  (* x twice (10ns each), y once (50ns): y must sort first. *)
  let p =
    Profile.of_events
      [ b "x" 0; e "x" 10; b "y" 10; e "y" 60; b "x" 60; e "x" 70 ]
  in
  let names = List.map (fun k -> k.Profile.p_name) p.Profile.p_children in
  Alcotest.(check (list string)) "hottest first" [ "y"; "x" ] names;
  (match Profile.find p [ "x" ] with
  | Some x -> Alcotest.(check int) "x calls merged" 2 x.Profile.p_calls
  | None -> Alcotest.fail "x missing");
  Alcotest.(check int64) "Σ self = total" 70L (Profile.sum_self p)

let test_truncated_head () =
  (* An end with no matching begin (the ring dropped the front) is
     ignored; the interval still spans all timestamps seen. *)
  let p = Profile.of_events [ e "ghost" 5; b "a" 10; e "a" 20 ] in
  Alcotest.(check int64) "interval spans first ts" 15L (Profile.total_ns p);
  Alcotest.(check bool) "no ghost node" true (Profile.find p [ "ghost" ] = None);
  (match Profile.find p [ "a" ] with
  | Some a -> Alcotest.(check int64) "a unaffected" 10L a.Profile.p_cum_ns
  | None -> Alcotest.fail "a missing");
  Alcotest.(check bool) "consistent" true (Profile.consistent p);
  Alcotest.(check int64) "Σ self = total" 15L (Profile.sum_self p)

let test_truncated_tail () =
  (* Spans still open at stream end close at the last timestamp. *)
  let p = Profile.of_events [ b "a" 0; b "inner" 10; i "tick" 25 ] in
  Alcotest.(check int64) "root cum" 25L (Profile.total_ns p);
  (match Profile.find p [ "a" ] with
  | Some a -> Alcotest.(check int64) "a closed at last ts" 25L a.Profile.p_cum_ns
  | None -> Alcotest.fail "a missing");
  (match Profile.find p [ "a"; "inner" ] with
  | Some n -> Alcotest.(check int64) "inner closed too" 15L n.Profile.p_cum_ns
  | None -> Alcotest.fail "inner missing");
  Alcotest.(check bool) "consistent" true (Profile.consistent p);
  Alcotest.(check int64) "Σ self = total" 25L (Profile.sum_self p)

let test_zero_duration_span () =
  let p = Profile.of_events [ b "z" 10; e "z" 10 ] in
  (match Profile.find p [ "z" ] with
  | Some z ->
    Alcotest.(check int) "call recorded" 1 z.Profile.p_calls;
    Alcotest.(check int64) "zero cum" 0L z.Profile.p_cum_ns
  | None -> Alcotest.fail "z missing");
  Alcotest.(check bool)
    "no collapsed line for zero self" true
    (Profile.to_collapsed p = [])

let test_collapsed_golden () =
  let p = Profile.of_events nested_events in
  Alcotest.(check (list (pair string int64)))
    "collapsed stacks"
    [ ("(root);a", 70L); ("(root);a;b", 30L) ]
    (Profile.to_collapsed p);
  let rendered = Format.asprintf "%a" Profile.render_collapsed p in
  Alcotest.(check string) "rendered form"
    "(root);a 70\n(root);a;b 30\n" rendered

let test_jsonl_reparse () =
  (* The JSONL lines a sink would write, plus noise the reader must
     skip, reproduce the profile of the in-memory stream. *)
  let lines =
    List.map (fun ev -> Json.to_string (Trace.json_of_event ev)) nested_events
  in
  let lines = [ ""; "not json" ] @ lines @ [ "{\"no\":\"event\"}" ] in
  let p = Profile.of_events (Profile.events_of_jsonl_lines lines) in
  Alcotest.(check int64) "same total" 100L (Profile.total_ns p);
  Alcotest.(check (list (pair string int64)))
    "same collapsed stacks"
    [ ("(root);a", 70L); ("(root);a;b", 30L) ]
    (Profile.to_collapsed p)

let test_render_tree () =
  let p = Profile.of_events nested_events in
  let full = Format.asprintf "%a" (Profile.render_tree ?max_depth:None) p in
  Alcotest.(check bool) "header present" true
    (String.length full > 0
    && String.sub full 0 10 = Printf.sprintf "%10s" "cum(ms)");
  let count_lines s =
    String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 s
  in
  Alcotest.(check int) "header + 3 nodes" 4 (count_lines full);
  let shallow = Format.asprintf "%a" (Profile.render_tree ~max_depth:0) p in
  Alcotest.(check int) "max_depth=0 shows only the root" 2
    (count_lines shallow)

(* The acceptance run: profile a real refinement game (the memoized
   Fibonacci spec) and check the conservation property plus the spans
   the driver is known to emit. *)
let test_profile_driver_run () =
  let sink, contents = Trace.memory_sink ~capacity:65536 () in
  let prev = Trace.install sink in
  let v =
    Fun.protect
      ~finally:(fun () -> Trace.restore prev)
      (fun () -> Refinement.Memo_spec.certify (Refinement.Memo_spec.fib_instance 5))
  in
  (match v with
  | Some (Refinement.Driver.Accepted _) -> ()
  | Some v -> Alcotest.failf "memo-fib run: %a" Refinement.Driver.pp_verdict v
  | None -> Alcotest.fail "memo-fib run: no oracle certificate");
  let p = Profile.of_events (contents ()) in
  Alcotest.(check bool) "non-empty collapsed profile" true
    (Profile.to_collapsed p <> []);
  Alcotest.(check bool) "consistent" true (Profile.consistent p);
  Alcotest.(check int64) "Σ self = wall time" (Profile.total_ns p)
    (Profile.sum_self p);
  match Profile.find p [ "driver.run" ] with
  | None -> Alcotest.fail "driver.run span missing"
  | Some run -> (
    Alcotest.(check bool) "driver.run has positive time" true
      (Int64.compare run.Profile.p_cum_ns 0L >= 0);
    match Profile.find p [ "driver.run"; "driver.decide" ] with
    | None -> Alcotest.fail "driver.decide spans missing under driver.run"
    | Some d ->
      Alcotest.(check bool) "one decision per target step" true
        (d.Profile.p_calls >= 5))

(* End to end through the binary: `tfiris profile -- run ...` writes a
   collapsed profile containing the interpreter span and forwards the
   child's exit code. *)
let test_cli_profile () =
  let exe = "../bin/tfiris_cli.exe" in
  if not (Sys.file_exists exe) then Alcotest.skip ();
  let collapsed = Filename.temp_file "tfiris_profile" ".collapsed" in
  let cmd =
    Printf.sprintf "%s profile --collapsed=%s -- run -e '1 + 2 * 3' > /dev/null"
      exe (Filename.quote collapsed)
  in
  Alcotest.(check int) "cli exit code" 0 (Sys.command cmd);
  let ic = open_in collapsed in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  Sys.remove collapsed;
  let has_sub sub =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "collapsed file mentions shl.exec" true
    (has_sub "shl.exec");
  (* the child's failure propagates *)
  let bad =
    Printf.sprintf "%s profile -- run -e '1 +' > /dev/null 2>&1" exe
  in
  Alcotest.(check bool) "child failure propagates" true (Sys.command bad <> 0)

(* The symbolic-heap analyzer's spans: profiling `analyze` shows the
   concrete checker and the summary fixpoint (one child per round)
   under the pass span, and the fixpoint's close carries its round
   count — memo_fib's summaries settle in 4 rounds. *)
let test_cli_profile_symheap () =
  let exe = "../bin/tfiris_cli.exe" in
  if not (Sys.file_exists exe) then Alcotest.skip ();
  let collapsed = Filename.temp_file "tfiris_profile" ".collapsed" in
  let cmd =
    Printf.sprintf
      "%s profile --collapsed=%s -- analyze ../examples/shl/memo_fib.shl > \
       /dev/null"
      exe (Filename.quote collapsed)
  in
  Alcotest.(check int) "cli exit code" 0 (Sys.command cmd);
  let ic = open_in collapsed in
  let stacks = ref [] in
  (try
     while true do
       stacks := input_line ic :: !stacks
     done
   with End_of_file -> close_in ic);
  Sys.remove collapsed;
  let has_stack prefix =
    List.exists
      (fun line ->
        String.length line > String.length prefix
        && String.sub line 0 (String.length prefix + 1) = prefix ^ " ")
      !stacks
  in
  List.iter
    (fun stack ->
      Alcotest.(check bool) stack true (has_stack stack))
    [
      "(root);analysis.symheap;biabd.check";
      "(root);analysis.symheap;biabd.fixpoint;biabd.round";
    ];
  let sink, contents = Trace.memory_sink ~capacity:4096 () in
  let prev = Trace.install sink in
  ignore
    (Fun.protect
       ~finally:(fun () -> Trace.restore prev)
       (fun () ->
         Analysis.Biabd.summaries
           (Shl.Parser.parse_exn
              (In_channel.with_open_bin "../examples/shl/memo_fib.shl"
                 In_channel.input_all))));
  let rounds =
    List.filter_map
      (fun (ev : Trace.event) ->
        if ev.Trace.name = "biabd.fixpoint" && ev.Trace.phase = Trace.Span_end
        then List.assoc_opt "rounds" ev.Trace.attrs
        else None)
      (contents ())
  in
  Alcotest.(check bool) "fixpoint span closes with rounds = 4" true
    (rounds = [ Trace.I 4 ])

(* The adaptive strategy's pre-run shows under the credit checker:
   `profile -- check-term` on a diverging loop has the 10⁷-step walk as
   a [machine.prerun] child of [wp.run], and `--metrics` prints the
   steps it walked — with a plain ω credit and with ω+3, whose finite
   part is spent before the pre-run instantiates the limit. *)
let test_cli_profile_prerun () =
  let exe = "../bin/tfiris_cli.exe" in
  if not (Sys.file_exists exe) then Alcotest.skip ();
  let collapsed = Filename.temp_file "tfiris_profile" ".collapsed" in
  let cmd =
    Printf.sprintf
      "%s profile --collapsed=%s -- check-term -e '(rec f n. f n) 0' > \
       /dev/null 2>&1"
      exe (Filename.quote collapsed)
  in
  Alcotest.(check int) "rejected: exit 1 forwarded" 1 (Sys.command cmd);
  let stacks = In_channel.with_open_bin collapsed In_channel.input_lines in
  Sys.remove collapsed;
  Alcotest.(check bool) "machine.prerun under wp.run" true
    (List.exists
       (String.starts_with ~prefix:"(root);wp.run;machine.prerun ")
       stacks);
  List.iter
    (fun credits ->
      let out = Filename.temp_file "tfiris_prerun" ".out" in
      let code =
        Sys.command
          (Printf.sprintf
             "%s check-term --credits=%s --metrics -e '(rec f n. f n) 0' > %s \
              2>&1"
             exe credits (Filename.quote out))
      in
      let lines = In_channel.with_open_bin out In_channel.input_lines in
      Sys.remove out;
      Alcotest.(check int) (credits ^ ": rejected") 1 code;
      Alcotest.(check bool)
        (credits ^ ": 10⁷ pre-run steps")
        true
        (List.exists
           (fun l ->
             match String.split_on_char ' ' l |> List.filter (( <> ) "") with
             | [ "machine.prerun.steps"; n ] -> n = "10000000"
             | _ -> false)
           lines))
    [ "w"; "w+3" ]

let suite =
  [
    Alcotest.test_case "nested span arithmetic" `Quick test_nested_arithmetic;
    Alcotest.test_case "siblings merge, hottest first" `Quick
      test_siblings_hottest_first;
    Alcotest.test_case "truncated head" `Quick test_truncated_head;
    Alcotest.test_case "truncated tail" `Quick test_truncated_tail;
    Alcotest.test_case "zero-duration span" `Quick test_zero_duration_span;
    Alcotest.test_case "collapsed-stack golden" `Quick test_collapsed_golden;
    Alcotest.test_case "jsonl reparse" `Quick test_jsonl_reparse;
    Alcotest.test_case "text tree renderer" `Quick test_render_tree;
    Alcotest.test_case "profile of a driver run" `Quick test_profile_driver_run;
    Alcotest.test_case "cli profile subcommand" `Quick test_cli_profile;
    Alcotest.test_case "cli profile of analyze: symheap spans" `Quick
      test_cli_profile_symheap;
    Alcotest.test_case "cli profile of check-term: pre-run span" `Quick
      test_cli_profile_prerun;
  ]
