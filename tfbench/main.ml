(* The benchmark's OCaml half, driven by run.py:

     main.exe gen --workload W --seed N --out DIR
       write the workload's programs into DIR and its requests, with
       their answers, to DIR/manifest.jsonl

     main.exe env
       print the OCaml version and Domain.recommended_domain_count

     main.exe trace --manifest FILE [--cache DIR] [--ledger FILE]
                    [--spans FILE] [--untraced]
       execute every request in-process (see Pipeline) and print one
       JSON object: per-request exit code and stdout, per-layer self
       time and allocation, and the layers' counts *)

open Tfbench
module Json = Tfiris.Obs.Json

let gen workload seed out =
  let reqs = Gen.generate ~workload ~seed ~dir:out in
  Gen.write_manifest (Filename.concat out "manifest.jsonl") reqs;
  Printf.printf "%d requests\n" (List.length reqs)

let trace manifest cache ledger spans traced =
  let reqs = Gen.read_manifest manifest in
  let r = Pipeline.run ~traced ~cache ~ledger reqs in
  Option.iter Spans.write spans;
  let c = r.Pipeline.c in
  let layers =
    List.filter_map
      (fun (name, (l : Spans.layer)) ->
        (* root spans are named after the command; only layer calls
           (dotted names) are layers *)
        if String.contains name '.' then
          Some
            ( name,
              Json.Obj
                [
                  ("ms", Json.Float (l.Spans.self_s *. 1000.));
                  ("alloc_kwords", Json.Float (float_of_int l.Spans.alloc_w /. 1000.));
                  ("calls", Json.Int l.Spans.calls);
                ] )
        else None)
      (Spans.by_layer ())
  in
  let counts =
    [
      ("parser_bytes", c.Pipeline.parser_bytes);
      ("hits", c.Pipeline.hits);
      ("misses", c.Pipeline.misses);
      ("ledger_records", c.Pipeline.ledger_records);
      ("interp_steps", c.Pipeline.interp_steps);
      ("wp_steps", c.Pipeline.wp_steps);
      ("driver_steps", c.Pipeline.driver_steps);
      ("chops", c.Pipeline.chops);
      ("successors", c.Pipeline.successors);
      ("states", c.Pipeline.states);
      ("steals", c.Pipeline.steals);
      ("ordinal_ops", r.Pipeline.ordinal_ops);
      ("symheap_exact", r.Pipeline.exact);
      ("symheap_summaries", r.Pipeline.summaries);
    ]
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("wall_s", Json.Float r.Pipeline.wall_s);
            ( "outcomes",
              Json.List
                (List.map
                   (fun (id, (o : Pipeline.outcome)) ->
                     Json.Obj
                       [
                         ("id", Json.Str id);
                         ("exit", Json.Int o.Pipeline.exit_code);
                         ("stdout", Json.Str o.Pipeline.stdout);
                       ])
                   r.Pipeline.outcomes) );
            ("layers", Json.Obj layers);
            ("counts", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) counts));
            ( "dequeued",
              Json.List (Array.to_list (Array.map (fun n -> Json.Int n) c.Pipeline.dequeued)) );
          ]))

let () =
  let usage = "main.exe (env|gen|trace) [options]" in
  let workload = ref "" and seed = ref 0 and out = ref "" in
  let manifest = ref "" and cache = ref "" and ledger = ref "" and spans = ref "" in
  let untraced = ref false in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "W workload name");
      ("--seed", Arg.Set_int seed, "N seed");
      ("--out", Arg.Set_string out, "DIR output directory");
      ("--manifest", Arg.Set_string manifest, "FILE request manifest");
      ("--cache", Arg.Set_string cache, "DIR certificate cache");
      ("--ledger", Arg.Set_string ledger, "FILE run ledger");
      ("--spans", Arg.Set_string spans, "FILE write the spans here");
      ("--untraced", Arg.Set untraced, " no spans, no metrics");
    ]
  in
  let cmd = ref "" in
  Arg.parse specs (fun a -> cmd := a) usage;
  let opt s = if s = "" then None else Some s in
  match !cmd with
  | "env" ->
    print_endline
      (Json.to_string
         (Json.Obj
            [
              ("ocaml", Json.Str Sys.ocaml_version);
              ("recommended_domains", Json.Int (Domain.recommended_domain_count ()));
            ]))
  | "gen" when List.mem !workload Gen.workloads && !out <> "" -> gen !workload !seed !out
  | "trace" when !manifest <> "" ->
    trace !manifest (opt !cache) (opt !ledger) (opt !spans) (not !untraced)
  | _ ->
    prerr_endline usage;
    exit 2
