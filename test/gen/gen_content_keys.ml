(* Regenerates test/content_keys.golden — the committed byte-stability
   witness for Ledger.content_key over the example corpus.

     dune exec test/gen/gen_content_keys.exe -- examples/shl \
       > test/content_keys.golden

   Only regenerate after an intentional corpus, pretty-printer, or key
   schema change; the diff is the review surface.  Each key is the one
   the CLI writes to --ledger for that subcommand on that file. *)

open Tfiris

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "examples/shl" in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".shl")
    |> List.sort compare
  in
  List.iter
    (fun f ->
      let e = Shl.Parser.parse_exn (read_file (Filename.concat dir f)) in
      (* the requests `run FILE`, `analyze FILE` and `check-term FILE`
         send, keyed by the pipeline's own request-to-key function *)
      List.iter
        (fun (cmd, key) -> Printf.printf "%s  %s %s\n" key f cmd)
        [
          ("run", Verdict.key (Verdict.run ~label:f ~engine:`Machine ~stats:false e));
          ( "analyze",
            Verdict.key
              (Verdict.analyze ~format:`Text ~fail_on:Analysis.Finding.Error
                 ~passes:Analysis.Analyzer.pass_names ~timings:false
                 ~domains:None [ (f, e) ]) );
          ( "check-term",
            Verdict.key
              (Verdict.check_term ~label:f ~explain:false ~credits:Ord.omega e) );
        ])
    files
