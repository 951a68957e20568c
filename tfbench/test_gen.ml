(* The generator's answers, checked against independent references for
   a few seeds: every sequential program's expected value against the
   reference stepper Shl.Step (not the frame-stack machine the CLI
   runs), every defect program against Shl.Step getting stuck, and the
   closed forms for hydra, Ackermann and Fibonacci against direct
   computation.  Run from the build directory's root so the committed
   examples are where the generator looks for them. *)

open Tfiris
module Gen = Tfbench.Gen

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL: %s\n" what
  end

(* Shl.Step to a value or a stuck redex, with a step cap as a guard. *)
let reference src =
  match Shl.Parser.parse src with
  | Error m -> `Parse_error m
  | Ok e ->
    let rec go cfg n =
      if n = 0 then `Out_of_steps
      else
        match Shl.Step.prim_step cfg with
        | Error Shl.Step.Finished -> (
          match cfg.Shl.Step.expr with
          | Shl.Ast.Val v -> `Value (Shl.Pretty.value_to_string v)
          | _ -> `Stuck)
        | Error (Shl.Step.Stuck _) -> `Stuck
        | Ok (cfg', _) -> go cfg' (n - 1)
    in
    go (Shl.Step.config e) 10_000_000

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let check_workload ~workload ~seed =
  let dir = Filename.temp_dir ~temp_dir:(Sys.getcwd ()) "tfbench-" "" in
  let reqs = Gen.generate ~workload ~seed ~dir in
  let manifest = Filename.concat dir "manifest.jsonl" in
  Gen.write_manifest manifest reqs;
  check
    (Printf.sprintf "%s/%d: manifest round-trip" workload seed)
    (Gen.read_manifest manifest = reqs);
  check
    (Printf.sprintf "%s/%d: argv distinct" workload seed)
    (workload = "search"
    || List.length (List.sort_uniq compare (List.map (fun r -> r.Gen.argv) reqs))
       = List.length reqs);
  let programs = ref [] in
  List.iter
    (fun (r : Gen.request) ->
      match r.Gen.argv with
      | [ "run"; file ] -> (
        let src = read_file file in
        programs := src :: !programs;
        let what = Printf.sprintf "%s/%d %s (%s)" workload seed r.Gen.id r.Gen.family in
        match (r.Gen.value, reference src) with
        | Some v, `Value v' -> check (what ^ ": value " ^ v ^ " vs " ^ v') (v = v')
        | None, `Stuck -> ()
        | _ -> check (what ^ ": reference disagrees") false)
      | _ -> ())
    reqs;
  check
    (Printf.sprintf "%s/%d: programs distinct" workload seed)
    (List.length (List.sort_uniq compare !programs) = List.length !programs);
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir;
  List.length reqs

let () =
  (* the test runs in the build tree's copy of this directory; the
     generator lists examples/shl relative to the project root *)
  Sys.chdir "..";
  List.iter
    (fun seed ->
      List.iter
        (fun workload ->
          let n = check_workload ~workload ~seed in
          check (Printf.sprintf "%s/%d: size" workload seed) (n >= 40))
        [ "corpus-cold"; "search" ])
    [ 1; 2; 3 ];
  for width = 2 to 3 do
    for regrow = 1 to 3 do
      check
        (Printf.sprintf "hydra %dx2 regrow %d" width regrow)
        (Hydra.play ~regrow ~choose:Hydra.choose_first (Hydra.bush ~width ~depth:2)
        = Ok (Gen.hydra_chops ~width ~regrow))
    done
  done;
  let rec ack m n =
    if m = 0 then n + 1 else if n = 0 then ack (m - 1) 1 else ack (m - 1) (ack m (n - 1))
  in
  for m = 0 to 3 do
    for n = 0 to 4 do
      check (Printf.sprintf "ackermann %d %d" m n) (Gen.ackermann m n = ack m n)
    done
  done;
  let rec fib n = if n < 2 then n else fib (n - 1) + fib (n - 2) in
  for n = 0 to 20 do
    check (Printf.sprintf "fib %d" n) (Gen.fib n = fib n)
  done;
  if !failures > 0 then exit 1;
  print_endline "tfbench generator: all answers agree with the references"
