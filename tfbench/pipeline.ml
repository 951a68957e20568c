(* The traced in-process run: each benchmark request executed by calling
   the public library functions the [tfiris] CLI calls for it, in the
   same order, with a span around each layer call.  The CLI's own
   glue (argument parsing, printing) is reproduced only as far as the
   request's stdout and exit code, which the driver compares with the
   subprocess run of the same request: the layer numbers must describe
   the same work as the end-to-end numbers.

   Layers (span names): shl.parser, obs.content_key,
   obs.certcache.find, obs.certcache.store, obs.ledger.append,
   shl.interp.exec, analysis.<pass>, termination.wp,
   refinement.driver, transition.hydra, shl.conc.explore. *)

open Tfiris
module Json = Obs.Json
module An = Analysis.Analyzer
module F = Analysis.Finding
module Budget = Robust.Budget

let span = Spans.with_span

(* the CLI's defaults for the flags the benchmark never passes *)
let fuel = 10_000_000

type counts = {
  mutable parser_bytes : int;
  mutable hits : int;
  mutable misses : int;
  mutable ledger_records : int;
  mutable interp_steps : int;
  mutable wp_steps : int;
  mutable driver_steps : int;
  mutable chops : int;
  mutable successors : int;
  mutable states : int;
  mutable steals : int;
  mutable dequeued : int array;  (** per worker index, summed over runs *)
  mutable analyzed : Shl.Ast.expr list;  (** programs the symheap pass ran on *)
}

let counts () =
  {
    parser_bytes = 0;
    hits = 0;
    misses = 0;
    ledger_records = 0;
    interp_steps = 0;
    wp_steps = 0;
    driver_steps = 0;
    chops = 0;
    successors = 0;
    states = 0;
    steals = 0;
    dequeued = [||];
    analyzed = [];
  }

type env = {
  cache : Obs.Certcache.t option;
  ledger : string option;
  c : counts;
}

type outcome = { exit_code : int; stdout : string }

exception Request_error of string

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let parse env src =
  env.c.parser_bytes <- env.c.parser_bytes + String.length src;
  match span "shl.parser" (fun () -> Shl.Parser.parse src) with
  | Ok e -> e
  | Error m -> raise (Request_error m)

let content_key ~program ~spec ~engine =
  Obs.Ledger.content_key ~program ~spec ~engine ~version:Tfiris.version

let find env ~key ~validate =
  match env.cache with
  | None -> None
  | Some t ->
    let r = span "obs.certcache.find" (fun () -> Obs.Certcache.find t ~key ~validate) in
    (match r with
    | Some _ -> env.c.hits <- env.c.hits + 1
    | None -> env.c.misses <- env.c.misses + 1);
    r

let store env ~key ~cmd ~label ~engine ~verdict ~ok ?detail ~consumed () =
  match env.cache with
  | None -> ()
  | Some t ->
    span "obs.certcache.store" (fun () ->
        ignore
          (Obs.Certcache.store t
             {
               Obs.Certcache.key;
               cmd;
               label;
               engine;
               version = Tfiris.version;
               verdict;
               ok;
               detail;
               consumed;
               replay = None;
             }
            : bool))

(* The CLI samples the GC once at start-up and reports the delta in
   each ledger record; [gc0] plays that part for the whole run. *)
let gc0 = Obs.Telemetry.sample ()

let append env ~key ~cmd ~label ~engine ~verdict ~ok ?detail ~consumed
    ~cached ~t0 () =
  match env.ledger with
  | None -> ()
  | Some path ->
    env.c.ledger_records <- env.c.ledger_records + 1;
    span "obs.ledger.append" (fun () ->
        Obs.Ledger.append ~path
          {
            Obs.Ledger.key;
            cmd;
            label;
            engine;
            version = Tfiris.version;
            verdict;
            ok;
            detail;
            budget = None;
            consumed;
            cached;
            mem =
              Some
                (Obs.Telemetry.measure ~before:gc0
                   ~after:(Obs.Telemetry.sample ()));
            wall_ms = (Unix.gettimeofday () -. t0) *. 1000.;
            seed = None;
            domains = None;
            metrics = None;
            forensics = None;
          })

(* ---------- run FILE ---------- *)

let run_seq env file =
  let e = parse env (read_file file) in
  let t0 = Unix.gettimeofday () in
  let engine = "shl.machine" in
  let key =
    span "obs.content_key" (fun () ->
        content_key ~program:(Shl.Pretty.expr_to_string e) ~spec:"" ~engine)
  in
  let finish ~verdict ~ok ?detail ~consumed ~cached code stdout =
    append env ~key ~cmd:"run" ~label:file ~engine ~verdict ~ok ?detail
      ~consumed ~cached ~t0 ();
    { exit_code = code; stdout }
  in
  match find env ~key ~validate:(fun c -> c.Obs.Certcache.cmd = "run") with
  | Some c ->
    let stdout =
      match (c.Obs.Certcache.verdict, c.Obs.Certcache.detail) with
      | "value", Some v -> v ^ "\n"
      | _ -> ""
    in
    finish ~verdict:c.Obs.Certcache.verdict ~ok:c.Obs.Certcache.ok
      ?detail:c.Obs.Certcache.detail ~consumed:c.Obs.Certcache.consumed
      ~cached:true
      (if c.Obs.Certcache.ok then 0 else 1)
      stdout
  | None ->
    let outcome, st = span "shl.interp.exec" (fun () -> Shl.Interp.exec ~fuel e) in
    env.c.interp_steps <- env.c.interp_steps + st.Shl.Interp.steps;
    let consumed = [ ("steps", st.Shl.Interp.steps) ] in
    let verdict, ok, detail, code, stdout =
      match outcome with
      | Shl.Interp.Value (v, _) ->
        let s = Shl.Pretty.value_to_string v in
        ("value", true, Some s, 0, s ^ "\n")
      | Shl.Interp.Stuck (_, redex) ->
        ("stuck", false, Some (Shl.Pretty.expr_to_string redex), 1, "")
      | Shl.Interp.Out_of_fuel (r, _) ->
        ("out_of_fuel:" ^ Budget.resource_name r, false, None, 1, "")
    in
    store env ~key ~cmd:"run" ~label:file ~engine ~verdict ~ok ?detail
      ~consumed ();
    finish ~verdict ~ok ?detail ~consumed ~cached:false code stdout

(* ---------- run --domains=N FILE ---------- *)

let run_explore env ~domains file =
  let e = parse env (read_file file) in
  let r =
    span "shl.conc.explore" (fun () ->
        Shl.Conc.explore ~budget:(Budget.of_steps fuel) ~domains
          (Shl.Conc.init e))
  in
  let c = env.c in
  c.states <- c.states + r.Shl.Conc.states;
  List.iter
    (fun w ->
      let i = w.Shl.Conc.w_domain in
      if i >= Array.length c.dequeued then
        c.dequeued <-
          Array.append c.dequeued (Array.make (i + 1 - Array.length c.dequeued) 0);
      c.dequeued.(i) <- c.dequeued.(i) + w.Shl.Conc.w_dequeued;
      c.steals <- c.steals + w.Shl.Conc.w_stolen)
    r.Shl.Conc.workers;
  let finals =
    List.sort compare
      (List.map (fun (v, _) -> Shl.Pretty.value_to_string v) r.Shl.Conc.final_values)
  in
  let stdout =
    String.concat "" (List.map (fun v -> "final: " ^ v ^ "\n") finals)
    ^ Printf.sprintf "states: %d\n" r.Shl.Conc.states
  in
  let ok = r.Shl.Conc.exhausted = None && r.Shl.Conc.stuck = [] in
  { exit_code = (if ok then 0 else 1); stdout }

(* ---------- analyze --format=json-stable FILES ---------- *)

(* The analyzer records each pass's wall time in a metrics histogram
   when the registry is on, and what that allocates depends on the time
   observed.  The CLI runs with the registry off; so do the passes
   here, which keeps their allocation counts repeatable.  (No pass
   touches the ordinal counters the registry is on for.) *)
let without_metrics f =
  let on = Obs.Metrics.on () in
  Obs.Metrics.set_enabled false;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled on) f

let sev_key s = "sev." ^ F.severity_to_string s
let severities = F.[ Info; Warning; Error ]

let analyze env files =
  let parsed = List.map (fun f -> (f, parse env (read_file f))) files in
  let t0 = Unix.gettimeofday () in
  let label = String.concat "," files in
  let spec = String.concat "," An.pass_names in
  let key =
    span "obs.content_key" (fun () ->
        let program =
          String.concat "\x00"
            (List.map (fun (_, e) -> Shl.Pretty.expr_to_string e) parsed)
        in
        content_key ~program ~spec ~engine:"analysis")
  in
  let validate (c : Obs.Certcache.cert) =
    c.Obs.Certcache.cmd = "analyze"
    && List.for_all
         (fun s -> List.mem_assoc (sev_key s) c.Obs.Certcache.consumed)
         severities
  in
  match find env ~key ~validate with
  | Some c ->
    let ok = List.assoc_opt (sev_key F.Error) c.Obs.Certcache.consumed = Some 0 in
    append env ~key ~cmd:"analyze" ~label ~engine:"analysis"
      ~verdict:c.Obs.Certcache.verdict ~ok ~consumed:c.Obs.Certcache.consumed
      ~cached:true ~t0 ();
    {
      exit_code = (if ok then 0 else 1);
      stdout =
        (match c.Obs.Certcache.detail with Some d -> d ^ "\n" | None -> "");
    }
  | None ->
    (* one [Analyzer.analyze ~passes:[p]] call per pass, so each pass is
       its own span; the merged report is what the all-passes call
       returns (findings deduplicated and sorted the same way) *)
    let reports =
      List.map
        (fun (label, e) ->
          let parts =
            List.map
              (fun p ->
                span ("analysis." ^ p) (fun () ->
                    without_metrics (fun () -> An.analyze ~passes:[ p ] ~label e)))
              An.pass_names
          in
          {
            An.label;
            timings = List.concat_map (fun r -> r.An.timings) parts;
            findings =
              List.sort_uniq F.compare (List.concat_map (fun r -> r.An.findings) parts);
          })
        parsed
    in
    env.c.analyzed <- List.map snd parsed @ env.c.analyzed;
    let stable =
      Json.to_string (Json.List (List.map An.report_to_json_stable reports))
    in
    let code =
      if List.exists (fun r -> An.fails ~fail_on:F.Error r) reports then 1 else 0
    in
    let all = List.concat_map (fun r -> r.An.findings) reports in
    let total = List.length all in
    let per_pass =
      List.map
        (fun p ->
          ( "pass." ^ p,
            List.fold_left
              (fun acc r ->
                List.fold_left
                  (fun acc t -> if t.An.t_pass = p then acc + t.An.t_found else acc)
                  acc r.An.timings)
              0 reports ))
        An.pass_names
    in
    let consumed =
      ("findings", total)
      :: List.map (fun s -> (sev_key s, F.count_severity all s)) severities
      @ per_pass
    in
    let verdict = if total = 0 then "clean" else Printf.sprintf "findings:%d" total in
    store env ~key ~cmd:"analyze" ~label ~engine:"analysis" ~verdict
      ~ok:(code = 0) ~detail:stable ~consumed ();
    append env ~key ~cmd:"analyze" ~label ~engine:"analysis" ~verdict
      ~ok:(code = 0) ~consumed ~cached:false ~t0 ();
    { exit_code = code; stdout = stable ^ "\n" }

(* ---------- check-term -e SRC --credits C ---------- *)

let parse_credit = function
  | "w" -> Ord.omega
  | "w^2" -> Ord.omega_pow Ord.two
  | s -> (
    match int_of_string_opt s with
    | Some n -> Ord.of_int n
    | None -> raise (Request_error ("credit " ^ s)))

let check_term env src credit =
  let e = parse env src in
  let credits = parse_credit credit in
  (* the CLI prints the program for its content key whether or not a
     cache or ledger is given; without them there is no digest *)
  ignore (span "obs.content_key" (fun () -> Shl.Pretty.expr_to_string e));
  let v =
    span "termination.wp" (fun () ->
        Termination.Wp.run ~credits (Termination.Wp.adaptive ()) (Shl.Step.config e))
  in
  let ok, st =
    match v with
    | Termination.Wp.Terminated (_, _, st) -> (true, st)
    | Termination.Wp.Rejected (_, st) -> (false, st)
  in
  env.c.wp_steps <- env.c.wp_steps + st.Termination.Wp.steps;
  {
    exit_code = (if ok then 0 else 1);
    stdout = Format.asprintf "%a\n" Termination.Wp.pp_verdict v;
  }

(* ---------- refine --target T --source S ---------- *)

let refine env target source =
  let t = parse env target in
  let s = parse env source in
  let tc = Shl.Step.config t and sc = Shl.Step.config s in
  ignore
    (span "obs.content_key" (fun () ->
         (Shl.Pretty.expr_to_string t, Shl.Pretty.expr_to_string s)));
  let module D = Refinement.Driver in
  let preamble, v =
    span "refinement.driver" (fun () ->
        match Refinement.Strategy.oracle ~fuel ~target:tc ~source:sc () with
        | Some strat -> ("", D.run ~fuel ~target:tc ~source:sc strat)
        | None ->
          ( "(no oracle certificate; lockstep attempt)\n",
            D.run ~fuel ~target:tc ~source:sc Refinement.Strategy.lockstep ))
  in
  let st, code =
    match v with D.Accepted (_, st) -> (st, 0) | D.Rejected (_, st) -> (st, 1)
  in
  env.c.driver_steps <-
    env.c.driver_steps + st.D.target_steps + st.D.source_steps;
  { exit_code = code; stdout = preamble ^ Format.asprintf "%a\n" D.pp_verdict v }

(* ---------- hydra --width=W --depth=D --regrow=R [--adversarial] ---------- *)

let hydra env ~width ~depth ~regrow ~adversarial =
  let c = env.c in
  let counted choose l =
    c.successors <- c.successors + List.length l;
    choose l
  in
  span "transition.hydra" (fun () ->
      let h = Hydra.bush ~width ~depth in
      let head = Format.asprintf "hydra: %a\nmeasure: %a\n" Hydra.pp h Ord.pp (Hydra.measure h) in
      let choose = if adversarial then Hydra.choose_fattest else Hydra.choose_first in
      match Hydra.play ~regrow ~choose:(counted choose) h with
      | Ok chops ->
        c.chops <- c.chops + chops;
        {
          exit_code = 0;
          stdout =
            head
            ^ Printf.sprintf "dead after %d chops (regrow %d, %s Hercules)\n" chops
                regrow
                (if adversarial then "adversarial" else "greedy");
        }
      | Error _ -> { exit_code = 1; stdout = head })

(* ---------- dispatch on the request's argv ---------- *)

let int_flag name arg =
  let p = "--" ^ name ^ "=" in
  if String.starts_with ~prefix:p arg then
    int_of_string_opt (String.sub arg (String.length p) (String.length arg - String.length p))
  else None

let execute env (argv : string list) : outcome =
  match argv with
  | [ "run"; file ] -> run_seq env file
  | [ "run"; d; file ] when int_flag "domains" d <> None ->
    run_explore env ~domains:(Option.get (int_flag "domains" d)) file
  | "analyze" :: "--format=json-stable" :: files -> analyze env files
  | [ "check-term"; "-e"; src; "--credits"; credit ] -> check_term env src credit
  | [ "refine"; "--target"; t; "--source"; s ] -> refine env t s
  | "hydra" :: w :: d :: r :: rest -> (
    match (int_flag "width" w, int_flag "depth" d, int_flag "regrow" r, rest) with
    | Some width, Some depth, Some regrow, ([] | [ "--adversarial" ]) ->
      hydra env ~width ~depth ~regrow ~adversarial:(rest <> [])
    | _ -> raise (Request_error "bad hydra argv"))
  | _ -> raise (Request_error ("unsupported argv: " ^ String.concat " " argv))

(* ---------- a whole run ---------- *)

type result = {
  outcomes : (string * outcome) list;
  wall_s : float;  (** the timed loop only *)
  c : counts;
  ordinal_ops : int;
  exact : int;  (** exact symheap summaries over the analyzed programs *)
  summaries : int;
}

let cmd_name (r : Gen.request) =
  match r.Gen.argv with
  | "run" :: _ :: _ :: _ -> "explore"
  | cmd :: _ -> cmd
  | [] -> "request"

(** Execute every request once.  With [traced], spans are recorded and
    the library's metrics registry is on (for the ordinal counters);
    without, the loop is bare, which gives the tracing overhead. *)
let run ~traced ~cache ~ledger (reqs : Gen.request list) : result =
  Spans.reset ();
  Spans.enabled := traced;
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled traced;
  let env = { cache = Option.map (fun dir -> Obs.Certcache.open_ ~dir) cache; ledger; c = counts () } in
  let t0 = Unix.gettimeofday () in
  let outcomes =
    List.map
      (fun (r : Gen.request) ->
        let o =
          try Spans.with_request ~id:r.Gen.id ~name:(cmd_name r) (fun () -> execute env r.Gen.argv)
          with Request_error m | Failure m | Sys_error m ->
            { exit_code = 2; stdout = "error: " ^ m }
        in
        (r.Gen.id, o))
      reqs
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  Spans.enabled := false;
  let ordinal_ops =
    Obs.Metrics.sum_counters (Obs.Metrics.snapshot ()) ~prefix:"ordinal."
  in
  Obs.Metrics.set_enabled false;
  (* exactness of the symheap summaries, outside the timed loop: the
     summaries are recomputed, which would otherwise double the pass *)
  let exact, summaries =
    List.fold_left
      (fun (ex, n) e ->
        let ss = Analysis.Biabd.summaries e in
        ( ex + List.length (List.filter (fun s -> s.Analysis.Biabd.s_exact) ss),
          n + List.length ss ))
      (0, 0)
      (if traced then env.c.analyzed else [])
  in
  { outcomes; wall_s; c = env.c; ordinal_ops; exact; summaries }
