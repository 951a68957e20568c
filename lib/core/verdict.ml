(** The verdict pipeline: one path from a CLI request to its printed,
    cached and logged verdict.

    Each verdict-producing subcommand describes itself as a {!request}
    (the texts its content key hashes, the engines it may be keyed
    under, its cache eligibility, a renderer) and {!certify} runs the
    one protocol: key (each at most once, only when a cache or ledger
    needs it) → replay a certificate the request can [decode], or
    [compute] → render → store → one ledger append.  The same renderer
    prints the fresh and the replayed outcome, so a warm run prints
    what a cold run printed.  Output only a fresh computation knows
    (the [--stats] split, a text report, the race oracle) is passed to
    the renderer beside the outcome; requests that ask for it never
    replay. *)

module Json = Tfiris_obs.Json
module Ledger = Tfiris_obs.Ledger
module Certcache = Tfiris_obs.Certcache
module Forensics = Tfiris_obs.Forensics
module Telemetry = Tfiris_obs.Telemetry
module Budget = Tfiris_robust.Budget
module Pretty = Tfiris_shl.Pretty
module Interp = Tfiris_shl.Interp
module Conc = Tfiris_shl.Conc
module An = Tfiris_analysis.Analyzer
module F = Tfiris_analysis.Finding
module Races = Tfiris_analysis.Races
module Chaos = Tfiris_robust_chaos.Chaos

(** The tool version: a content-key component, so a certificate is
    only ever replayed by the version that produced it. *)
let version = "1.0.0"

(* GC baseline for the whole invocation — the run-level [mem] block is
   the delta from here to the moment the ledger record (or the --gc
   report) is assembled. *)
let gc0 = Telemetry.sample ()

let run_mem () = Telemetry.measure ~before:gc0 ~after:(Telemetry.sample ())

(** What a verdict is, fresh or replayed: everything the renderer, the
    certificate and the ledger record need. *)
type outcome = {
  engine : string;  (** the engine id the verdict is keyed under *)
  verdict : string;
  ok : bool;  (** exit 0; otherwise 2 for ["disagree"], else 1 *)
  detail : string option;
      (** what the renderer prints for it: the final value or stuck
          redex ([run]), the json-stable report ([analyze]), the
          rendered verdict ([check-term], [refine]) *)
  consumed : (string * int) list;
  domains : (int * float list) option;
      (** parallel runs: worker count and per-worker wall split *)
}

let outcome ?detail ?(consumed = []) ?domains ~engine ~verdict ~ok () =
  { engine; verdict; ok; detail; consumed; domains }

(** A verdict-producing invocation.  ['x] is what only a fresh
    computation knows and the renderer may print. *)
type 'x request = {
  cmd : string;
  label : string;
  program : string;  (** canonical program text the key hashes *)
  spec : string;
  engines : string list;
      (** the engines a certificate may be keyed under, probed in
          order; a fresh outcome names the one it was produced by *)
  budget : Budget.t option;  (** recorded in the ledger *)
  replay : bool;  (** may a certificate answer this invocation? *)
  store : bool;  (** may its fresh verdict become a certificate? *)
  log_detail : bool;  (** does the ledger record carry [detail]? *)
  decode : Certcache.cert -> outcome option;
      (** the outcome a certificate stands for under this invocation,
          [None] when it cannot be rendered byte-identically (then it
          is a corrupt miss and the verdict is recomputed) *)
  render : outcome -> 'x option -> unit;
      (** print an outcome; ['x] is [Some] exactly when it is fresh *)
}

let content_key (r : _ request) engine =
  Ledger.content_key ~program:r.program ~spec:r.spec ~engine ~version

(** The content key of a request under its first engine. *)
let key r = content_key r (List.hd r.engines)

let of_cert (c : Certcache.cert) =
  {
    engine = c.Certcache.engine;
    verdict = c.Certcache.verdict;
    ok = c.Certcache.ok;
    detail = c.Certcache.detail;
    consumed = c.Certcache.consumed;
    domains = None;
  }

let forensics_pointer () =
  match Forensics.last () with
  | None -> None
  | Some r ->
    Some
      (Json.Obj
         [
           ("component", Json.Str r.Forensics.r_component);
           ("rule", Json.Str r.Forensics.r_rule);
           ("step", Json.Int r.Forensics.r_step);
         ])

type result = { code : int; hit : bool; outcome : outcome }

(** Run one request through the pipeline and return its exit code.
    [quiet] suppresses the renderer and the cache-hit note (the
    corpus sweep prints its own rows). *)
let certify ?(quiet = false) ~cache ~ledger (r : 'x request)
    (compute : unit -> outcome * 'x) : result =
  let t0 = Unix.gettimeofday () in
  let keys = List.map (fun e -> (e, lazy (content_key r e))) r.engines in
  let key_of engine = Lazy.force (List.assoc engine keys) in
  let replayed =
    match cache with
    | Some t when r.replay ->
      (* a certificate this request cannot decode is a corrupt miss *)
      let validate c =
        c.Certcache.cmd = r.cmd && Option.is_some (r.decode c)
      in
      List.find_map
        (fun (_, key) ->
          Option.bind (Certcache.find t ~key:(Lazy.force key) ~validate) r.decode)
        keys
    | _ -> None
  in
  let o, fresh =
    match replayed with
    | Some o -> (o, None)
    | None ->
      let o, x = compute () in
      (o, Some x)
  in
  let hit = Option.is_none fresh in
  if hit && not quiet then
    Format.eprintf "tfiris: cache hit (%s, %s)@." o.engine o.verdict;
  if not quiet then r.render o fresh;
  let forensics = if o.ok then None else forensics_pointer () in
  (match cache with
  | Some t when r.store && not hit ->
    ignore
      (Certcache.store t
         {
           Certcache.key = key_of o.engine;
           cmd = r.cmd;
           label = r.label;
           engine = o.engine;
           version;
           verdict = o.verdict;
           ok = o.ok;
           detail = o.detail;
           consumed = o.consumed;
           replay = forensics;
         }
        : bool)
  | _ -> ());
  (match ledger with
  | None -> ()
  | Some path ->
    Ledger.append ~path
      {
        Ledger.key = key_of o.engine;
        cmd = r.cmd;
        label = r.label;
        engine = o.engine;
        version;
        verdict = o.verdict;
        ok = o.ok;
        detail = (if r.log_detail then o.detail else None);
        budget = Option.map Budget.to_json r.budget;
        consumed = o.consumed;
        cached = hit;
        mem = Some (run_mem ());
        wall_ms = (Unix.gettimeofday () -. t0) *. 1000.;
        seed = None;
        domains = o.domains;
        metrics =
          (if Tfiris_obs.Metrics.on () then
             Some Tfiris_obs.Metrics.(to_json (snapshot ()))
           else None);
        forensics;
      });
  let code = if o.ok then 0 else if o.verdict = "disagree" then 2 else 1 in
  { code; hit; outcome = o }

(* ---------- run ---------- *)

let steps (o : outcome) =
  Option.value (List.assoc_opt "steps" o.consumed) ~default:0

let run_engine = function
  | `Machine -> "shl.machine"
  | `Reference -> "shl.reference"
  | `Lockstep -> "shl.lockstep"

(** [run]: a value prints on stdout, a stuck redex on stderr.  A
    lockstep outcome's detail is its agree/disagree line, which no
    certificate reproduces, so lockstep neither replays nor stores;
    [--stats] prints a step split the certificate does not carry, so it
    stores but never replays. *)
let run ~label ?budget ~engine ~stats e : Interp.stats option request =
  let lockstep = engine = `Lockstep in
  {
    cmd = "run";
    label;
    program = Pretty.expr_to_string e;
    spec = "";
    engines = [ run_engine engine ];
    budget;
    replay = not (lockstep || stats);
    store = not lockstep;
    log_detail = not lockstep;
    decode =
      (fun c ->
        match (c.Certcache.verdict, c.Certcache.detail) with
        | "value", Some _ -> Some (of_cert c)
        | "stuck", Some _ when List.mem_assoc "steps" c.Certcache.consumed ->
          Some (of_cert c)
        | _ -> None);
    render =
      (fun o fresh ->
        match (o.verdict, o.detail) with
        | _, Some line when lockstep -> Format.printf "%s@." line
        | "value", Some v -> (
          Format.printf "%s@." v;
          match fresh with
          | Some (Some st) when stats ->
            Format.printf "steps: %d (pure %d, heap %d)@." st.Interp.steps
              st.Interp.pure_steps st.Interp.heap_steps
          | _ -> ())
        | "stuck", Some redex ->
          Format.eprintf "stuck after %d steps on: %s@." (steps o) redex
        | v, _ ->
          (* v is "out_of_fuel:RESOURCE" *)
          Format.eprintf "out of %s budget (%d steps taken)@."
            (String.sub v 12 (String.length v - 12)) (steps o));
  }

(* A request no certificate answers or records; its renderer sees only
   fresh results. *)
let uncached ~cmd ~label ~program ~spec ~engine ?budget ~log_detail render =
  {
    cmd; label; program; spec; engines = [ engine ]; budget;
    replay = false; store = false; log_detail;
    decode = (fun _ -> None);
    render = (fun _ fresh -> Option.iter render fresh);
  }

(** [run --domains=N]: exhaustive interleaving exploration, never
    cached (per-domain wall splits and the full final-value set are the
    point of the run).  Output is sorted, so it is identical at every
    domain count. *)
let explore ~label ~budget ~stats e =
  uncached ~cmd:"run" ~label ~program:(Pretty.expr_to_string e) ~spec:""
    ~engine:"shl.explore" ~budget ~log_detail:true
    (fun (finals, (r : Conc.exploration)) ->
      List.iter (fun v -> Format.printf "final: %s@." v) finals;
      List.iter
        (fun (tid, redex) ->
          Format.eprintf "stuck (thread %d) on: %s@." tid redex)
        (List.sort compare
           (List.map
              (fun (tid, redex) -> (tid, Pretty.expr_to_string redex))
              r.Conc.stuck));
      Option.iter
        (fun res ->
          Format.eprintf "out of %s budget after %d states@."
            (Budget.resource_name res) r.Conc.states)
        r.Conc.exhausted;
      Format.printf "states: %d@." r.Conc.states;
      if stats then
        List.iter
          (fun w ->
            Format.printf "  domain %d: dequeued %d, stolen %d, %.1f ms@."
              w.Conc.w_domain w.Conc.w_dequeued w.Conc.w_stolen
              w.Conc.w_wall_ms)
          r.Conc.workers)

(* ---------- analyze ---------- *)

(* Analyze certificates carry per-severity finding counts
   ("sev.info"/"sev.warning"/"sev.error" in [consumed]): the content key
   excludes --fail-on, so a replay recomputes [ok] from the counts
   against THIS invocation's --fail-on.  A certificate without the
   counts is a corrupt miss, never replayed with a possibly-flipped
   verdict. *)

let all_severities = F.[ Info; Warning; Error ]

let sev_key s = "sev." ^ F.severity_to_string s

(** No finding at or above [fail_on], per the per-severity counts. *)
let sev_ok ~fail_on consumed =
  List.for_all
    (fun s ->
      (not (F.severity_ge s fail_on))
      || List.assoc_opt (sev_key s) consumed = Some 0)
    all_severities

(** The outcome of a fresh analysis: the json-stable report as detail,
    total, per-severity and per-pass finding counts as consumption. *)
let analysis ~passes ~fail_on (reports : An.report list) =
  let all = List.concat_map (fun r -> r.An.findings) reports in
  let total = List.length all in
  let timings = List.concat_map (fun r -> r.An.timings) reports in
  let per_pass =
    List.map
      (fun p ->
        ( "pass." ^ p,
          List.fold_left
            (fun acc t -> if t.An.t_pass = p then acc + t.An.t_found else acc)
            0 timings ))
      passes
  in
  let consumed =
    (("findings", total)
    :: List.map (fun s -> (sev_key s, F.count_severity all s)) all_severities)
    @ per_pass
  in
  outcome ~engine:"analysis"
    ~verdict:(if total = 0 then "clean" else Printf.sprintf "findings:%d" total)
    ~ok:(sev_ok ~fail_on consumed)
    ~detail:
      (Json.to_string (Json.List (List.map An.report_to_json_stable reports)))
    ~consumed ()

(* A certificate's report names the programs of the run that produced
   it; replayed for other labels, each report's "program" is rewritten
   to this invocation's. *)
let relabel labels detail =
  match Json.of_string detail with
  | Ok (Json.List reports) when List.length reports = List.length labels ->
    Some
      (Json.to_string
         (Json.List
            (List.map2
               (fun label -> function
                 | Json.Obj (("program", _) :: rest) ->
                   Json.Obj (("program", Json.Str label) :: rest)
                 | j -> j)
               labels reports)))
  | _ -> None

(** [analyze]: only a json-stable invocation without [--domains] (whose
    dynamic race oracle must run) replays; every invocation stores. *)
let analyze ~format ~fail_on ~passes ~timings ~domains
    (programs : (string * Tfiris_shl.Ast.expr) list) :
    (An.report list * (string * Races.dyn_race list) list) request =
  let labels = List.map fst programs in
  let label = String.concat "," labels in
  {
    cmd = "analyze";
    label;
    program =
      String.concat "\x00"
        (List.map (fun (_, e) -> Pretty.expr_to_string e) programs);
    spec = String.concat "," passes;
    engines = [ "analysis" ];
    budget = None;
    replay = format = `Json_stable && domains = None;
    store = true;
    log_detail = false;
    decode =
      (fun c ->
        let consumed = c.Certcache.consumed in
        let detail =
          match c.Certcache.detail with
          | Some d when c.Certcache.label = label -> Some d
          | Some d -> relabel labels d
          | None -> None
        in
        let has s = List.mem_assoc (sev_key s) consumed in
        if detail = None || not (List.for_all has all_severities) then None
        else Some { (of_cert c) with detail; ok = sev_ok ~fail_on consumed });
    render =
      (fun o fresh ->
        (match (format, fresh) with
        | `Json_stable, _ -> Option.iter print_endline o.detail
        | `Json, Some (reports, _) ->
          print_endline
            (Json.to_string (Json.List (List.map An.report_to_json reports)))
        | `Text, Some (reports, _) ->
          List.iter
            (fun r -> Format.printf "%a@." (An.render_text ~timings) r)
            reports
        | (`Json | `Text), None -> ());
        (* the dynamic race oracle's cross-validation goes to stderr:
           findings and stdout stay byte-identical *)
        match (domains, fresh) with
        | Some n, Some (_, dynamic) ->
          let kname = function
            | Races.D_read -> "read"
            | Races.D_write -> "write"
            | Races.D_cas -> "cas"
          in
          List.iter
            (fun (label, dyn) ->
              Format.eprintf
                "dynamic race oracle (%d domains) %s: %d racy location%s@." n
                label (List.length dyn)
                (if List.length dyn = 1 then "" else "s");
              List.iter
                (fun d ->
                  Format.eprintf "  loc %d: %s/%s@." d.Races.d_loc
                    (kname d.Races.k1) (kname d.Races.k2))
                dyn)
            dynamic
        | _ -> ());
  }

(* ---------- check-term and refine ---------- *)

(* Both certify one judgement and print its verdict: the rendered text
   is the certificate's detail, so a replay prints the very bytes the
   fresh run did.  [--explain] prints a post-mortem only a fresh run
   records, so it stores but never replays. *)
let judgement ~cmd ~label ~program ~spec ~engines ?budget ~explain () :
    unit request =
  {
    cmd; label; program; spec; engines; budget;
    replay = not explain; store = true; log_detail = false;
    decode =
      (fun c -> if c.Certcache.detail = None then None else Some (of_cert c));
    render = (fun o _ -> Option.iter (Format.printf "%s@.") o.detail);
  }

let check_term ~label ?budget ~explain ~credits e =
  judgement ~cmd:"check-term" ~label ~program:(Pretty.expr_to_string e)
    ~spec:(Tfiris_ordinal.Ord.to_string credits)
    ~engines:[ "termination.wp/adaptive" ] ?budget ~explain ()

(** The refinement judgement has two texts: the target is the
    "program", the source its specification.  Which strategy certifies
    the pair (oracle, or the lockstep fallback when the oracle's
    pre-run finds no certificate) is decided by the two programs alone,
    and the engine id records it; a lookup probes both. *)
let refine ?budget ~explain ~target ~source () =
  let program = Pretty.expr_to_string target in
  let spec = Pretty.expr_to_string source in
  judgement ~cmd:"refine"
    ~label:
      (Forensics.trunc ~limit:40 program
      ^ " =< " ^ Forensics.trunc ~limit:40 spec)
    ~program ~spec
    ~engines:[ "refinement.driver/oracle"; "refinement.driver/lockstep" ]
    ?budget ~explain ()

(* ---------- chaos ---------- *)

(** One record for the whole battery; the seed count is the spec (more
    seeds = a different, stronger check).  Never cached. *)
let chaos ~seeds ~out =
  uncached ~cmd:"chaos" ~label:"chaos-battery" ~program:"chaos-battery"
    ~spec:(Printf.sprintf "seeds:%d" seeds)
    ~engine:"robust.chaos" ~log_detail:false
    (fun r ->
      Format.printf "%a@." Chaos.pp_report r;
      Option.iter
        (fun file ->
          let oc = open_out file in
          output_string oc (Json.to_string (Chaos.report_to_json r));
          output_char oc '\n';
          close_out oc;
          Format.printf "report written to %s@." file)
        out)
