(* In-memory spans for the traced run.

   A span records one call into a layer: its name, the request it
   belongs to, its parent span, its start and end, and the words
   allocated while it was open.  Spans are kept in memory and written
   out once, when the run ends, so writing them costs nothing inside
   the timed region.  With recording off, [with_span] is a plain call. *)

module Telemetry = Tfiris.Obs.Telemetry

type span = {
  id : int;
  name : string;
  req : string;
  parent : int;  (** -1 for a request's root span *)
  start_s : float;
  stop_s : float;
  self_s : float;  (** duration minus the time covered by child spans *)
  alloc_words : int;
      (** words allocated on the minor heap while the span was open,
          children included.  Minor-heap words repeat exactly from run
          to run; the major-heap counters do not (they are settled at
          collection time, so their deltas shift between spans). *)
}

let enabled = ref false
let recorded : span list ref = ref []
let next_id = ref 0

(* open spans, innermost first: id, and the child time accumulated so far *)
let stack : (int * float ref) list ref = ref []
let current_req = ref ""

let reset () =
  recorded := [];
  next_id := 0;
  stack := []

let with_span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with (p, _) :: _ -> p | [] -> -1 in
    let children = ref 0. in
    stack := (id, children) :: !stack;
    let gc0 = Telemetry.sample () in
    let t0 = Unix.gettimeofday () in
    let close () =
      let t1 = Unix.gettimeofday () in
      let mem = Telemetry.measure ~before:gc0 ~after:(Telemetry.sample ()) in
      stack := List.tl !stack;
      let dur = t1 -. t0 in
      (match !stack with (_, c) :: _ -> c := !c +. dur | [] -> ());
      recorded :=
        {
          id;
          name;
          req = !current_req;
          parent;
          start_s = t0;
          stop_s = t1;
          self_s = dur -. !children;
          alloc_words = mem.Telemetry.minor_words;
        }
        :: !recorded
    in
    Fun.protect ~finally:close f
  end

(** Run one request under a root span named after its command. *)
let with_request ~id ~name f =
  current_req := id;
  with_span name f

let all () = List.sort (fun a b -> compare a.id b.id) !recorded

type layer = { mutable self_s : float; mutable alloc_w : int; mutable calls : int }

(** Per-name totals of self time, allocation and call count. *)
let by_layer () : (string * layer) list =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s : span) ->
      let l =
        match Hashtbl.find_opt tbl s.name with
        | Some l -> l
        | None ->
          let l = { self_s = 0.; alloc_w = 0; calls = 0 } in
          Hashtbl.add tbl s.name l;
          l
      in
      l.self_s <- l.self_s +. s.self_s;
      l.alloc_w <- l.alloc_w + s.alloc_words;
      l.calls <- l.calls + 1)
    !recorded;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let write path =
  let module Json = Tfiris.Obs.Json in
  let oc = open_out_bin path in
  List.iter
    (fun s ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("id", Json.Int s.id);
                ("name", Json.Str s.name);
                ("req", Json.Str s.req);
                ("parent", Json.Int s.parent);
                ("start_s", Json.Float s.start_s);
                ("end_s", Json.Float s.stop_s);
                ("self_ms", Json.Float (s.self_s *. 1000.));
                ("alloc_words", Json.Int s.alloc_words);
              ]));
      output_char oc '\n')
    (all ());
  close_out oc
