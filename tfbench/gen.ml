(* Seeded request generator for the tfiris benchmark.

   Every request is a [tfiris] argv plus the answer it must produce,
   known by construction: the generator picks the parameters, so it
   knows the value a program computes, whether it gets stuck, how many
   analyzer errors it carries, the final value of a CAS counter, and
   how many chops kill a depth-2 hydra.  None of these answers is
   computed by the code under test; [Test_gen] cross-checks the
   sequential values against the reference stepper [Shl.Step].

   A workload is one "pass": a fixed list of strata, each drawing its
   parameters from a narrow seeded range.  The mix of cheap and
   expensive requests is therefore the same for every seed, which is
   what keeps the median and the 90th percentile steady across seeds. *)

module Json = Tfiris.Obs.Json
module Ast = Tfiris.Shl.Ast
module Pretty = Tfiris.Shl.Pretty

type request = {
  id : string;
  family : string;
  argv : string list;  (** arguments after the [tfiris] program name *)
  expect : (string * Json.t) list;
      (** [exit] (always), and some of: [stdout] (exact), [prefix],
          [contains], [stderr] (a substring), [errors] (analyzer error
          count), [golden] (a file the stdout must equal byte for
          byte) *)
  value : string option;
      (** sequential programs: the value [run] prints, for the
          reference cross-check *)
  heavy : bool;  (** expected to cost hundreds of ms or more *)
}

let workloads = [ "corpus-cold"; "corpus-warm"; "search" ]

(* ---------- answers by construction ---------- *)

let fib k =
  let rec go a b i = if i = 0 then a else go b (a + b) (i - 1) in
  go 0 1 k

let ackermann m n =
  match m with
  | 0 -> n + 1
  | 1 -> n + 2
  | 2 -> (2 * n) + 3
  | 3 -> (1 lsl (n + 3)) - 3
  | _ -> invalid_arg "ackermann: m <= 3"

(* The tree program labels the root [s] and the children of [v] with
   [2v] and [2v+1], so level [l] holds the labels [s*2^l + j] for
   [j < 2^l]. *)
let tree_sum ~depth ~root =
  let total = ref 0 in
  for l = 0 to depth - 1 do
    let w = 1 lsl l in
    total := !total + (root * w * w) + (w * (w - 1) / 2)
  done;
  !total

(* A depth-2 bush of width [w]: a root child with [k] leaves takes
   [f k] chops, [f 0 = 1] and [f k = 1 + (r+1) f (k-1)] (chopping one
   of its leaves leaves [k-1] leaves here and regrows [r] copies of
   that at the root).  Every strategy takes the same number. *)
let hydra_chops ~width ~regrow =
  let rec f k = if k = 0 then 1 else 1 + ((regrow + 1) * f (k - 1)) in
  width * f width

let encoded_list xs =
  List.fold_right
    (fun x acc -> Ast.Inj_r (Ast.Pair (Ast.Int x, acc)))
    xs (Ast.Inj_l Ast.Unit)

let list_literal xs =
  List.fold_right
    (fun x acc -> Printf.sprintf "inr (%d, %s)" x acc)
    xs "inl ()"

(* ---------- program texts ---------- *)

(* A null-terminated string laid out by consecutive allocations (the
   slen example); without the terminator the walk runs off the block
   and gets stuck. *)
let slen_program ~terminated chars =
  let b = Buffer.create 256 in
  List.iteri
    (fun i c ->
      if i = 0 then Printf.bprintf b "let s = ref %d in\n" c
      else Printf.bprintf b "let _c%d = ref %d in\n" i c)
    chars;
  if terminated then Buffer.add_string b "let _z = ref 0 in\n";
  Buffer.add_string b
    "(rec slen p. if !p = 0 then 0 else slen (p +l 1) + 1) s\n";
  Buffer.contents b

let sort_program xs =
  "let insert =\n\
  \  rec ins x.\n\
  \    fun l ->\n\
  \      match l with\n\
  \      | inl u -> inr (x, inl ())\n\
  \      | inr c -> if x <= fst c then inr (x, l) else inr (fst c, ins x \
   (snd c))\n\
  \      end\n\
   in\n\
   let sort =\n\
  \  rec sort l.\n\
  \    match l with\n\
  \    | inl u -> inl ()\n\
  \    | inr c -> insert (fst c) (sort (snd c))\n\
  \    end\n\
   in\n\
   sort (" ^ list_literal xs ^ ")\n"

let memo_fib_program k =
  "let map = fun u -> ref (inl ()) in\n\
   let get =\n\
  \  fun tbl k ->\n\
  \    (rec go l.\n\
  \       match l with\n\
  \       | inl u -> inl ()\n\
  \       | inr c -> if fst (fst c) = k then inr (snd (fst c)) else go (snd \
   c)\n\
  \       end)\n\
  \    !tbl\n\
   in\n\
   let set = fun tbl k v -> tbl := inr ((k, v), !tbl) in\n\
   let memo_rec =\n\
  \  fun t ->\n\
  \    let tbl = map () in\n\
  \    rec g x.\n\
  \      match get tbl x with\n\
  \      | inl u -> let y = t g x in set tbl x y; y\n\
  \      | inr y -> y\n\
  \      end\n\
   in\n\
   let fib = memo_rec (fun g n -> if n < 2 then n else g (n - 1) + g (n - \
   2)) in\n"
  ^ Printf.sprintf "fib %d\n" k

let tree_program ~depth ~root =
  Printf.sprintf
    "let mk = rec mk d. fun v ->\n\
    \  if d = 0 then ref (inl ())\n\
    \  else ref (inr (mk (d - 1) (2 * v), (v, mk (d - 1) (2 * v + 1)))) in\n\
     let sum = rec sum t.\n\
    \  match !t with\n\
    \  | inl u -> 0\n\
    \  | inr c -> sum (fst c) + (fst (snd c) + sum (snd (snd c)))\n\
    \  end in\n\
     sum (mk %d %d)\n"
    depth root

(* A heap list whose last tail is the integer 0 instead of a cell: the
   sum dereferences it and gets stuck. *)
let dangling_list_program xs =
  let rec cells = function
    | [] -> "0"
    | x :: rest -> Printf.sprintf "ref (inr (%d, %s))" x (cells rest)
  in
  Printf.sprintf
    "let l = %s in\n\
     (rec sum p. match !p with | inl u -> 0 | inr c -> fst c + sum (snd c) \
     end) l\n"
    (cells xs)

let countdown_program n =
  Printf.sprintf "(rec f n. if n = 0 then 0 else f (n - 1)) %d" n

let ackermann_program m n =
  Printf.sprintf
    "(rec a m. fun n -> if m = 0 then n + 1 else if n = 0 then a (m - 1) 1 \
     else a (m - 1) (a m (n - 1))) %d %d"
    m n

let loop_program variant k =
  match variant with
  | 0 -> Printf.sprintf "(rec f n. f n) %d" k
  | 1 -> Printf.sprintf "(rec f n. f (n + 1)) %d" k
  | _ -> Printf.sprintf "(rec f n. f (n - 1)) %d" k

let fib_program n =
  Printf.sprintf
    "(rec fib n. if n < 2 then n else fib (n - 1) + fib (n - 2)) %d" n

(* [k] threads each CAS-increment a shared counter from [c0] and raise
   a done flag; the main thread spins on the flags, then reads the
   counter.  Every interleaving ends with [c0 + k]. *)
let cas_counter_program ~threads:k ~c0 =
  let b = Buffer.create 512 in
  Printf.bprintf b "let c = ref %d in\n" c0;
  for i = 0 to k - 1 do
    Printf.bprintf b "let d%d = ref 0 in\n" i
  done;
  Buffer.add_string b
    "let incr = rec retry u. let v = !c in if cas c v (v + 1) then () else \
     retry u in\n";
  for i = 0 to k - 1 do
    Printf.bprintf b "fork (incr (); cas d%d 0 1);\n" i
  done;
  let wait = ref "!c" in
  for i = k - 1 downto 0 do
    wait := Printf.sprintf "(rec w%d u. if !d%d = 1 then %s else w%d u) ()" i i
        !wait i
  done;
  Buffer.add_string b !wait;
  Buffer.add_string b "\n";
  Buffer.contents b

(* ---------- the draws ---------- *)

let exit_ n = ("exit", Json.Int n)

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let examples_dir = "examples/shl"
let examples_golden = "BENCH_history/baseline-analyze.json"

(* The sequential corpus: 40 distinct programs in five families, each
   requested as [run] and as [analyze], plus one [analyze] over the
   committed examples whose report must equal the committed golden.
   Sizes climb a fixed ladder with a small seeded jitter, so programs
   stay distinct within a pass and the cost profile holds across
   seeds. *)
let corpus ~rng ~dir : request list =
  let n = ref 0 in
  let programs = ref [] in
  let add family text ~value ~stuck =
    let file = Filename.concat dir (Printf.sprintf "p%02d.shl" !n) in
    incr n;
    write_file file text;
    programs := (family, file, value, stuck) :: !programs
  in
  let jitter k = Random.State.int rng (k + 1) in
  (* the largest strings set the run's peak heap, so their lengths do
     not move with the seed; the seed draws their characters *)
  List.iter
    (fun len ->
      let chars = List.init len (fun _ -> 1 + Random.State.int rng 255) in
      add "slen"
        (slen_program ~terminated:true chars)
        ~value:(Some (string_of_int len)) ~stuck:false)
    [ 8; 16; 24; 32; 48; 64; 80; 96; 112; 124 ];
  List.iter
    (fun base ->
      let xs = List.init (base + jitter 3) (fun _ -> Random.State.int rng 1000) in
      add "sort" (sort_program xs)
        ~value:(Some (Pretty.value_to_string (encoded_list (List.sort compare xs))))
        ~stuck:false)
    [ 4; 8; 12; 16; 24; 32; 48; 64 ];
  List.iter
    (fun base ->
      let k = base + jitter 2 in
      add "memo_fib" (memo_fib_program k)
        ~value:(Some (string_of_int (fib k))) ~stuck:false)
    [ 6; 9; 12; 15; 18; 21; 24; 27 ];
  List.iter
    (fun depth ->
      let root = 1 + Random.State.int rng 1000 in
      add "tree"
        (tree_program ~depth ~root)
        ~value:(Some (string_of_int (tree_sum ~depth ~root))) ~stuck:false)
    [ 2; 3; 4; 5; 6; 7; 8; 9 ];
  List.iter
    (fun base ->
      let chars =
        List.init (base + jitter 3) (fun _ -> 1 + Random.State.int rng 255)
      in
      add "defect" (slen_program ~terminated:false chars) ~value:None
        ~stuck:true)
    [ 4; 12; 24 ];
  List.iter
    (fun base ->
      let xs = List.init (base + jitter 2) (fun _ -> Random.State.int rng 100) in
      add "defect" (dangling_list_program xs) ~value:None ~stuck:true)
    [ 2; 5; 9 ];
  let per_program =
    List.concat_map
      (fun (family, file, value, stuck) ->
        let run_expect =
          match value with
          | Some v -> [ exit_ 0; ("stdout", Json.Str (v ^ "\n")) ]
          | None -> [ exit_ 1; ("stdout", Json.Str ""); ("stderr", Json.Str "stuck") ]
        in
        let errors = if stuck then 1 else 0 in
        [
          ( family,
            [ "run"; file ],
            run_expect,
            value );
          ( family,
            [ "analyze"; "--format=json-stable"; file ],
            [ exit_ (if stuck then 1 else 0); ("errors", Json.Int errors) ],
            None );
        ])
      (List.rev !programs)
  in
  let examples =
    Sys.readdir examples_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".shl")
    |> List.sort compare
    |> List.map (Filename.concat examples_dir)
  in
  let golden =
    ( "examples",
      [ "analyze"; "--format=json-stable" ] @ examples,
      [ exit_ 0; ("golden", Json.Str examples_golden) ],
      None )
  in
  shuffle rng (golden :: per_program)
  |> List.mapi (fun i (family, argv, expect, value) ->
         {
           id = Printf.sprintf "c%03d" i;
           family;
           argv;
           expect;
           value;
           heavy = false;
         })

(* The search workload: 40 requests whose cost is a search — hydra
   games, credit descents, refinement games, exhaustive interleaving
   exploration.  A fifth are heavy (hundreds of ms), so the 90th
   percentile lies inside the heavy band rather than on the edge
   between bands. *)
let search ~rng ~dir : request list =
  let pick xs = List.nth xs (Random.State.int rng (List.length xs)) in
  let range lo hi = lo + Random.State.int rng (hi - lo + 1) in
  let hydra ~heavy (w, r, adversarial) =
    ( "hydra",
      [
        "hydra";
        Printf.sprintf "--width=%d" w;
        "--depth=2";
        Printf.sprintf "--regrow=%d" r;
      ]
      @ (if adversarial then [ "--adversarial" ] else []),
      [
        exit_ 0;
        ( "contains",
          Json.Str
            (Printf.sprintf "dead after %d chops" (hydra_chops ~width:w ~regrow:r))
        );
      ],
      heavy )
  in
  let check_term ~heavy src credits expect =
    ("check-term", [ "check-term"; "-e"; src; "--credits"; credits ], expect, heavy)
  in
  let refine ~heavy target source expect =
    ("refine", [ "refine"; "--target"; target; "--source"; source ], expect, heavy)
  in
  let ncas = ref 0 in
  let explore ~heavy threads =
    let c0 = range 0 99 in
    let file = Filename.concat dir (Printf.sprintf "cas%02d.shl" !ncas) in
    incr ncas;
    write_file file (cas_counter_program ~threads ~c0);
    ( "explore",
      [ "run"; "--domains=2"; file ],
      [
        exit_ 0;
        ("prefix", Json.Str (Printf.sprintf "final: %d\nstates: " (c0 + threads)));
      ],
      heavy )
  in
  (* every stratum has a fixed cost; the seed draws only what leaves
     the cost alone (an added constant, a counter's start value, the
     order of the pass); the shapes of the non-terminating loops, which
     cost differently, are fixed *)
  let plus src k = Printf.sprintf "%s + %d" src k in
  let light =
    List.map
      (fun (w, r) -> hydra ~heavy:false (w, r, false))
      [ (2, 1); (2, 3); (3, 1); (3, 2); (3, 3); (3, 4); (4, 1) ]
    @ List.map
        (fun (w, r) -> hydra ~heavy:false (w, r, true))
        [ (2, 2); (2, 4); (3, 1); (4, 1) ]
    @ List.map
        (fun n ->
          let k = range 0 99 in
          check_term ~heavy:false (plus (countdown_program n) k) "w"
            [ exit_ 0; ("prefix", Json.Str (Printf.sprintf "terminated with %d in " k)) ])
        [ 200; 700; 1200 ]
    @ List.map
        (fun (m, n) ->
          let k = range 0 99 in
          check_term ~heavy:false (plus (ackermann_program m n) k) "w^2"
            [
              exit_ 0;
              ( "prefix",
                Json.Str (Printf.sprintf "terminated with %d in " (ackermann m n + k)) );
            ])
        [ (1, 6); (2, 5); (3, 2) ]
    @ List.map
        (fun n ->
          let k = range 0 99 in
          let src = plus (fib_program n) k in
          refine ~heavy:false src src
            [
              exit_ 0;
              ( "prefix",
                Json.Str (Printf.sprintf "accepted: both sides evaluate to %d " (fib n + k)) );
            ])
        [ 6; 8; 9; 10; 11; 12; 14 ]
    @ List.init 3 (fun _ -> explore ~heavy:false 1)
    @ List.init 3 (fun _ -> explore ~heavy:false 2)
  in
  let medium =
    [ hydra ~heavy:false (3, 3, true); hydra ~heavy:false (4, 2, false) ]
  in
  (* the rejections exhaust the strategies' default fuel, so they all
     cost about the same: the 90th percentile lands among them *)
  let heavy =
    List.init 2 (fun v ->
        check_term ~heavy:true (loop_program v (range 0 99)) "w" [ exit_ 1 ])
    @ List.init 2 (fun v ->
          refine ~heavy:true
            (loop_program (v + 1) (range 0 99))
            (pick [ "()"; "0"; "1" ])
            [ exit_ 1 ])
    @ [ hydra ~heavy:true (3, 4, true); hydra ~heavy:true (4, 3, false) ]
    @ List.init 2 (fun _ -> explore ~heavy:true 3)
  in
  shuffle rng (light @ medium @ heavy)
  |> List.mapi (fun i (family, argv, expect, heavy) ->
         { id = Printf.sprintf "s%03d" i; family; argv; expect; value = None; heavy })

let generate ~workload ~seed ~dir : request list =
  let tag = match workload with "search" -> 2 | _ -> 1 in
  (* corpus-cold and corpus-warm share a tag: the warm workload replays
     exactly the cold workload's requests *)
  let rng = Random.State.make [| seed; tag |] in
  match workload with
  | "corpus-cold" | "corpus-warm" -> corpus ~rng ~dir
  | "search" -> search ~rng ~dir
  | w -> invalid_arg ("unknown workload " ^ w)

let request_to_json (r : request) : Json.t =
  Json.Obj
    ([
       ("id", Json.Str r.id);
       ("family", Json.Str r.family);
       ("argv", Json.List (List.map (fun a -> Json.Str a) r.argv));
       ("expect", Json.Obj r.expect);
       ("heavy", Json.Bool r.heavy);
     ]
    @ match r.value with Some v -> [ ("value", Json.Str v) ] | None -> [])

let request_of_json (j : Json.t) : request =
  let str k =
    match Option.bind (Json.member k j) Json.to_str with
    | Some s -> s
    | None -> failwith ("manifest: missing " ^ k)
  in
  {
    id = str "id";
    family = str "family";
    argv =
      (match Option.bind (Json.member "argv" j) Json.to_list with
      | Some l -> List.filter_map Json.to_str l
      | None -> failwith "manifest: missing argv");
    expect =
      (match Json.member "expect" j with Some (Json.Obj kv) -> kv | _ -> []);
    value = Option.bind (Json.member "value" j) Json.to_str;
    heavy = Option.bind (Json.member "heavy" j) Json.to_bool = Some true;
  }

let write_manifest path (rs : request list) =
  let oc = open_out_bin path in
  List.iter
    (fun r ->
      output_string oc (Json.to_string (request_to_json r));
      output_char oc '\n')
    rs;
  close_out oc

let read_manifest path : request list =
  let ic = open_in_bin path in
  let rec go acc =
    match input_line ic with
    | line when String.trim line = "" -> go acc
    | line -> (
      match Json.of_string line with
      | Ok j -> go (request_of_json j :: acc)
      | Error m -> failwith ("manifest: " ^ m))
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []
