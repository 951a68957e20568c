(* The symbolic-heap domain (Analysis.Symheap) and the bi-abductive
   analyzer over it (Analysis.Biabd): unit tests for unification,
   frame/anti-frame subtraction, entailment and chain abstraction; the
   whole-program checker's verdicts, memory-error findings and leak
   detection; summary goldens for the shipped list examples under the
   tfiris-symheap/1 schema; and the differential property the issue
   asks for — programs the analyzer calls safe run to a value on the
   frame-stack machine with exactly the predicted leak set, and
   programs it calls unsafe get stuck. *)

module Q = QCheck2
module Shl = Tfiris.Shl
module An = Tfiris.Analysis
module Sh = An.Symheap
module B = An.Biabd
module F = An.Finding
module Json = Tfiris.Obs.Json

let parse = Shl.Parser.parse_exn

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let parse_example name = parse (read_file ("../examples/shl/" ^ name))

let prop ?(count = 200) name gen print fn =
  QCheck_alcotest.to_alcotest (Q.Test.make ~count ~name ~print gen fn)

let ids fs = List.map (fun (f : F.t) -> f.F.id) fs
let has_id id fs = List.mem id (ids fs)

(* ---------- the domain: pure layer ---------- *)

let test_unify () =
  let t = Sh.empty in
  let t, x = Sh.fresh_var t in
  let t, y = Sh.fresh_var t in
  (match Sh.unify t x (Sh.S_int 3) with
  | None -> Alcotest.fail "var unifies with a literal"
  | Some t -> (
    Alcotest.(check bool) "equal after unify" true
      (Sh.definitely_eq t x (Sh.S_int 3));
    match Sh.unify t x y with
    | None -> Alcotest.fail "var-var unify"
    | Some t ->
      Alcotest.(check bool) "aliasing propagates the binding" true
        (Sh.definitely_eq t y (Sh.S_int 3))));
  Alcotest.(check bool) "int/bool clash refused" true
    (Sh.unify t (Sh.S_int 1) (Sh.S_bool true) = None);
  (* pairs unify component-wise *)
  let t, a = Sh.fresh_var Sh.empty in
  let t, b = Sh.fresh_var t in
  (match
     Sh.unify t (Sh.S_pair (a, Sh.S_int 2)) (Sh.S_pair (Sh.S_int 1, b))
   with
  | None -> Alcotest.fail "pairs unify component-wise"
  | Some t ->
    Alcotest.(check bool) "fst bound" true
      (Sh.definitely_eq t a (Sh.S_int 1));
    Alcotest.(check bool) "snd bound" true
      (Sh.definitely_eq t b (Sh.S_int 2)));
  (* occurs check: x = (x, 1) must not loop or succeed *)
  let t, x = Sh.fresh_var Sh.empty in
  Alcotest.(check bool) "occurs check" true
    (Sh.unify t x (Sh.S_pair (x, Sh.S_int 1)) = None)

let test_neq () =
  let t, x = Sh.fresh_var Sh.empty in
  match Sh.add_neq t x (Sh.S_int 0) with
  | None -> Alcotest.fail "consistent disequality accepted"
  | Some t ->
    (* the x != 0 witness is what a failed null test leaves behind *)
    Alcotest.(check (option bool)) "neq-0 gives a nonzero witness"
      (Some true) (Sh.nonzero_int t x);
    Alcotest.(check bool) "contradicting unify refused" true
      (Sh.unify t x (Sh.S_int 0) = None);
    (match Sh.unify t x (Sh.S_int 7) with
    | None -> Alcotest.fail "non-contradicting unify fine"
    | Some t -> Alcotest.(check bool) "state stays sat" true (Sh.sat t));
    Alcotest.(check bool) "literal disequality refused" true
      (Sh.add_neq t (Sh.S_int 1) (Sh.S_int 1) = None)

(* ---------- incremental unification against the full recheck ---------- *)

(* The unification {!Sh.unify} replaced: every binding re-normalises
   the state and runs the full {!Sh.sat} rescan.  Its bindings land in
   [eqs]/[beqs] only; the disequalities are left as they were stored,
   which [Sh.sat] (through [definitely_eq]) chases anyway. *)
let rec ref_unify (t : Sh.t) (a : Sh.sval) (b : Sh.sval) : Sh.t option =
  let a = Sh.norm t a and b = Sh.norm t b in
  let checked t = if Sh.sat t then Some t else None in
  if a = b then Some t
  else
    match (a, b) with
    | Sh.S_var i, v | v, Sh.S_var i ->
      if Sh.occurs i v then None
      else checked { t with Sh.eqs = Sh.Imap.add i v t.Sh.eqs }
    | Sh.S_loc x, Sh.S_loc y ->
      let x = Sh.norm_addr t x and y = Sh.norm_addr t y in
      if x.Sh.base = y.Sh.base then if x.Sh.off = y.Sh.off then Some t else None
      else
        let b, target =
          if
            y.Sh.base = Sh.conc_base
            || (x.Sh.base <> Sh.conc_base && x.Sh.base > y.Sh.base)
          then (x.Sh.base, { Sh.base = y.Sh.base; off = y.Sh.off - x.Sh.off })
          else (y.Sh.base, { Sh.base = x.Sh.base; off = x.Sh.off - y.Sh.off })
        in
        checked { t with Sh.beqs = Sh.Imap.add b target t.Sh.beqs }
    | Sh.S_pair (a1, a2), Sh.S_pair (b1, b2) ->
      Option.bind (ref_unify t a1 b1) (fun t -> ref_unify t a2 b2)
    | Sh.S_inj_l x, Sh.S_inj_l y | Sh.S_inj_r x, Sh.S_inj_r y -> ref_unify t x y
    | _ -> None

(* The [nonzero_int] that re-normalised both sides of every disequality. *)
let ref_nonzero_int (t : Sh.t) (v : Sh.sval) =
  match Sh.norm t v with
  | Sh.S_int n -> Some (n <> 0)
  | v' ->
    if
      List.exists
        (fun (a, b) ->
          (Sh.norm t a = v' && Sh.norm t b = Sh.S_int 0)
          || (Sh.norm t b = v' && Sh.norm t a = Sh.S_int 0))
        t.Sh.neqs
    then Some true
    else None

(* Term shapes over small pools, resolved against the state's variables
   and bases when an operation runs, so that collisions, collapsed
   disequalities and duplicate cells are common. *)
type tm =
  | V of int
  | I of int
  | L of int * int  (** base index (or a concrete cell), offset *)
  | P of tm * tm
  | Inl of tm

type op =
  | Fresh_var
  | Fresh_base
  | Neq of tm * tm
  | Cell of int * int * tm  (** base index, offset, content *)
  | Unify of tm * tm

let rec string_of_tm = function
  | V i -> Printf.sprintf "v%d" i
  | I n -> string_of_int n
  | L (b, o) -> Printf.sprintf "b%d+%d" b o
  | P (a, b) -> Printf.sprintf "(%s, %s)" (string_of_tm a) (string_of_tm b)
  | Inl a -> "inl " ^ string_of_tm a

let string_of_op = function
  | Fresh_var -> "var"
  | Fresh_base -> "base"
  | Neq (a, b) -> Printf.sprintf "%s != %s" (string_of_tm a) (string_of_tm b)
  | Cell (b, o, v) ->
    Printf.sprintf "%s |-> %s" (string_of_tm (L (b, o))) (string_of_tm v)
  | Unify (a, b) -> Printf.sprintf "%s = %s" (string_of_tm a) (string_of_tm b)

let gen_ops =
  let open Q.Gen in
  let leaf =
    oneof
      [
        map (fun i -> V i) (int_bound 5);
        map (fun n -> I n) (int_bound 2);
        map2 (fun b o -> L (b, o)) (int_bound 3) (int_bound 1);
      ]
  in
  let tm =
    fix
      (fun self d ->
        if d = 0 then leaf
        else
          frequency
            [
              (4, leaf);
              (1, map2 (fun a b -> P (a, b)) (self (d - 1)) (self (d - 1)));
              (1, map (fun a -> Inl a) (self (d - 1)));
            ])
      2
  in
  list_size (int_range 1 40)
    (frequency
       [
         (2, return Fresh_var);
         (1, return Fresh_base);
         (2, map2 (fun a b -> Neq (a, b)) tm tm);
         ( 1,
           map3 (fun b o v -> Cell (b, o, v)) (int_bound 3) (int_bound 1) tm );
         (4, map2 (fun a b -> Unify (a, b)) tm tm);
       ])

(* Every stored disequality is its own normal form and is not
   collapsed, and the index knows every key it mentions. *)
let neqs_normal (t : Sh.t) =
  let rec keys_in (v : Sh.sval) =
    match v with
    | Sh.S_var i -> Sh.Iset.mem (Sh.var_key i) t.Sh.neq_keys
    | Sh.S_loc a ->
      a.Sh.base = Sh.conc_base
      || Sh.Iset.mem (Sh.base_key a.Sh.base) t.Sh.neq_keys
    | Sh.S_pair (a, b) -> keys_in a && keys_in b
    | Sh.S_inj_l a | Sh.S_inj_r a -> keys_in a
    | Sh.S_unit | Sh.S_bool _ | Sh.S_int _ | Sh.S_fun _ -> true
  in
  List.for_all
    (fun (a, b) ->
      Sh.norm t a = a && Sh.norm t b = b && a <> b && keys_in a && keys_in b)
    t.Sh.neqs

let incremental_unify_matches_sat ops =
  let vars = ref [||] and bases = ref [||] in
  let rec sval = function
    | V i ->
      let vs = !vars in
      if vs = [||] then Sh.S_int i else vs.(i mod Array.length vs)
    | I n -> Sh.S_int n
    | L (b, o) -> Sh.S_loc (addr b o)
    | P (a, b) -> Sh.S_pair (sval a, sval b)
    | Inl a -> Sh.S_inj_l (sval a)
  and addr b o =
    let bs = !bases in
    if bs = [||] || b = 3 then { Sh.base = Sh.conc_base; off = o }
    else Sh.addr_shift bs.(b mod Array.length bs) o
  in
  let step (t : Sh.t) op =
    let t =
      match op with
      | Fresh_var ->
        let t, v = Sh.fresh_var t in
        vars := Array.append !vars [| v |];
        t
      | Fresh_base ->
        let t, a = Sh.fresh_base t in
        bases := Array.append !bases [| a |];
        t
      | Neq (a, b) ->
        Option.value ~default:t (Sh.add_neq t (sval a) (sval b))
      | Cell (b, o, v) -> Sh.add_atom t (Sh.Pts (addr b o, sval v))
      | Unify (a, b) -> (
        let a = sval a and b = sval b in
        match (Sh.unify t a b, ref_unify t a b) with
        | None, None -> t
        | Some t', Some r ->
          if not (Sh.Imap.equal ( = ) t'.Sh.eqs r.Sh.eqs
                  && Sh.Imap.equal ( = ) t'.Sh.beqs r.Sh.beqs)
          then Q.Test.fail_report "the two unifications bound differently";
          if
            t'.Sh.neqs
            <> List.map (fun (a, b) -> (Sh.norm r a, Sh.norm r b)) r.Sh.neqs
          then Q.Test.fail_report "disequalities differ from the normal forms";
          t'
        | Some _, None -> Q.Test.fail_report "unify succeeded, sat refutes"
        | None, Some _ -> Q.Test.fail_report "unify failed, sat accepts")
    in
    if not (neqs_normal t) then
      Q.Test.fail_reportf "a stored disequality is not in normal form after %s"
        (string_of_op op);
    List.iter
      (fun v ->
        if Sh.nonzero_int t v <> ref_nonzero_int t v then
          Q.Test.fail_report "nonzero_int disagrees with the reference")
      (Array.to_list !vars);
    t
  in
  ignore (List.fold_left step Sh.empty ops);
  true

let incremental_unify =
  prop ~count:1000 "incremental unify agrees with the full sat recheck" gen_ops
    (fun ops -> String.concat "; " (List.map string_of_op ops))
    incremental_unify_matches_sat

(* ---------- subtraction: frames, anti-frames, junk ---------- *)

let test_subtract () =
  let t, ax = Sh.fresh_base Sh.empty in
  let t, ay = Sh.fresh_base t in
  let t = Sh.add_atom t (Sh.Pts (ax, Sh.S_int 1)) in
  let t = Sh.add_atom t (Sh.Pts (ay, Sh.S_int 2)) in
  (* exact match: the other cell is the frame, nothing missing *)
  (match Sh.subtract t [ Sh.Pts (ax, Sh.S_int 1) ] with
  | Some (t', []) ->
    Alcotest.(check int) "frame is the untouched cell" 1
      (List.length t'.Sh.spatial)
  | _ -> Alcotest.fail "present cell consumed with empty anti-frame");
  (* absent cell: reported missing — the bi-abduced anti-frame *)
  let az = Sh.addr_of_base 99 in
  (match Sh.subtract t [ Sh.Pts (az, Sh.S_int 3) ] with
  | Some (_, [ Sh.Pts (a, Sh.S_int 3) ]) ->
    Alcotest.(check int) "missing cell keeps its address" 99 a.Sh.base
  | _ -> Alcotest.fail "absent cell lands in the anti-frame");
  (* junk absorbs absent requirements: nothing missing, nothing learned *)
  let tj = Sh.add_atom t Sh.Junk in
  (match Sh.subtract tj [ Sh.Pts (az, Sh.S_int 3) ] with
  | Some (_, []) -> ()
  | _ -> Alcotest.fail "junk absorbs the absent cell");
  (* value mismatch on a present cell is a refusal, not an anti-frame *)
  Alcotest.(check bool) "value clash refused" true
    (Sh.subtract t [ Sh.Pts (ax, Sh.S_int 42) ] = None)

let test_entails_lseg () =
  (* Pts(x,v≠0) * Pts(x+1,0) ⊢ lseg(x,0): the unfolding rule subtract
     applies greedily when asked for a segment *)
  let t, ax = Sh.fresh_base Sh.empty in
  let t = Sh.add_atom t (Sh.Pts (ax, Sh.S_int 7)) in
  let t = Sh.add_atom t (Sh.Pts (Sh.addr_shift ax 1, Sh.S_int 0)) in
  (match Sh.entails t [ Sh.Lseg (ax, Sh.S_int 0) ] with
  | Some [] -> ()
  | Some fr ->
    Alcotest.failf "expected empty frame, got %d atoms" (List.length fr)
  | None -> Alcotest.fail "chain proves the segment");
  (* a lone terminator cell is the empty run *)
  let t, ay = Sh.fresh_base Sh.empty in
  let t = Sh.add_atom t (Sh.Pts (ay, Sh.S_int 0)) in
  (match Sh.entails t [ Sh.Lseg (ay, Sh.S_int 0) ] with
  | Some [] -> ()
  | _ -> Alcotest.fail "terminator cell is an empty segment");
  (* a cell of unknown content proves the segment bi-abductively — by
     committing the content to the terminator.  The strengthening must
     be visible in the returned state *)
  let t, az = Sh.fresh_base Sh.empty in
  let t, v = Sh.fresh_var t in
  let t = Sh.add_atom t (Sh.Pts (az, v)) in
  (match Sh.subtract t [ Sh.Lseg (az, Sh.S_int 0) ] with
  | Some (t', []) ->
    Alcotest.(check bool) "content committed to the terminator" true
      (Sh.definitely_eq t' v (Sh.S_int 0))
  | _ -> Alcotest.fail "unknown cell proves the segment by unification");
  (* but a definitely non-terminator cell with nothing after it cannot:
     the chain runs off the known heap and the tail is reported missing *)
  let t, aw = Sh.fresh_base Sh.empty in
  let t = Sh.add_atom t (Sh.Pts (aw, Sh.S_int 5)) in
  match Sh.subtract t [ Sh.Lseg (aw, Sh.S_int 0) ] with
  | Some (_, [ Sh.Lseg (a, Sh.S_int 0) ]) ->
    Alcotest.(check int) "missing tail starts past the cell" 1 a.Sh.off
  | _ -> Alcotest.fail "unterminated chain abduces its tail"

let test_abstract () =
  (* a 3-cell null-terminated chain collapses to one segment *)
  let t, ax = Sh.fresh_base Sh.empty in
  let t = Sh.add_atom t (Sh.Pts (ax, Sh.S_int 97)) in
  let t = Sh.add_atom t (Sh.Pts (Sh.addr_shift ax 1, Sh.S_int 98)) in
  let t = Sh.add_atom t (Sh.Pts (Sh.addr_shift ax 2, Sh.S_int 0)) in
  (match (Sh.abstract t).Sh.spatial with
  | [ Sh.Lseg (a, Sh.S_int 0) ] ->
    Alcotest.(check int) "segment starts at the chain head" ax.Sh.base
      a.Sh.base
  | l -> Alcotest.failf "expected one segment, got %d atoms" (List.length l));
  (* interior-order independence: listing the terminator first must
     not stop the collapse (regression for the head-marking pass) *)
  let t, ay = Sh.fresh_base Sh.empty in
  let t = Sh.add_atom t (Sh.Pts (Sh.addr_shift ay 1, Sh.S_int 0)) in
  let t = Sh.add_atom t (Sh.Pts (ay, Sh.S_int 5)) in
  (match (Sh.abstract t).Sh.spatial with
  | [ Sh.Lseg _ ] -> ()
  | l ->
    Alcotest.failf "order-independent collapse, got %d atoms"
      (List.length l));
  (* junk is idempotent and kept last *)
  let t = Sh.add_atom (Sh.add_atom Sh.empty Sh.Junk) Sh.Junk in
  (match (Sh.abstract t).Sh.spatial with
  | [ Sh.Junk ] -> ()
  | l -> Alcotest.failf "one junk expected, got %d atoms" (List.length l));
  (* a cell holding an unknown value survives abstraction untouched *)
  let t, az = Sh.fresh_base Sh.empty in
  let t, v = Sh.fresh_var t in
  let t = Sh.add_atom t (Sh.Pts (az, v)) in
  match (Sh.abstract t).Sh.spatial with
  | [ Sh.Pts _ ] -> ()
  | _ -> Alcotest.fail "unknown cell kept"

(* ---------- whole-program checking: errors and leaks ---------- *)

let verdict = Alcotest.testable (fun ppf v ->
    Format.pp_print_string ppf (B.verdict_to_string v)) ( = )

let test_check_errors () =
  let chk src = B.check (parse src) in
  let r = chk "let r = ref 0 in !(r +l 5)" in
  Alcotest.check verdict "load outside any allocation" B.Unsafe r.B.r_verdict;
  Alcotest.(check bool) "deref-unalloc reported" true
    (has_id "symheap/deref-unalloc" r.B.r_findings);
  let r = chk "!5" in
  Alcotest.check verdict "load of a non-location" B.Unsafe r.B.r_verdict;
  Alcotest.(check bool) "deref-non-location reported" true
    (has_id "symheap/deref-non-location" r.B.r_findings);
  let r = chk "1 quot 0" in
  Alcotest.check verdict "division by zero" B.Unsafe r.B.r_verdict;
  Alcotest.(check bool) "stuck-op reported" true
    (has_id "symheap/stuck-op" r.B.r_findings);
  let r = chk "(1 2)" in
  Alcotest.check verdict "application of a non-function" B.Unsafe
    r.B.r_verdict;
  Alcotest.(check bool) "app-non-function reported" true
    (has_id "symheap/app-non-function" r.B.r_findings);
  (* fork is out of the sequential checker's scope: Unknown, no claim *)
  let r = chk "fork 1; 2" in
  Alcotest.check verdict "fork is unknown" B.Unknown r.B.r_verdict;
  Alcotest.(check (list string)) "and silent" [] (ids r.B.r_findings)

let test_check_leaks () =
  let r = B.check (parse "let r = ref 1 in 0") in
  Alcotest.check verdict "leaky program is still safe" B.Safe r.B.r_verdict;
  Alcotest.(check bool) "leak reported" true
    (has_id "symheap/leak" r.B.r_findings);
  (match r.B.r_leaked with
  | [ (0, _) ] -> ()
  | l -> Alcotest.failf "expected loc 0 leaked, got %d" (List.length l));
  (* reachable through the result: no leak *)
  let r = B.check (parse "let r = ref 1 in r") in
  Alcotest.(check int) "result root keeps the cell" 0
    (List.length r.B.r_leaked);
  (* reachable through a pair inside a returned ref: transitive roots *)
  let r = B.check (parse "let a = ref 3 in let b = ref a in b") in
  Alcotest.(check int) "transitive reachability" 0 (List.length r.B.r_leaked);
  (* leaks are Info, never errors: the analyzer must not fail CI on them *)
  List.iter
    (fun (f : F.t) ->
      if f.F.id = "symheap/leak" then
        Alcotest.(check bool) "leak severity is Info" true
          (f.F.severity = F.Info))
    (B.check (parse "let r = ref 1 in 0")).B.r_findings

(* A 260-character slen: the checker runs it to a value inside its
   4,000-node budget, and all 261 cells leak.  Each site is a path one
   [let] deeper than the last; de-duplicating them under a hash that
   reads only a path's first steps put all of them in one bucket, and
   took ~23 ms on a 2-core x86-64 VM where this run takes ~5 ms. *)
let test_deep_leak_sites () =
  let n = 260 in
  let b = Buffer.create 8192 in
  Buffer.add_string b "let s = ref 97 in\n";
  for i = 1 to n - 1 do
    Printf.bprintf b "let _c%d = ref %d in\n" i (97 + (i mod 26))
  done;
  Buffer.add_string b
    "let _z = ref 0 in\n\
     (rec slen p. if !p = 0 then 0 else slen (p +l 1) + 1) s\n";
  let r = B.check (parse (Buffer.contents b)) in
  Alcotest.check verdict "inside the budget" B.Safe r.B.r_verdict;
  Alcotest.(check int) "checker steps" 3912 r.B.r_steps;
  let leak_sites =
    List.filter_map
      (fun (f : F.t) ->
        if f.F.id = "symheap/leak" then Some (Shl.Path.to_string f.F.path)
        else None)
      r.B.r_findings
  in
  let site d = String.concat "" (List.init d (fun _ -> "/in")) ^ "/bound" in
  Alcotest.(check (list string)) "one leak per cell, in allocation order"
    (List.init (n + 1) site) leak_sites

(* ---------- summary goldens (tfiris-symheap/1) ---------- *)

(* Figure 4's slen — the linked-list/pointer-walk example the issue
   names: the inferred spec must be the textbook one, with the chain of
   concrete cells collapsed into a null-terminated segment that is both
   required and returned intact. *)
let test_slen_golden () =
  let r = B.check (parse_example "slen.shl") in
  Alcotest.check verdict "slen safe" B.Safe r.B.r_verdict;
  Alcotest.(check string) "slen summary JSON (tfiris-symheap/1)"
    ("{\"schema\":\"tfiris-symheap/1\",\"program\":\"slen\","
   ^ "\"verdict\":\"safe\",\"steps\":57,"
   ^ "\"leaks\":[{\"loc\":0,\"site\":\"/bound\"},"
   ^ "{\"loc\":1,\"site\":\"/in/bound\"},"
   ^ "{\"loc\":2,\"site\":\"/in/in/bound\"},"
   ^ "{\"loc\":3,\"site\":\"/in/in/in/bound\"}],"
   ^ "\"functions\":[{\"name\":\"slen\",\"path\":\"/in/in/in/in/fn\","
   ^ "\"params\":[\"p\"],\"exact\":true,"
   ^ "\"rendered\":\"{lseg(a0, 0)} slen(a0) {ret=_0 * lseg(a0, 0)}\","
   ^ "\"specs\":[{\"pure\":[],\"pre\":[\"lseg(a0, 0)\"],"
   ^ "\"params\":[\"a0\"],\"ret\":\"_0\",\"post\":[\"lseg(a0, 0)\"]}]}]}")
    (Json.to_string (B.to_json ~label:"slen" r))

let test_example_summaries () =
  let rendered name file =
    let r = B.check (parse_example file) in
    match
      List.find_opt (fun s -> s.B.s_name = name) r.B.r_summaries
    with
    | Some s -> B.summary_to_string s
    | None -> Alcotest.failf "no summary for %s in %s" name file
  in
  (* the sum-encoded list sort: structural case split, exact *)
  Alcotest.(check string) "sort summary"
    ("{emp} sort(inl _0) {ret=inl ()} \\/ "
   ^ "{emp} sort(inr (_0, inl _1)) {ret=inr (_0, inl ())} \\/ "
   ^ "{emp} sort(inr (_0, inr (_1, _2))) {ret=_3}")
    (rendered "sort" "sort.shl");
  (* the memo-table writer: a genuine footprint spec — one cell
     required, the consed entry returned *)
  Alcotest.(check string) "memo-table set summary"
    "{a0 |-> _2} set(a0, k, v) {ret=() * a0 |-> inr ((k, v), _2)}"
    (rendered "set" "memo_fib.shl")

(* ---------- the differential property ---------- *)

(* The acceptance property: on random closed programs, a [Safe] verdict
   means the frame-stack machine runs to a value, and the analyzer's
   leak set is exactly the set of locations the final heap holds
   unreachable from the result.  An [Unsafe] verdict means the machine
   gets stuck.  [Unknown] claims nothing.  The analyzer's budget is
   far below the machine fuel, so Safe can never be an artifact of the
   machine running out first. *)
let differential e =
  let r = B.check e in
  match r.B.r_verdict with
  | B.Unknown -> true
  | B.Safe -> (
    match Shl.Interp.exec ~fuel:1_000_000 e with
    | Shl.Interp.Value (v, heap), _ ->
      let predicted = List.sort compare (List.map fst r.B.r_leaked) in
      let actual = List.sort compare (Shl.Heap.unreachable_from [ v ] heap) in
      if predicted = actual then true
      else
        Q.Test.fail_reportf "leak sets differ: analyzer [%s], heap [%s]"
          (String.concat ";" (List.map string_of_int predicted))
          (String.concat ";" (List.map string_of_int actual))
    | Shl.Interp.Stuck _, _ -> Q.Test.fail_report "safe program got stuck"
    | Shl.Interp.Out_of_fuel _, _ ->
      Q.Test.fail_report "safe program ran out of machine fuel")
  | B.Unsafe -> (
    match Shl.Interp.exec ~fuel:1_000_000 e with
    | Shl.Interp.Stuck _, _ -> true
    | Shl.Interp.Value _, _ ->
      Q.Test.fail_report "unsafe program reached a value"
    | Shl.Interp.Out_of_fuel _, _ ->
      Q.Test.fail_report "unsafe program ran out of machine fuel")

let differential_wild =
  prop ~count:300 "analyzer verdicts vs machine (wild programs)"
    Gen.shl_expr Gen.print_shl differential

let differential_typed =
  prop ~count:250 "analyzer verdicts vs machine (well-typed programs)"
    Gen.typed_shl_int Gen.print_shl differential

let suite =
  [
    Alcotest.test_case "unification" `Quick test_unify;
    Alcotest.test_case "disequalities" `Quick test_neq;
    Alcotest.test_case "subtraction: frame and anti-frame" `Quick
      test_subtract;
    Alcotest.test_case "chain entails segment" `Quick test_entails_lseg;
    Alcotest.test_case "abstraction collapses chains" `Quick test_abstract;
    Alcotest.test_case "memory-error verdicts" `Quick test_check_errors;
    Alcotest.test_case "leak detection" `Quick test_check_leaks;
    Alcotest.test_case "leak sites of a deep let chain" `Quick
      test_deep_leak_sites;
    Alcotest.test_case "slen golden (tfiris-symheap/1)" `Quick
      test_slen_golden;
    Alcotest.test_case "example summaries golden" `Quick
      test_example_summaries;
    incremental_unify;
    differential_wild;
    differential_typed;
  ]
