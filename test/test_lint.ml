(* Tests for the source rules (D1–D4, C1, C2, P1) and the layering rule
   (L1) of lrp_allocheck: every rule family fires on its fixture, the
   suppression mechanism works (and reports stale exemptions), and the
   JSON report matches the committed golden file.  The live-tree gate is
   the allocheck self-check, which runs every pass at once.

   Like the allocation fixtures, these are *compiled*: the driver reads
   the .cmt output of the test/lint_fixtures library, so identifiers are
   checked by resolved path, exactly as on the live tree. *)

open Lrp_allocheck

(* Locate the repo root from wherever the test binary runs (dune runtest
   uses _build/default/test; `dune exec test/main.exe` uses the caller's
   cwd).  ROADMAP.md is not copied into _build, so requiring it pins the
   real source root rather than the build mirror. *)
let repo_root () =
  let rec up dir n =
    if n = 0 then Alcotest.fail "cannot locate repo root from cwd"
    else if
      Sys.file_exists (Filename.concat dir "dune-project")
      && Sys.file_exists (Filename.concat dir "ROADMAP.md")
    then dir
    else up (Filename.concat dir Filename.parent_dir_name) (n - 1)
  in
  up (Sys.getcwd ()) 8

let fixture name = Filename.concat (repo_root ()) ("test/lint_fixtures/" ^ name)

(* The live conf's rule settings, pointed at the fixture library's .cmt
   files (no hot-path entries and no reference-only units: those belong
   to the live tree). *)
let live_config =
  lazy
    (match Aconfig.load (Filename.concat (repo_root ()) "allocheck.conf") with
    | Ok c ->
        { c with
          Aconfig.cmt_dirs = [ "_build/default/test/lint_fixtures" ];
          Aconfig.ref_dirs = [];
          Aconfig.entries = [] }
    | Error e -> Alcotest.failf "allocheck.conf does not load: %s" e)

(* Fixture runs widen the C1/P1/U2 scope to the fixture directory (in
   the real config those rules only apply under lib/) and register the
   polymorphic-compare fixture's type in the D3 per-rule config. *)
let fixture_config =
  lazy
    (let c = Lazy.force live_config in
     {
       c with
       Aconfig.lib_scope = c.Aconfig.lib_scope @ [ "lint_fixtures" ];
       Aconfig.d3_files =
         ("lint_fixtures/d3_polycompare.ml", [ "pt" ]) :: c.Aconfig.d3_files;
       Aconfig.d4_dirs = "test/lint_fixtures" :: c.Aconfig.d4_dirs;
       (* The C2 fixture sits in its own subdirectory: widening c2_dirs to
          the whole fixture tree would re-flag the C1 fixture's sanctioned
          [Atomic.make]. *)
       Aconfig.c2_dirs = "lint_fixtures/c2" :: c.Aconfig.c2_dirs;
     })

(* One driver run per config, shared by the per-rule tests.  Files are
   reported relative to the build context ("test/lint_fixtures/x.ml"). *)
let run config =
  lazy (fst (Adriver.run ~root:(repo_root ()) (Lazy.force config)))
let widened = run fixture_config
let live = run live_config

let run_fixture ?(config = widened) name =
  List.filter
    (fun f -> f.Finding.file = "test/lint_fixtures/" ^ name)
    (Lazy.force config)

let rules fs = List.map (fun f -> f.Finding.rule) fs

let check_rules name expected fs =
  Alcotest.(check (list string)) name expected (rules fs)

(* --- one fixture per rule family -------------------------------------- *)

let test_d1 () =
  let fs = run_fixture "d1_time.ml" in
  check_rules "three D1 findings" [ "D1"; "D1"; "D1" ] fs;
  let lines = List.map (fun f -> f.Finding.line) fs in
  Alcotest.(check (list int)) "at the offending lines" [ 3; 5; 7 ] lines

let test_d2 () =
  let fs = run_fixture "d2_hashiter.ml" in
  check_rules "fold, iter and to_seq all fire" [ "D2"; "D2"; "D2" ] fs;
  (* Resolution by path: a module alias and a local open are Hashtbl's. *)
  let fs = run_fixture "d2_alias.ml" in
  check_rules "alias and local open fire" [ "D2"; "D2" ] fs;
  Alcotest.(check (list int))
    "at the alias and open sites" [ 7; 9 ]
    (List.map (fun f -> f.Finding.line) fs);
  (* The int table: its slot-order fold fires in every spelling; the
     sorted helper does not. *)
  let fs = run_fixture "d2_itab.ml" in
  check_rules "Itab.fold fires directly, via alias and via open"
    [ "D2"; "D2"; "D2" ] fs;
  Alcotest.(check (list int))
    "at the direct, alias and open sites" [ 7; 9; 11 ]
    (List.map (fun f -> f.Finding.line) fs)

let test_d3_marshal () =
  let fs = run_fixture "d3_marshal.ml" in
  check_rules "Marshal banned everywhere" [ "D3" ] fs

let test_d3_polycompare () =
  let fs = run_fixture "d3_polycompare.ml" in
  check_rules "bare compare and unapplied (=) fire; infix scalar does not"
    [ "D3"; "D3" ] fs;
  (* The rule is config-driven: without the per-file entry it is silent. *)
  let fs' = run_fixture ~config:live "d3_polycompare.ml" in
  check_rules "not in config: no findings" [] fs'

let test_d4 () =
  let fs = run_fixture "d4_hashkey.ml" in
  check_rules "tuple and record keys fire; named and int keys do not"
    [ "D4"; "D4" ] fs;
  Alcotest.(check (list int))
    "at the two literal-key probes" [ 5; 7 ]
    (List.map (fun f -> f.Finding.line) fs);
  (* Scope-driven: outside the hot-path directories the rule is silent. *)
  let fs' = run_fixture ~config:live "d4_hashkey.ml" in
  check_rules "out of scope: no findings" [] fs'

let test_c1 () =
  let fs = run_fixture "c1_ref.ml" in
  check_rules "ref and Hashtbl.create fire; Atomic, suppressed and local do not"
    [ "C1"; "C1" ] fs;
  Alcotest.(check (list int))
    "at the two unsuppressed bindings" [ 3; 5 ]
    (List.map (fun f -> f.Finding.line) fs)

let test_c2 () =
  let fs = run_fixture "c2/shared.ml" in
  check_rules
    "nested maker, array literal and Atomic fire; head-level maker stays C1"
    [ "C2"; "C2"; "C2"; "C1" ] fs;
  Alcotest.(check (list int))
    "at the offending bindings" [ 5; 7; 9; 12 ]
    (List.map (fun f -> f.Finding.line) fs);
  (* Scope-driven: outside the cell-parallel directories neither C2 nor
     C1 applies, so the shared-ok exemption is reported as stale. *)
  let fs' = run_fixture ~config:live "c2/shared.ml" in
  check_rules "out of scope: only the now-stale suppression" [ "SUP" ] fs'

let test_p1 () =
  let fs = run_fixture "p1_print.ml" in
  check_rules "printf and print_endline fire" [ "P1"; "P1" ] fs;
  (* Out of the stateful scope (the real config only covers lib/), the
     same file is clean: executables may print. *)
  let fs' = run_fixture ~config:live "p1_print.ml" in
  check_rules "out of scope: no findings" [] fs'

let test_sup_unused () =
  let fs = run_fixture "sup_unused.ml" in
  check_rules "stale suppression is a finding" [ "SUP" ] fs

let test_clean () = check_rules "clean file" [] (run_fixture "clean.ml")

(* --- L1 over the dune fixture ------------------------------------------ *)

let test_l1 () =
  let text = In_channel.with_open_bin (fixture "dune.l1fixture") In_channel.input_all in
  let stanzas = Dunefile.stanzas_of text in
  let ranks = (Lazy.force live_config).Aconfig.layer_rank in
  let fs =
    Finding.sort (Layers.check ~ranks ~file:"dune.l1fixture" stanzas)
  in
  check_rules "upward dep, unranked lib, unranked dep; executables exempt"
    [ "L1"; "L1"; "L1" ] fs;
  let msgs = String.concat "\n" (List.map (fun f -> f.Finding.msg) fs) in
  let contains needle =
    let n = String.length needle and m = String.length msgs in
    let rec at i = i + n <= m && (String.sub msgs i n = needle || at (i + 1)) in
    at 0
  in
  let has needle = Alcotest.(check bool) needle true (contains needle) in
  has "lrp_net (rank 3) depends on lrp_experiments (rank 8)";
  has "lrp_mystery has no rank";
  has "lrp_kernel depends on lrp_unranked"

let test_dunefile_parser () =
  let text =
    "; comment\n\
     (library (name a) (libraries b c))\n\
     (executables (names x y) (libraries z))\n\
     (rule (action (run foo)))\n"
  in
  let st = Dunefile.stanzas_of text in
  Alcotest.(check int) "three stanzas" 3 (List.length st);
  let names = List.map (fun s -> s.Dunefile.name) st in
  Alcotest.(check (list string)) "names" [ "a"; "x"; "y" ] names;
  let lib = List.hd st in
  Alcotest.(check (list string)) "libraries" [ "b"; "c" ] lib.Dunefile.libraries

(* --- suppression mechanics --------------------------------------------- *)

let test_suppress_claim () =
  let text =
    "let a = 1\n\
     (* lint: unordered-ok — same line *) let b = 2\n\
     (* lint: domain-local — next line *)\n\
     let c = 3\n"
  in
  let t = Suppress.scan Suppress.lint text in
  Alcotest.(check bool) "same-line claim" true
    (Srcrules.claim t ~rule:"D2" ~line:2);
  Alcotest.(check bool) "next-line claim" true
    (Srcrules.claim t ~rule:"C1" ~line:4);
  Alcotest.(check bool) "wrong tag does not claim" false
    (Srcrules.claim t ~rule:"P1" ~line:2);
  Alcotest.(check bool) "far line does not claim" false
    (Srcrules.claim t ~rule:"D2" ~line:9);
  Alcotest.(check int) "both claimed, none unused" 0
    (List.length (Suppress.unused Suppress.lint t ~file:"x.ml"))

(* --- report format ------------------------------------------------------ *)

(* Golden paths are relative to test/, as the report has always shown
   them. *)
let relativize f =
  let file = f.Finding.file in
  let n = String.length "test/" in
  if String.starts_with ~prefix:"test/" file then
    { f with Finding.file = String.sub file n (String.length file - n) }
  else f

let test_golden_json () =
  let findings = Finding.sort (List.map relativize (Lazy.force widened)) in
  let got = Finding.to_json findings in
  let golden_path = fixture "golden.json" in
  (* LINT_GOLDEN_REGEN=1 dune test rewrites the golden file in place;
     review the diff before committing it. *)
  if Sys.getenv_opt "LINT_GOLDEN_REGEN" <> None then
    Out_channel.with_open_bin golden_path (fun oc ->
        Out_channel.output_string oc got);
  let want = In_channel.with_open_bin golden_path In_channel.input_all in
  (* The report must also be well-formed JSON by the repo's own parser. *)
  (match Lrp_trace.Json.parse got with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "lint JSON does not parse: %s" e);
  Alcotest.(check string) "golden JSON report" want got

let test_json_escaping () =
  let f =
    Finding.v ~rule:"D1" ~file:"a\"b.ml" ~line:1 ~col:0 "msg with \"quotes\"\nand newline"
  in
  let json = Finding.to_json [ f ] in
  (match Lrp_trace.Json.parse json with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "escaped JSON does not parse: %s" e);
  let contains needle =
    let n = String.length needle and m = String.length json in
    let rec at i = i + n <= m && (String.sub json i n = needle || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "quotes escaped" true (contains "\\\"quotes\\\"");
  Alcotest.(check bool) "newline escaped" true (contains "\\n")

let test_config_matching () =
  Alcotest.(check bool) "suffix match with ../ prefix" true
    (Pathspec.has_suffix_path "../lib/core/det.ml" "lib/core/det.ml");
  Alcotest.(check bool) "exact path matches itself" true
    (Pathspec.has_suffix_path "lib/core/det.ml" "lib/core/det.ml");
  Alcotest.(check bool) "no partial-component match" false
    (Pathspec.has_suffix_path "lib/core/notdet.ml" "det.ml");
  Alcotest.(check bool) "scope by component" true
    (Pathspec.in_scope "/abs/repo/lib/net/fabric.ml" [ "lib" ]);
  Alcotest.(check bool) "bin not in lib scope" false
    (Pathspec.in_scope "bin/lrp_sim_cli.ml" [ "lib" ])

let suite =
  [
    Alcotest.test_case "D1 fires on ambient time/randomness" `Quick test_d1;
    Alcotest.test_case "D2 fires on unordered Hashtbl iteration" `Quick test_d2;
    Alcotest.test_case "D3 fires on Marshal" `Quick test_d3_marshal;
    Alcotest.test_case "D3 poly compare is config-driven" `Quick
      test_d3_polycompare;
    Alcotest.test_case "D4 fires on structural Hashtbl keys" `Quick test_d4;
    Alcotest.test_case "C1 fires on module-level state" `Quick test_c1;
    Alcotest.test_case "C2 fires on nested shard-shared state" `Quick test_c2;
    Alcotest.test_case "P1 fires on stdout writes in scope" `Quick test_p1;
    Alcotest.test_case "unused suppression is a finding" `Quick test_sup_unused;
    Alcotest.test_case "clean file has zero findings" `Quick test_clean;
    Alcotest.test_case "L1 fires on layer violations" `Quick test_l1;
    Alcotest.test_case "dune stanza parser" `Quick test_dunefile_parser;
    Alcotest.test_case "suppression claim mechanics" `Quick test_suppress_claim;
    Alcotest.test_case "golden JSON report" `Quick test_golden_json;
    Alcotest.test_case "JSON escaping round-trips" `Quick test_json_escaping;
    Alcotest.test_case "config path matching" `Quick test_config_matching;
  ]
