(* Tests for lrp_allocheck's allocation, escape and unused-export
   passes: every finding kind fires on its compiled fixture, the
   eliminate_ref and static-closure negatives hold, suppressions claim
   (and stale ones report), the escape pass flags publication and honours
   sanctions, U1 and U2 see uses through aliases, opens and ref-dirs, the
   JSON report matches the committed golden file, and — the gate itself —
   the live tree is finding-free under every pass.

   The fixtures are *compiled*: the analyzer reads the .cmt output of the
   test/allocheck_fixtures libraries, so the fixture runs exercise the
   same cmt-loading path as the live gate. *)

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

let fixture_cmts = "_build/default/test/allocheck_fixtures"

let alloc_entries =
  [
    "Aclo.capture"; "Aclo.static_fn"; "Aclo.partial";
    "Abox.ret_box"; "Abox.fresh_arg"; "Abox.passthrough"; "Abox.inlined";
    "Ablocks.pair"; "Ablocks.mk"; "Ablocks.update"; "Ablocks.some";
    "Ablocks.cons"; "Ablocks.lit"; "Ablocks.empty_arr"; "Ablocks.none";
    "Aref.escaping"; "Aref.eliminated"; "Aref.buffer";
    "Acall.trusted"; "Acall.fmt_path"; "Acall.boxed"; "Acall.unboxed";
    "Asup.cold_path"; "Asup.trailing"; "Asup.stale";
    "Acmp.stdlib_min"; "Acmp.stdlib_compare"; "Acmp.abstract_eq";
    "Acmp.poly_eq"; "Acmp.boxed_lt"; "Acmp.probe"; "Acmp.probe_alias";
    "Acmp.probe_open"; "Acmp.probe_let_module"; "Acmp.clean";
  ]

let fixture_cfg =
  {
    Aconfig.empty with
    Aconfig.cmt_dirs = [ fixture_cmts ];
    Aconfig.entries = alloc_entries;
    Aconfig.follow_dirs = [ "test/allocheck_fixtures" ];
    Aconfig.escape_dirs = [ "test/allocheck_fixtures/esc" ];
    Aconfig.cross_cell_fields = [ "ob_ready" ];
    Aconfig.escape_sanctions = [ "Aesc.outbox" ];
    (* L1 reads the fixture libraries' dune files too. *)
    Aconfig.layer_rank = [ ("lrp_afix", 0); ("lrp_afix_esc", 0) ];
  }

(* One driver run shared by the per-kind tests. *)
let master = lazy (Adriver.run ~root:(repo_root ()) fixture_cfg)

let in_file name =
  let findings, _ = Lazy.force master in
  List.filter (fun f -> Filename.basename f.Finding.file = name) findings

let rules_lines fs = List.map (fun f -> (f.Finding.rule, f.Finding.line)) fs

let check_rl name expected fs =
  Alcotest.(check (list (pair string int))) name expected (rules_lines fs)

let contains hay needle =
  let n = String.length needle and m = String.length hay in
  let rec at i = i + n <= m && (String.sub hay i n = needle || at (i + 1)) in
  at 0

(* --- one fixture per finding kind -------------------------------------- *)

let test_clo () =
  check_rl "capturing closure and partial application fire; static lambda does not"
    [ ("CLO", 6); ("CLO", 15) ]
    (in_file "aclo.ml")

let test_box () =
  let fs = in_file "abox.ml" in
  check_rl
    "bare-float return and freshly computed float argument fire; \
     variable passthrough and same-unit [@inline] callees do not"
    [ ("BOX", 9); ("BOX", 11); ("BOX", 11) ]
    fs;
  Alcotest.(check bool) "return finding names the callee" true
    (List.exists (fun f -> contains f.Finding.msg "Abox.calc") fs)

let test_blocks () =
  check_rl
    "tuple, record, functional update, Some, cons and array literal fire; \
     empty array and None do not"
    [ ("TUP", 5); ("REC", 7); ("REC", 9); ("VAR", 11); ("VAR", 13); ("ARR", 15) ]
    (in_file "ablocks.ml")

let test_ref () =
  check_rl "escaping ref and Bytes.create fire; eliminate_ref loop does not"
    [ ("REF", 4); ("REF", 16) ]
    (in_file "aref.ml")

let test_call () =
  check_rl
    "transitively reached Array.make, format machinery and boxed Int64 \
     arithmetic fire; exempt Int64.compare does not"
    [ ("CALL", 3); ("FMT", 7); ("CALL", 9) ]
    (in_file "acall.ml")

let test_sup () =
  check_rl "claimed suppressions silence; the stale one is a finding"
    [ ("SUP", 10) ]
    (in_file "asup.ml")

let test_cmp () =
  let fs = in_file "acmp.ml" in
  check_rl
    "Stdlib min and compare, (=) at an abstract and a polymorphic type, \
     (<) at a tuple, and Hashtbl probes spelled directly, through an \
     alias, a local open and a let-module fire; int, float, bool and \
     constant-constructor comparisons and Int.min do not"
    [ ("CMP", 10); ("CMP", 12); ("CMP", 14); ("CMP", 16); ("CMP", 18);
      ("CMP", 20); ("CMP", 22); ("CMP", 24); ("CMP", 26) ]
    fs;
  Alcotest.(check bool) "names the unspecialised type" true
    (List.exists (fun f -> contains f.Finding.msg "type H.t") fs)

(* --- driver scoping ----------------------------------------------------- *)

let test_assume () =
  let cfg =
    {
      fixture_cfg with
      Aconfig.entries = [ "Acall.trusted" ];
      Aconfig.assume = [ "Acall.helper" ];
      Aconfig.escape_dirs = [];
    }
  in
  let findings, stats = Adriver.run ~root:(repo_root ()) cfg in
  check_rl "assumed boundary is not descended into" [] findings;
  Alcotest.(check int) "only the entry is analyzed" 1
    stats.Adriver.funcs_analyzed

let test_assume_cmp () =
  let cfg =
    {
      fixture_cfg with
      Aconfig.entries = [ "Acmp.calls_assumed" ];
      Aconfig.assume = [ "Acmp.assumed" ];
      Aconfig.escape_dirs = [];
    }
  in
  let findings, stats = Adriver.run ~root:(repo_root ()) cfg in
  check_rl
    "the assumed function's array and tuples are not findings; the max \
     in the callee it alone reaches is"
    [ ("CMP", 34) ] findings;
  Alcotest.(check int) "only the entry is allocation-analyzed" 1
    stats.Adriver.funcs_analyzed

let test_allocating_extra () =
  let cfg =
    {
      fixture_cfg with
      Aconfig.entries = [ "Acall.unboxed" ];
      Aconfig.escape_dirs = [];
      Aconfig.allocating_extra = [ "Int64.compare" ];
    }
  in
  let findings, _ = Adriver.run ~root:(repo_root ()) cfg in
  check_rl "conf-extended call table fires" [ ("CALL", 11) ] findings

let test_cfg_unresolved () =
  let one_cfg what cfg needle =
    let cfg = { cfg with Aconfig.escape_dirs = [] } in
    match fst (Adriver.run ~root:(repo_root ()) cfg) with
    | [ f ] ->
        Alcotest.(check string) (what ^ ": rule") "CFG" f.Finding.rule;
        Alcotest.(check string) (what ^ ": reported against the conf")
          "allocheck.conf" f.Finding.file;
        Alcotest.(check bool) (what ^ ": names it") true
          (contains f.Finding.msg needle)
    | fs ->
        Alcotest.failf "%s: expected one CFG finding, got %d" what
          (List.length fs)
  in
  one_cfg "unresolved entry"
    { fixture_cfg with Aconfig.entries = [ "Nowhere.nothing" ] }
    "Nowhere.nothing";
  (* A missing build fails closed: a cmt-dir or ref-dir with no .cmt is a
     finding, not a silently smaller gate. *)
  one_cfg "empty cmt-dir"
    {
      fixture_cfg with
      Aconfig.entries = [];
      Aconfig.cmt_dirs = [ fixture_cmts; "_build/default/test/no_such_dir" ];
    }
    "no_such_dir";
  one_cfg "empty ref-dir"
    {
      fixture_cfg with
      Aconfig.entries = [];
      Aconfig.ref_dirs = [ "_build/default/test/no_ref_dir" ];
    }
    "ref-dir '_build/default/test/no_ref_dir'"

(* --- escape pass -------------------------------------------------------- *)

let test_escape () =
  let fs = in_file "aesc.ml" in
  check_rl
    "global table, global array, field-chain root, cross-cell field and \
     DLS fire; locals, sanctioned and suppressed writers do not"
    [ ("ESC", 15); ("ESC", 17); ("ESC", 19); ("ESC", 21); ("ESC", 36) ]
    fs;
  let msg n =
    match List.nth_opt fs n with
    | Some f -> f.Finding.msg
    | None -> ""
  in
  Alcotest.(check bool) "names the published global" true
    (contains (msg 0) "'shared'");
  Alcotest.(check bool) "root traced through the field chain" true
    (contains (msg 2) "'gbox'");
  Alcotest.(check bool) "cross-cell field named" true
    (contains (msg 3) "'ob_ready'");
  Alcotest.(check bool) "DLS store flagged" true
    (contains (msg 4) "Domain.DLS.set")

(* --- U1: unused exports --------------------------------------------------- *)

(* The fixture interface exports [unused] (referenced nowhere),
   [via_alias] and [via_open] (referenced from another unit through
   [module U = Ulib] and [open Ulib]), [via_ref] (referenced only from the
   ref-dir unit) and [stale] (referenced, under a stale suppression). *)
let u1_cfg =
  {
    Aconfig.empty with
    Aconfig.cmt_dirs = [ "_build/default/test/unused_fixtures/lib" ];
    Aconfig.ref_dirs = [ "_build/default/test/unused_fixtures/ref" ];
    Aconfig.layer_rank = [ ("lrp_ufix", 0) ];
  }

let u1_run cfg =
  let findings, stats = Adriver.run ~root:(repo_root ()) cfg in
  Alcotest.(check int) "every export checked" 5 stats.Adriver.exports;
  findings

let rule r fs = List.filter (fun f -> f.Finding.rule = r) fs

let test_u1_unused () =
  match rule "U1" (u1_run u1_cfg) with
  | [ f ] ->
      Alcotest.(check string) "reported in the interface"
        "ulib.mli" (Filename.basename f.Finding.file);
      Alcotest.(check int) "at the val" 1 f.Finding.line;
      Alcotest.(check bool) "names the export" true
        (contains f.Finding.msg "Ulib.unused")
  | fs -> Alcotest.failf "expected one U1 finding, got %d" (List.length fs)

let test_u1_references () =
  let names cfg =
    List.map (fun f -> f.Finding.msg) (rule "U1" (u1_run cfg))
  in
  Alcotest.(check bool) "alias, open and ref-dir references count" true
    (List.for_all
       (fun m ->
         not
           (List.exists (contains m) [ "via_alias"; "via_open"; "via_ref" ]))
       (names u1_cfg));
  Alcotest.(check int) "without the ref-dir, via_ref is unused too" 2
    (List.length (names { u1_cfg with Aconfig.ref_dirs = [] }))

let test_u1_stale_suppression () =
  check_rl "a U1 suppression over a referenced export is stale"
    [ ("SUP", 6) ]
    (rule "SUP" (u1_run u1_cfg))

(* --- U2: unused fields, constructors, parameters, optional arguments ---- *)

(* The fixture declares a field and a constructor, and exports functions
   with parameters and optional arguments, each used through [module U =
   U2lib], through [let open U2lib], only from the ref-dir unit, or not
   at all; [pinned]'s ignored parameter carries a suppression. *)
let u2_cfg =
  {
    Aconfig.empty with
    Aconfig.cmt_dirs = [ "_build/default/test/unused_fixtures/u2lib" ];
    Aconfig.ref_dirs = [ "_build/default/test/unused_fixtures/u2ref" ];
    Aconfig.lib_scope = [ "u2lib" ];
    Aconfig.layer_rank = [ ("lrp_u2fix", 0) ];
  }

let u2_findings cfg =
  List.map
    (fun f -> (Filename.basename f.Finding.file, f.Finding.line))
    (rule "U2" (fst (Adriver.run ~root:(repo_root ()) cfg)))

let test_u2_fires () =
  Alcotest.(check (list (pair string int)))
    "unread field, unbuilt constructor, unused and ignored parameters, \
     unpassed optional"
    [ ("u2lib.ml", 2); ("u2lib.ml", 9); ("u2lib.ml", 12); ("u2lib.ml", 13);
      ("u2lib.mli", 19) ]
    (u2_findings u2_cfg);
  let _, stats = Adriver.run ~root:(repo_root ()) u2_cfg in
  Alcotest.(check int) "fields, constructors, optionals, functions" 21
    stats.Adriver.members;
  Alcotest.(check int) "no SUP: the suppression is claimed" 0
    (List.length (rule "SUP" (fst (Adriver.run ~root:(repo_root ()) u2_cfg))))

let test_u2_references () =
  Alcotest.(check (list (pair string int)))
    "without the ref-dir, the via_ref uses are gone too"
    [ ("u2lib.ml", 2); ("u2lib.ml", 5); ("u2lib.ml", 9); ("u2lib.ml", 9);
      ("u2lib.ml", 12); ("u2lib.ml", 13); ("u2lib.ml", 20);
      ("u2lib.mli", 19); ("u2lib.mli", 19) ]
    (u2_findings { u2_cfg with Aconfig.ref_dirs = [] })

(* --- conf parser -------------------------------------------------------- *)

let test_conf_parse () =
  let text =
    "# comment\n\
     cmt-dir _build/default/lib\n\
     ref-dir _build/default/test\n\
     entry Engine.run_batch   # trailing comment\n\
     follow lib/engine\n\
     assume Trace.dump\n\
     escape-dir lib/net\n\
     cross-cell-field ob_pkt\n\
     escape-sanction Fabric.uplink_forward\n\
     allocating List.map\n\
     rng-file lib/engine/rng.ml\n\
     wallclock-file bin/lrp_sim_cli.ml\n\
     det-file lib/core/det.ml\n\
     d3-file lib/proto/tcp.ml conn timer\n\
     d4-dir lib/net\n\
     lib-scope lib\n\
     c2-dir lib/engine\n\
     layer lrp_engine 1\n"
  in
  (match Aconfig.parse text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok c ->
      Alcotest.(check (list string)) "cmt dirs" [ "_build/default/lib" ]
        c.Aconfig.cmt_dirs;
      Alcotest.(check (list string)) "ref dirs" [ "_build/default/test" ]
        c.Aconfig.ref_dirs;
      Alcotest.(check (list string)) "entries" [ "Engine.run_batch" ]
        c.Aconfig.entries;
      Alcotest.(check (list string)) "follow" [ "lib/engine" ]
        c.Aconfig.follow_dirs;
      Alcotest.(check (list string)) "assume" [ "Trace.dump" ] c.Aconfig.assume;
      Alcotest.(check (list string)) "escape dirs" [ "lib/net" ]
        c.Aconfig.escape_dirs;
      Alcotest.(check (list string)) "cross fields" [ "ob_pkt" ]
        c.Aconfig.cross_cell_fields;
      Alcotest.(check (list string)) "sanctions" [ "Fabric.uplink_forward" ]
        c.Aconfig.escape_sanctions;
      Alcotest.(check (list string)) "allocating" [ "List.map" ]
        c.Aconfig.allocating_extra;
      Alcotest.(check (list string)) "rng files" [ "lib/engine/rng.ml" ]
        c.Aconfig.rng_files;
      Alcotest.(check (list string)) "wallclock files" [ "bin/lrp_sim_cli.ml" ]
        c.Aconfig.wallclock_files;
      Alcotest.(check (list string)) "det files" [ "lib/core/det.ml" ]
        c.Aconfig.det_files;
      Alcotest.(check (list (pair string (list string)))) "d3 files"
        [ ("lib/proto/tcp.ml", [ "conn"; "timer" ]) ] c.Aconfig.d3_files;
      Alcotest.(check (list string)) "d4 dirs" [ "lib/net" ] c.Aconfig.d4_dirs;
      Alcotest.(check (list string)) "lib scope" [ "lib" ] c.Aconfig.lib_scope;
      Alcotest.(check (list string)) "c2 dirs" [ "lib/engine" ]
        c.Aconfig.c2_dirs;
      Alcotest.(check (list (pair string int))) "layers" [ ("lrp_engine", 1) ]
        c.Aconfig.layer_rank);
  List.iter
    (fun bad ->
      match Aconfig.parse ("entry A.b\n" ^ bad ^ "\n") with
      | Error e ->
          Alcotest.(check bool) (bad ^ ": error names the line") true
            (contains e "line 2")
      | Ok _ -> Alcotest.failf "%S must not parse" bad)
    [ "bogus-directive x"; "layer lrp_x high"; "layer lrp_x"; "d3-file f.ml" ]

(* --- report format ------------------------------------------------------ *)

let test_golden_json () =
  let findings, _ = Lazy.force master in
  let got = Finding.to_json (Finding.sort findings) in
  let golden_path =
    Filename.concat (repo_root ()) "test/allocheck_fixtures/golden.json"
  in
  (* ALLOCHECK_GOLDEN_REGEN=1 dune test rewrites the golden file in
     place; review the diff before committing it. *)
  if Sys.getenv_opt "ALLOCHECK_GOLDEN_REGEN" <> None then
    Out_channel.with_open_bin golden_path (fun oc ->
        Out_channel.output_string oc got);
  let want = In_channel.with_open_bin golden_path In_channel.input_all in
  (match Lrp_trace.Json.parse got with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "allocheck JSON does not parse: %s" e);
  Alcotest.(check string) "golden JSON report" want got

(* --- the gate: zero findings on the live tree --------------------------- *)

let test_self_check () =
  let root = repo_root () in
  let cfg =
    match Aconfig.load (Filename.concat root "allocheck.conf") with
    | Ok c -> c
    | Error e -> Alcotest.failf "allocheck.conf does not load: %s" e
  in
  let findings, stats = Adriver.run ~root cfg in
  (* Guard against a silently-degenerate run: the live gate covers many
     entry points, their transitive callees, every cell-resident
     function, and every lib/ and bin/ unit with its dune file. *)
  Alcotest.(check bool) "loaded a real build (.cmt count)" true
    (stats.Adriver.cmt_files >= 80);
  Alcotest.(check bool) "walked the hot paths" true
    (stats.Adriver.funcs_analyzed >= 90);
  Alcotest.(check bool) "escape-checked the cell dirs" true
    (stats.Adriver.escape_funcs >= 500);
  Alcotest.(check bool) "ran the source rules on every unit" true
    (stats.Adriver.src_units >= 55);
  Alcotest.(check bool) "ran L1 on the dune files" true
    (stats.Adriver.dune_files >= 14);
  Alcotest.(check bool) "checked every library export" true
    (stats.Adriver.exports >= 500);
  Alcotest.(check bool) "checked the library's fields and parameters (U2)"
    true (stats.Adriver.members >= 1500);
  match findings with
  | [] -> ()
  | fs ->
      Alcotest.failf "live tree has %d analyzer findings:\n%s"
        (List.length fs)
        (String.concat "\n" (List.map Finding.to_text fs))

let suite =
  [
    Alcotest.test_case "CLO fires on captures and partial application" `Quick
      test_clo;
    Alcotest.test_case "BOX fires on float boundaries" `Quick test_box;
    Alcotest.test_case "TUP/REC/VAR/ARR fire on block construction" `Quick
      test_blocks;
    Alcotest.test_case "REF fires unless eliminate_ref applies" `Quick
      test_ref;
    Alcotest.test_case "CALL/FMT fire through the call graph" `Quick test_call;
    Alcotest.test_case "unused alloc suppression is a finding" `Quick test_sup;
    Alcotest.test_case "assume cuts the walk at the boundary" `Quick
      test_assume;
    Alcotest.test_case "CMP walks through an assume boundary" `Quick
      test_assume_cmp;
    Alcotest.test_case "allocating directive extends the call table" `Quick
      test_allocating_extra;
    Alcotest.test_case "unresolved entry is a CFG finding" `Quick
      test_cfg_unresolved;
    Alcotest.test_case "ESC fires on escapes, honours sanctions" `Quick
      test_escape;
    Alcotest.test_case "U1 fires on the one unused export" `Quick
      test_u1_unused;
    Alcotest.test_case "U1 follows aliases, opens and ref-dirs" `Quick
      test_u1_references;
    Alcotest.test_case "stale U1 suppression is a finding" `Quick
      test_u1_stale_suppression;
    Alcotest.test_case "U2 fires on each unused kind" `Quick test_u2_fires;
    Alcotest.test_case "U2 follows aliases, opens and ref-dirs" `Quick
      test_u2_references;
    Alcotest.test_case "conf parser round-trips directives" `Quick
      test_conf_parse;
    Alcotest.test_case "golden JSON report" `Quick test_golden_json;
    Alcotest.test_case "self-check: live tree is allocation-clean" `Quick
      test_self_check;
    Alcotest.test_case "CMP fires on generic compare and hash" `Quick
      test_cmp;
  ]
