(* lrp_lint — the determinism-and-layering linter.

     lrp_lint [--json] [--out FILE] [PATH...]

   Scans the given files/directories (default: lib bin) and prints
   findings; exits 0 on a clean tree, 1 when there are findings, 2 on
   usage errors.  --json switches stdout to the machine-readable report;
   --out additionally writes the report to FILE (CI uploads it as an
   artifact on failure).  Rules are documented in DESIGN.md §11. *)

let usage () =
  prerr_endline "usage: lrp_lint [--json] [--out FILE] [PATH...]";
  prerr_endline "  PATH defaults to: lib bin";
  exit 2

let () =
  let json = ref false in
  let out = ref None in
  let paths = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--json" :: rest ->
        json := true;
        parse_args rest
    | "--out" :: file :: rest ->
        out := Some file;
        parse_args rest
    | ("--help" | "-h") :: _ | "--out" :: [] -> usage ()
    | arg :: _ when String.length arg > 0 && arg.[0] = '-' -> usage ()
    | path :: rest ->
        paths := path :: !paths;
        parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let paths =
    match List.rev !paths with [] -> [ "lib"; "bin" ] | ps -> ps
  in
  List.iter
    (fun p ->
      if not (Sys.file_exists p) then begin
        Printf.eprintf "lrp_lint: no such path: %s\n" p;
        exit 2
      end)
    paths;
  let findings, stats = Lrp_lint.Driver.run paths in
  let report =
    if !json then Lrp_lint.Finding.to_json findings
    else
      String.concat ""
        (List.map
           (fun f -> Lrp_lint.Finding.to_text f ^ "\n")
           findings)
  in
  print_string report;
  if not !json then
    Printf.printf "lrp_lint: %d finding%s in %d .ml, %d .mli, %d dune files\n"
      (List.length findings)
      (if List.length findings = 1 then "" else "s")
      stats.Lrp_lint.Driver.ml_files stats.Lrp_lint.Driver.mli_files
      stats.Lrp_lint.Driver.dune_files;
  (match !out with
  | None -> ()
  | Some file ->
      let oc = open_out file in
      output_string oc
        (if !json then report else Lrp_lint.Finding.to_json findings);
      close_out oc);
  exit (if findings = [] then 0 else 1)
