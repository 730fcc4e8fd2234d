(* Configuration for lrp_allocheck.

   The analyzer is scoped by an explicit, checked-in configuration
   (allocheck.conf at the repo root for the live tree; tests build their
   own records) rather than by heuristics: the zero-allocation contract
   covers exactly the entry points named here plus their transitive
   callees inside the followed directories, and the escape rules cover
   exactly the cell-resident directories.  Everything else in the tree is
   free to allocate — experiments, reporting and setup code are supposed
   to.

   Function names are written [Module.func] using the short module name
   ("Engine.drain") or the full compilation-unit name
   ("Lrp_engine__Engine.drain"); submodule bindings use
   [Module.Sub.func]. *)

type t = {
  cmt_dirs : string list;
      (* Build-relative directories scanned for .cmt files, e.g.
         "_build/default/lib".  Only modules found here are loadable. *)
  entries : string list;
      (* Hot-path entry points: roots of the allocation walk. *)
  follow_dirs : string list;
      (* Source directories whose functions are analyzed transitively
         when reached from an entry.  Calls leaving these directories are
         treated as boundaries (the callee's own cost is its own
         contract). *)
  assume : string list;
      (* Functions treated as boundaries even when reached inside
         [follow_dirs] — used for modelled-cost machinery that is
         documented to allocate (with the reason recorded here, in the
         conf file comments). *)
  escape_dirs : string list;
      (* Cell-resident source directories: every top-level function here
         is checked for stores that publish values to module-level or
         cross-cell state (the interprocedural form of lint rule C2). *)
  cross_cell_fields : string list;
      (* Record/array fields that other cells read: the uplink outbox
         columns.  Stores into them are findings unless the writer is
         sanctioned. *)
  escape_sanctions : string list;
      (* Functions allowed to write cross-cell or domain-local state:
         the uplink outbox writers and the per-domain Idspace install. *)
  allocating_extra : string list;
      (* Additional fully-applied stdlib calls to treat as allocating,
         beyond the built-in table in Allocwalk. *)
}

let empty =
  {
    cmt_dirs = [];
    entries = [];
    follow_dirs = [];
    assume = [];
    escape_dirs = [];
    cross_cell_fields = [];
    escape_sanctions = [];
    allocating_extra = [];
  }

(* ------------------------------------------------------------------ *)
(* Conf-file parser: one directive per line, '#' comments.             *)
(*                                                                     *)
(*   cmt-dir _build/default/lib                                        *)
(*   entry Engine.drain                                                *)
(*   follow lib/engine                                                 *)
(*   assume Trace.dump                                                 *)
(*   escape-dir lib/net                                                *)
(*   cross-cell-field ob_pkt                                           *)
(*   escape-sanction Fabric.uplink_forward                             *)
(*   allocating List.map                                               *)
(* ------------------------------------------------------------------ *)

let parse text : (t, string) result =
  let err = ref None in
  let cfg = ref empty in
  let add f v = cfg := f !cfg v in
  List.iteri
    (fun i line ->
      if !err = None then
        let line =
          match String.index_opt line '#' with
          | Some j -> String.sub line 0 j
          | None -> line
        in
        let line = String.trim line in
        if line <> "" then
          match String.index_opt line ' ' with
          | None -> err := Some (Printf.sprintf "line %d: missing argument" (i + 1))
          | Some j ->
              let key = String.sub line 0 j in
              let v = String.trim (String.sub line j (String.length line - j)) in
              let app f = add (fun c v -> f c v) v in
              (match key with
              | "cmt-dir" -> app (fun c v -> { c with cmt_dirs = c.cmt_dirs @ [ v ] })
              | "entry" -> app (fun c v -> { c with entries = c.entries @ [ v ] })
              | "follow" ->
                  app (fun c v -> { c with follow_dirs = c.follow_dirs @ [ v ] })
              | "assume" -> app (fun c v -> { c with assume = c.assume @ [ v ] })
              | "escape-dir" ->
                  app (fun c v -> { c with escape_dirs = c.escape_dirs @ [ v ] })
              | "cross-cell-field" ->
                  app (fun c v ->
                      { c with cross_cell_fields = c.cross_cell_fields @ [ v ] })
              | "escape-sanction" ->
                  app (fun c v ->
                      { c with escape_sanctions = c.escape_sanctions @ [ v ] })
              | "allocating" ->
                  app (fun c v ->
                      { c with allocating_extra = c.allocating_extra @ [ v ] })
              | _ ->
                  err :=
                    Some (Printf.sprintf "line %d: unknown directive %S" (i + 1) key)))
    (String.split_on_char '\n' text);
  match !err with Some e -> Error e | None -> Ok !cfg

let load path : (t, string) result =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | text -> parse text
  | exception Sys_error e -> Error e
