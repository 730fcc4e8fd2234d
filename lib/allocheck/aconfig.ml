(* Configuration for lrp_allocheck.

   The analyzer is scoped by an explicit, checked-in configuration
   (allocheck.conf at the repo root for the live tree; tests build their
   own records) rather than by heuristics: the zero-allocation contract
   covers exactly the entry points named here plus their transitive
   callees inside the followed directories, the escape rules cover
   exactly the cell-resident directories, and each source rule's
   exemptions and scopes are listed here.  Everything else in the tree is
   free to allocate — experiments, reporting and setup code are supposed
   to.

   Function names are written [Module.func] using the short module name
   ("Engine.drain") or the full compilation-unit name
   ("Lrp_engine__Engine.drain"); submodule bindings use
   [Module.Sub.func]. *)

type t = {
  cmt_dirs : string list;
      (* Build-relative directories scanned for .cmt files, e.g.
         "_build/default/lib".  Only modules found here are loadable, and
         every loaded unit is checked by the source rules and L1. *)
  ref_dirs : string list;
      (* Build-relative directories whose .cmt files only supply
         references for U1 (tests, benchmarks, examples); no rule runs
         on their units. *)
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
         cross-cell state (the interprocedural form of rule C2). *)
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
  rng_files : string list;
      (* D1: the one module allowed to own ambient nondeterminism. *)
  wallclock_files : string list;
      (* D1: wall-clock reads allowed (Random.* stays banned). *)
  det_files : string list;
      (* D2: the sorted-iteration helper implementation itself. *)
  d3_files : (string * string list) list;
      (* D3: files whose float-carrying or mutable record types make
         polymorphic compare hazardous, with the type names for the
         message. *)
  d4_dirs : string list;
      (* D4: hot-path directories where a Hashtbl probe with a literal
         tuple/record key is banned. *)
  lib_scope : string list;
      (* C1/P1 and U2 apply only under these path components (library
         code). *)
  c2_dirs : string list;
      (* C2: directories whose code runs cell-parallel under Shardsim. *)
  layer_rank : (string * int) list;
      (* L1: library name -> layer rank; dependencies point strictly
         down. *)
}

let empty =
  {
    cmt_dirs = [];
    ref_dirs = [];
    entries = [];
    follow_dirs = [];
    assume = [];
    escape_dirs = [];
    cross_cell_fields = [];
    escape_sanctions = [];
    allocating_extra = [];
    rng_files = [];
    wallclock_files = [];
    det_files = [];
    d3_files = [];
    d4_dirs = [];
    lib_scope = [];
    c2_dirs = [];
    layer_rank = [];
  }

(* ------------------------------------------------------------------ *)
(* Conf-file parser: one directive per line, '#' comments.             *)
(*                                                                     *)
(*   cmt-dir _build/default/lib                                        *)
(*   ref-dir _build/default/test                                       *)
(*   entry Engine.drain                                                *)
(*   follow lib/engine                                                 *)
(*   assume Trace.dump                                                 *)
(*   escape-dir lib/net                                                *)
(*   cross-cell-field ob_pkt                                           *)
(*   escape-sanction Fabric.uplink_forward                             *)
(*   allocating List.map                                               *)
(*   rng-file lib/engine/rng.ml                                        *)
(*   wallclock-file bin/lrp_sim_cli.ml                                 *)
(*   det-file lib/core/det.ml                                          *)
(*   d3-file lib/proto/tcp.ml conn timer                               *)
(*   d4-dir lib/net                                                    *)
(*   lib-scope lib                                                     *)
(*   c2-dir lib/engine                                                 *)
(*   layer lrp_engine 1                                                *)
(* ------------------------------------------------------------------ *)

let directive c key v =
  match (key, List.filter (fun w -> w <> "") (String.split_on_char ' ' v)) with
  | "cmt-dir", _ -> Ok { c with cmt_dirs = c.cmt_dirs @ [ v ] }
  | "ref-dir", _ -> Ok { c with ref_dirs = c.ref_dirs @ [ v ] }
  | "entry", _ -> Ok { c with entries = c.entries @ [ v ] }
  | "follow", _ -> Ok { c with follow_dirs = c.follow_dirs @ [ v ] }
  | "assume", _ -> Ok { c with assume = c.assume @ [ v ] }
  | "escape-dir", _ -> Ok { c with escape_dirs = c.escape_dirs @ [ v ] }
  | "cross-cell-field", _ ->
      Ok { c with cross_cell_fields = c.cross_cell_fields @ [ v ] }
  | "escape-sanction", _ ->
      Ok { c with escape_sanctions = c.escape_sanctions @ [ v ] }
  | "allocating", _ ->
      Ok { c with allocating_extra = c.allocating_extra @ [ v ] }
  | "rng-file", _ -> Ok { c with rng_files = c.rng_files @ [ v ] }
  | "wallclock-file", _ ->
      Ok { c with wallclock_files = c.wallclock_files @ [ v ] }
  | "det-file", _ -> Ok { c with det_files = c.det_files @ [ v ] }
  | "d3-file", file :: (_ :: _ as types) ->
      Ok { c with d3_files = c.d3_files @ [ (file, types) ] }
  | "d3-file", _ -> Error "d3-file wants FILE TYPE..."
  | "d4-dir", _ -> Ok { c with d4_dirs = c.d4_dirs @ [ v ] }
  | "lib-scope", _ -> Ok { c with lib_scope = c.lib_scope @ [ v ] }
  | "c2-dir", _ -> Ok { c with c2_dirs = c.c2_dirs @ [ v ] }
  | "layer", [ lib; rank ] when int_of_string_opt rank <> None ->
      Ok { c with layer_rank = c.layer_rank @ [ (lib, int_of_string rank) ] }
  | "layer", _ -> Error "layer wants LIB RANK (an integer)"
  | _ -> Error (Printf.sprintf "unknown directive %S" key)

let parse text : (t, string) result =
  let line_of i c line =
    let line =
      match String.index_opt line '#' with
      | Some j -> String.sub line 0 j
      | None -> line
    in
    let line = String.trim line in
    if line = "" then Ok c
    else
      Result.map_error (Printf.sprintf "line %d: %s" (i + 1))
        (match String.index_opt line ' ' with
        | None -> Error "missing argument"
        | Some j ->
            directive c (String.sub line 0 j)
              (String.trim (String.sub line j (String.length line - j))))
  in
  let rec go i c = function
    | [] -> Ok c
    | l :: rest -> Result.bind (line_of i c l) (fun c -> go (i + 1) c rest)
  in
  go 0 empty (String.split_on_char '\n' text)

let load path : (t, string) result =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> parse text
  | exception Sys_error e -> Error e
