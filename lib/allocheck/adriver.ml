(* The lrp_allocheck driver: load .cmt files, walk the configured hot
   paths for allocations, walk the cell-resident directories for escapes,
   run the source rules over every loaded unit and L1 over their dune
   files, check every loaded interface for exports no other unit
   references (U1) and the library scope for fields nothing reads,
   parameters and optional arguments nothing needs and constructors
   nothing builds (U2), both with the ref-dir units as extra referrers,
   then sweep for stale suppressions.

   The allocation pass is a breadth-first closure over the call graph:
   configured entry points seed a work queue, and every resolved
   reference to a function inside [follow_dirs] is enqueued (once).
   Calls that leave the followed directories, and functions listed under
   [assume], are boundaries — their cost is their own contract.  Rule
   CMP is about compares, not allocation, so a second closure walks the
   assumed functions, and what only they reach, for CMP alone.

   The escape pass is not reachability-based (see escape.ml): every
   top-level function in [escape_dirs] is checked.

   An entry that fails to resolve, or a cmt-dir or ref-dir that holds no
   .cmt, is itself a finding (rule CFG) — a renamed hot path or a missing
   build must not silently drop out of the gate. *)

type stats = {
  cmt_files : int;
  funcs_analyzed : int;  (* allocation pass, entries + transitive *)
  escape_funcs : int;  (* escape pass *)
  src_units : int;  (* .ml units checked by the source rules *)
  dune_files : int;  (* dune files checked by L1 *)
  exports : int;  (* exported values checked by U1 *)
  members : int;  (* fields, constructors, parameters, optionals: U2 *)
}

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> Some text
  | exception Sys_error _ -> None

(* The two spellings a conf file may use for one function. *)
let canon_names (m : Cmtload.modl) (fn : Cmtload.func) =
  let short = Cmtload.short_of m.md_key in
  let full = m.md_key ^ "." ^ fn.fn_name in
  if short = m.md_key then [ full ] else [ short ^ "." ^ fn.fn_name; full ]

let listed names set = List.exists (fun n -> List.mem n set) names

let read_source ~root file =
  match read_file (Filename.concat root file) with
  | Some t -> t
  | None -> Option.value (read_file file) ~default:""

let run ~root ?(conf_name = "allocheck.conf") (cfg : Aconfig.t) :
    Finding.t list * stats =
  let load = Cmtload.load ~root cfg.cmt_dirs in
  let findings = ref [] in
  let emit f = findings := f :: !findings in
  let cfg_finding fmt =
    let cfg msg = Finding.v ~rule:"CFG" ~file:conf_name ~line:0 ~col:0 msg in
    Printf.ksprintf (fun msg -> emit (cfg msg)) fmt
  in
  let ref_load = Cmtload.load ~root cfg.ref_dirs in
  List.iter
    (fun (kind, dirs) ->
      List.iter
        (cfg_finding
           "%s '%s' holds no .cmt files (not built? run 'dune build @check')"
           kind)
        dirs)
    [ ("cmt-dir", load.empty_dirs); ("ref-dir", ref_load.empty_dirs) ];

  (* Per-file suppression tables, one per grammar, filled lazily as the
     passes reach files; every file touched is swept for unused entries
     at the end. *)
  let tables =
    [ (Suppress.alloc, Hashtbl.create 32); (Suppress.lint, Hashtbl.create 64) ]
  in
  let supp_in g file =
    let tbl = List.assq g tables in
    match Hashtbl.find_opt tbl file with
    | Some s -> s
    | None ->
        let s = Suppress.scan g (read_source ~root file) in
        Hashtbl.replace tbl file s;
        s
  in
  let supp_for = supp_in Suppress.alloc in

  (* --- allocation pass ------------------------------------------- *)
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let queue : (Cmtload.modl * Cmtload.func) Queue.t = Queue.create () in
  let assumed : (Cmtload.modl * Cmtload.func) Queue.t = Queue.create () in
  let enqueue_in q (m : Cmtload.modl) (fn : Cmtload.func) =
    let key = m.md_key ^ "." ^ fn.fn_name in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      Queue.add (m, fn) q
    end
  in
  let enqueue = enqueue_in queue in
  List.iter
    (fun entry ->
      match Cmtload.resolve_name load entry with
      | Some (m, fn) -> enqueue m fn
      | None ->
          cfg_finding
            "entry '%s' does not resolve to a loaded binding (not built, \
             renamed, or misspelled?)"
            entry)
    cfg.entries;
  let funcs_analyzed = ref 0 in
  Cmtload.init_typing load;
  let aliases = Hashtbl.create 64 in
  let aliases_of (m : Cmtload.modl) =
    match Hashtbl.find_opt aliases m.md_key with
    | Some a -> a
    | None ->
        let a = Srcrules.unit_aliases m.md_str in
        Hashtbl.replace aliases m.md_key a;
        a
  in
  let walk ~cmp_only q (m : Cmtload.modl) fn =
    Allocwalk.analyze
      {
        Allocwalk.load;
        current = m;
        aliases = aliases_of m;
        file = m.md_source;
        supp = supp_for m.md_source;
        allocating_extra = cfg.allocating_extra;
        cmp_only;
        emit;
        edge =
          (fun m' fn' ->
            if Pathspec.in_dirs m'.Cmtload.md_source cfg.follow_dirs then
              enqueue_in q m' fn');
      }
      fn
  in
  while not (Queue.is_empty queue) do
    let m, fn = Queue.pop queue in
    if listed (canon_names m fn) cfg.assume then Queue.add (m, fn) assumed
    else begin
      incr funcs_analyzed;
      walk ~cmp_only:false queue m fn
    end
  done;
  while not (Queue.is_empty assumed) do
    let m, fn = Queue.pop assumed in
    walk ~cmp_only:true assumed m fn
  done;

  (* --- escape pass ------------------------------------------------ *)
  let escape_funcs = ref 0 in
  let mods = List.map snd (Lrp_det.Det.bindings load.mods) in
  let escape_mods =
    List.filter
      (fun (m : Cmtload.modl) -> Pathspec.in_dirs m.md_source cfg.escape_dirs)
      mods
  in
  List.iter
    (fun (m : Cmtload.modl) ->
      List.iter
        (fun (fn : Cmtload.func) ->
          incr escape_funcs;
          let ctx =
            {
              Escape.top_ids = m.md_top_ids;
              cross_fields = cfg.cross_cell_fields;
              sanctioned = listed (canon_names m fn) cfg.escape_sanctions;
              file = m.md_source;
              supp = supp_for m.md_source;
              emit;
            }
          in
          Escape.check_fn ctx fn)
        m.md_funcs)
    escape_mods;

  (* --- source rules: every loaded implementation ------------------ *)
  let units =
    List.filter
      (fun (m : Cmtload.modl) -> Filename.check_suffix m.md_source ".ml")
      mods
  in
  List.iter
    (fun (m : Cmtload.modl) ->
      Srcrules.check_unit ~cfg ~file:m.md_source
        ~supp:(supp_in Suppress.lint m.md_source) ~emit m.md_str)
    units;

  (* --- L1: the dune file beside every checked unit ---------------- *)
  let dune_files =
    List.sort_uniq String.compare
      (List.map
         (fun (m : Cmtload.modl) -> Filename.dirname m.md_source ^ "/dune")
         units)
    |> List.filter_map (fun file ->
           Option.map (fun text -> (file, text))
             (read_file (Filename.concat root file)))
  in
  List.iter
    (fun (file, text) ->
      List.iter emit (Layers.check_file ~ranks:cfg.layer_rank ~file text))
    dune_files;

  (* --- U1 and U2: unused exports, and unused surface inside them --- *)
  let census = Unused.census () in
  List.iter
    (fun (m : Cmtload.modl) ->
      Unused.references ~key:m.md_key ~top:m.md_top_ids m.md_str census)
    (mods @ List.map snd (Lrp_det.Det.bindings ref_load.mods));
  let exports =
    Unused.check load census ~supp_in:(supp_in Suppress.lint) ~emit
  in
  let members =
    Unused.check_u2 load census ~scope:cfg.lib_scope
      ~supp_in:(supp_in Suppress.lint) ~emit
  in

  (* --- stale suppressions ----------------------------------------- *)
  List.iter
    (fun (g, tbl) ->
      Lrp_det.Det.iter_sorted
        (fun file s -> List.iter emit (Suppress.unused g s ~file))
        tbl)
    tables;

  ( Finding.sort !findings,
    {
      cmt_files = load.cmt_files;
      funcs_analyzed = !funcs_analyzed;
      escape_funcs = !escape_funcs;
      src_units = List.length units;
      dune_files = List.length dune_files;
      exports;
      members;
    } )
