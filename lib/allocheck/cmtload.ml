(* Loading the Typedtree from dune's .cmt output.

   Dune compiles every library module with binary annotations; this
   module walks a build directory (e.g. _build/default/lib), reads each
   .cmt, and indexes the top-level value bindings of every compilation
   unit so the analyzer can resolve a reference like
   [Pdot (Pdot (Pident Lrp_engine, "Eheap"), "pop_leq_into")] — the
   shape dune's wrapped-library aliases produce — back to the function's
   typedtree.

   Submodule bindings are indexed under compound names ("Sub.f"), and a
   per-short-name index ("Engine" -> "Lrp_engine__Engine") lets config
   files use readable names.  The .cmti beside a unit gives its
   interface's signature, whose exported values rule U1 checks. *)

type func = {
  fn_name : string;  (* "drain", or "Sub.f" for submodule bindings *)
  fn_ident : Ident.t;
  fn_expr : Typedtree.expression;
  fn_inline : bool;  (* declared [let[@inline] ...] *)
}

type modl = {
  md_key : string;  (* compilation-unit name, e.g. "Lrp_engine__Engine" *)
  md_source : string;  (* source path as recorded in the cmt *)
  md_funcs : func list;  (* top-level value bindings, in structure order *)
  md_top_ids : Ident.t list;  (* every module-level bound value ident *)
  md_str : Typedtree.structure;  (* the whole unit, for the source rules *)
}

type t = {
  mods : (string, modl) Hashtbl.t;
  intfs : (string, string * Typedtree.signature) Hashtbl.t;
      (* compilation-unit name -> its .mli path and signature (.cmti) *)
  shorts : (string, string list) Hashtbl.t;  (* short name -> keys *)
  mutable cmt_files : int;
  mutable empty_dirs : string list;  (* configured dirs that held no .cmt *)
  mutable cmi_dirs : string list;  (* dirs holding .cmi files, for [Envaux] *)
}

(* All value idents bound by a pattern (top-level lets can be tuples). *)
let rec pat_idents : type k. k Typedtree.general_pattern -> Ident.t list =
 fun p ->
  let open Typedtree in
  match p.pat_desc with
  | Tpat_var (id, _) -> [ id ]
  | Tpat_alias (p, id, _) -> id :: pat_idents p
  | Tpat_tuple ps -> List.concat_map pat_idents ps
  | Tpat_construct (_, _, ps, _) -> List.concat_map pat_idents ps
  | Tpat_variant (_, Some p, _) -> pat_idents p
  | Tpat_record (fields, _) ->
      List.concat_map (fun (_, _, p) -> pat_idents p) fields
  | Tpat_array ps -> List.concat_map pat_idents ps
  | Tpat_lazy p -> pat_idents p
  | Tpat_or (a, b, _) -> pat_idents a @ pat_idents b
  | Tpat_value v -> pat_idents (v :> value general_pattern)
  | Tpat_exception p -> pat_idents p
  | _ -> []

(* [@inline] / [@ocaml.inline] (but not [@inline never]). *)
let is_inline (a : Parsetree.attribute) =
  match a.attr_name.txt with
  | "inline" | "ocaml.inline" -> (
      match a.attr_payload with
      | PStr [] -> true
      | PStr
          [ { pstr_desc =
                Pstr_eval ({ pexp_desc = Pexp_ident { txt = Lident "always"; _ }; _ }, _);
              _ } ] ->
          true
      | _ -> false)
  | _ -> false

let funcs_of_structure (str : Typedtree.structure) =
  let funcs = ref [] in
  let top_ids = ref [] in
  let rec item prefix (it : Typedtree.structure_item) =
    match it.str_desc with
    | Tstr_value (_, vbs) ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            let ids = pat_idents vb.vb_pat in
            top_ids := ids @ !top_ids;
            match vb.vb_pat.pat_desc with
            | Tpat_var (id, name) ->
                funcs :=
                  {
                    fn_name = prefix ^ name.txt;
                    fn_ident = id;
                    fn_expr = vb.vb_expr;
                    fn_inline = List.exists is_inline vb.vb_attributes;
                  }
                  :: !funcs
            | _ -> ())
          vbs
    | Tstr_module mb -> module_binding prefix mb
    | Tstr_recmodule mbs -> List.iter (module_binding prefix) mbs
    | _ -> ()
  and module_binding prefix (mb : Typedtree.module_binding) =
    match (mb.mb_id, mb.mb_expr.mod_desc) with
    | Some id, Tmod_structure sub ->
        List.iter (item (prefix ^ Ident.name id ^ ".")) sub.str_items
    | Some id, Tmod_constraint ({ mod_desc = Tmod_structure sub; _ }, _, _, _)
      ->
        List.iter (item (prefix ^ Ident.name id ^ ".")) sub.str_items
    | _ -> ()
  in
  List.iter (item "") str.str_items;
  (List.rev !funcs, !top_ids)

let short_of key =
  (* "Lrp_engine__Engine" -> "Engine"; plain names map to themselves. *)
  let rec last_sep i =
    if i + 1 >= String.length key then None
    else if key.[i] = '_' && key.[i + 1] = '_' then
      match last_sep (i + 2) with Some j -> Some j | None -> Some (i + 2)
    else last_sep (i + 1)
  in
  match last_sep 0 with
  | Some j -> String.sub key j (String.length key - j)
  | None -> key

let add_cmt t path =
  match Cmt_format.read_cmt path with
  | exception _ -> ()  (* stale or foreign cmt: not our problem *)
  | cmt -> (
      match (cmt.cmt_annots, cmt.cmt_sourcefile) with
      | Cmt_format.Interface sg, Some source ->
          Hashtbl.replace t.intfs cmt.cmt_modname
            (Pathspec.normalize source, sg)
      | Cmt_format.Implementation str, Some source ->
          t.cmt_files <- t.cmt_files + 1;
          let funcs, top_ids = funcs_of_structure str in
          let key = cmt.cmt_modname in
          let m =
            {
              md_key = key;
              md_source = Pathspec.normalize source;
              md_funcs = funcs;
              md_top_ids = top_ids;
              md_str = str;
            }
          in
          Hashtbl.replace t.mods key m;
          let short = short_of key in
          if short <> key then
            Hashtbl.replace t.shorts short
              (key :: (try Hashtbl.find t.shorts short with Not_found -> []))
      | _ -> ())

let rec scan_dir t dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | entries ->
      Array.sort String.compare entries;
      if Array.exists (fun e -> Filename.check_suffix e ".cmi") entries then
        t.cmi_dirs <- t.cmi_dirs @ [ dir ];
      Array.iter
        (fun e ->
          let p = Filename.concat dir e in
          if Sys.is_directory p then scan_dir t p
          else if
            Filename.check_suffix e ".cmt" || Filename.check_suffix e ".cmti"
          then add_cmt t p)
        entries

let load ~root dirs =
  let t =
    { mods = Hashtbl.create 64; intfs = Hashtbl.create 64;
      shorts = Hashtbl.create 64; cmt_files = 0; empty_dirs = [];
      cmi_dirs = [] }
  in
  List.iter
    (fun d ->
      let before = t.cmt_files in
      scan_dir t (Filename.concat root d);
      if t.cmt_files = before then t.empty_dirs <- t.empty_dirs @ [ d ])
    dirs;
  t

let find_mod t key = Hashtbl.find_opt t.mods key

(* Put the loaded units' interfaces, then the standard library, on the
   compiler's load path, so [Envaux] can rebuild the typing environment
   an expression was checked in (the walk asks it how ocamlopt sees a
   type: rule CMP). *)
let init_typing t =
  Load_path.init ~auto_include:Load_path.no_auto_include
    (t.cmi_dirs @ [ Config.standard_library ]);
  Envaux.reset_cache ()

(* Resolve a dotted [Module.func] name from a config file. *)
let resolve_name t name =
  match String.rindex_opt name '.' with
  | None -> None
  | Some _ ->
      (* Try every module/value split, longest module prefix first. *)
      let comps = String.split_on_char '.' name in
      let n = List.length comps in
      let rec try_split k =
        if k = 0 then None
        else
          let mods = List.filteri (fun i _ -> i < k) comps in
          let value =
            String.concat "." (List.filteri (fun i _ -> i >= k) comps)
          in
          let keys =
            let joined = String.concat "__" mods in
            joined
            :: (match mods with
               | [ m ] -> ( try Hashtbl.find t.shorts m with Not_found -> [])
               | _ -> [])
          in
          let hit =
            List.find_map
              (fun key ->
                match Hashtbl.find_opt t.mods key with
                | None -> None
                | Some m -> (
                    match
                      List.find_opt (fun f -> f.fn_name = value) m.md_funcs
                    with
                    | Some f -> Some (m, f)
                    | None -> None))
              keys
          in
          (match hit with Some _ -> hit | None -> try_split (k - 1))
      in
      try_split (n - 1)

(* Resolve a typedtree reference from inside [current] to a loaded
   binding.  [Pident] references are same-unit top-level bindings
   (matched by ident, so shadowed names cannot confuse the graph);
   dotted paths go through the wrapped-library name mangling. *)
let resolve_path t ~(current : modl) (path : Path.t) =
  let rec flatten p acc =
    match p with
    | Path.Pident id -> Some (Ident.name id :: acc)
    | Path.Pdot (p, s) -> flatten p (s :: acc)
    | _ -> None
  in
  match path with
  | Path.Pident id ->
      List.find_map
        (fun f -> if Ident.same f.fn_ident id then Some (current, f) else None)
        current.md_funcs
  | _ -> (
      match flatten path [] with
      | None -> None
      | Some comps -> resolve_name t (String.concat "." comps))
