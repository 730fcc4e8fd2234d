(* U1 and U2: no unused surface.

   U1: a value exported by the .mli of a checked unit (one under a
   cmt-dir) that no other compilation unit references is a finding.
   References are the resolved paths of every [Texp_ident] and
   [Tmod_ident] in the checked units and in the reference-only units
   under the ref-dirs (tests, benchmarks, examples), named as the source
   rules name them: through dune's wrapped-library aliases, local module
   aliases and opens.  A module path used whole — [include M], a functor
   argument, a packed first-class module — references every value under
   it.  A unit's references to its own bindings are plain idents and
   count for nothing: a value only its own module uses need not be
   exported.

   Exported types stay out of U1: code reaches a type through its
   constructors and record labels as well as through paths, so a path
   census would call unused a type that a pattern match depends on.

   U2 looks inside what U1 keeps, in the lib-scope, with the same
   census over the same units (a unit's uses of its own bindings count
   here):
   - a record field that nothing reads, by [r.f] or by a pattern;
   - a parameter of an exported function that its body never uses, or
     only passes to [ignore], when the function is only ever applied (a
     function used as a value may need the parameter for its type);
   - an optional argument of an exported function that no caller passes;
   - a variant constructor that nothing builds.
   Fields and constructors are named by their declaring file, type and
   name, which is what a use's label or constructor description carries
   ([lbl_loc]/[cstr_loc]) whether it reaches the type through the .ml or
   the .mli. *)

open Typedtree

type census = {
  refs : (string, unit) Hashtbl.t;  (* U1: names referenced from outside *)
  values : (string, unit) Hashtbl.t;  (* names used other than applied *)
  passed : (string, unit) Hashtbl.t;  (* "name?label" a caller passes *)
  reads : (string, unit) Hashtbl.t;  (* field keys read *)
  built : (string, unit) Hashtbl.t;  (* constructor keys built *)
}

let census () =
  { refs = Hashtbl.create 4096; values = Hashtbl.create 4096;
    passed = Hashtbl.create 256; reads = Hashtbl.create 1024;
    built = Hashtbl.create 1024 }

let mark tbl k = Hashtbl.replace tbl k ()

(* A field or constructor: its declaring file without extension, its
   type's name and its own. *)
let member_key file ty name =
  Filename.remove_extension (Pathspec.normalize file) ^ "|" ^ ty ^ "|" ^ name

let type_name ty =
  match Types.get_desc ty with Types.Tconstr (p, _, _) -> Path.last p | _ -> ""

let label_key (l : Types.label_description) =
  member_key l.lbl_loc.loc_start.pos_fname (type_name l.lbl_res) l.lbl_name

let cstr_key (c : Types.constructor_description) =
  member_key c.cstr_loc.loc_start.pos_fname (type_name c.cstr_res) c.cstr_name

(* An optional argument the type checker filled in because the caller
   left it out: a [None] with no source location. *)
let omitted (e : expression) =
  match e.exp_desc with
  | Texp_construct (_, { cstr_name = "None"; _ }, []) -> e.exp_loc.loc_ghost
  | _ -> false

(* Add the uses in [str], unit [key] with top-level bindings [top], to
   [c]. *)
let references ~key ~top (str : structure) c =
  let aliases = ref [] in
  let add p = Option.iter (mark c.refs) (Srcrules.resolve !aliases p) in
  (* The name of a value under any binding, its own unit's included. *)
  let name p =
    match (Srcrules.resolve !aliases p, p) with
    | (Some _ as n), _ -> n
    | None, Path.Pident id when List.exists (Ident.same id) top ->
        Some (key ^ "." ^ Ident.name id)
    | None, _ -> None
  in
  let alias id me =
    match Srcrules.alias !aliases id me with
    | Some a ->
        aliases := a :: !aliases;
        true
    | None -> false
  in
  let super = Tast_iterator.default_iterator in
  let expr it e =
    match e.exp_desc with
    | Texp_ident (p, _, _) ->
        add p;
        Option.iter (mark c.values) (name p)
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) ->
        add p;
        List.iter (fun (_, a) -> Option.iter (it.Tast_iterator.expr it) a) args;
        Option.iter
          (fun n ->
            List.iter
              (function
                | Asttypes.Optional l, Some a when not (omitted a) ->
                    mark c.passed (n ^ "?" ^ l)
                | _ -> ())
              args)
          (name p)
    | Texp_field (_, _, l) ->
        mark c.reads (label_key l);
        super.expr it e
    | Texp_construct (_, cd, _) ->
        mark c.built (cstr_key cd);
        super.expr it e
    | Texp_letmodule (id, _, _, me, body) when alias id me ->
        it.Tast_iterator.expr it body
    | _ -> super.expr it e
  in
  let pat : type k. Tast_iterator.iterator -> k general_pattern -> unit =
   fun it p ->
    (match p.pat_desc with
    | Tpat_record (fields, _) ->
        List.iter (fun (_, l, _) -> mark c.reads (label_key l)) fields
    | _ -> ());
    super.pat it p
  in
  let module_expr it me =
    match me.mod_desc with
    | Tmod_ident (p, _) -> add p
    | _ -> super.module_expr it me
  in
  let module_binding it mb =
    if not (alias mb.mb_id mb.mb_expr) then super.module_binding it mb
  in
  (* An open names nothing itself; the paths it makes short are resolved
     in full where they are used. *)
  let open_declaration it od =
    match od.open_expr.mod_desc with
    | Tmod_ident _ -> ()
    | _ -> super.open_declaration it od
  in
  let it =
    { super with expr; pat; module_expr; module_binding; open_declaration }
  in
  it.structure it str

(* The values a signature exports, submodule values as "Sub.f". *)
let rec exports prefix (sg : signature) =
  List.concat_map
    (fun item ->
      match item.sig_desc with
      | Tsig_value vd -> [ (prefix ^ vd.val_name.txt, vd) ]
      | Tsig_module
          { md_name = { txt = Some m; _ };
            md_type = { mty_desc = Tmty_signature sg; _ }; _ } ->
          exports (prefix ^ m ^ ".") sg
      | _ -> [])
    sg.sig_items

(* A unit's spellings: its own name and, for a wrapped library module,
   the library alias paths ("Lrp_net.Nic", "Lrp_net__.Nic"). *)
let spellings key =
  let short = Cmtload.short_of key in
  if short = key then [ key ]
  else
    let lib = String.sub key 0 (String.length key - String.length short - 2) in
    [ key; lib ^ "." ^ short; lib ^ "__." ^ short ]

(* Whether [name] ("f" or "Sub.f") of unit [key] is in [tbl]: by its own
   path, or by the unit or an enclosing submodule used whole, under any
   spelling of the unit. *)
let referenced tbl key name =
  let rec paths acc = function
    | [] -> []
    | c :: rest ->
        let p = if acc = "" then c else acc ^ "." ^ c in
        p :: paths p rest
  in
  let names = paths "" (String.split_on_char '.' name) in
  List.exists
    (fun u ->
      Hashtbl.mem tbl u
      || List.exists (fun p -> Hashtbl.mem tbl (u ^ "." ^ p)) names)
    (spellings key)

(* One finding per unreferenced export of a checked unit's interface,
   unless an [export-ok] suppression in the .mli claims it. *)
let check (load : Cmtload.t) c ~supp_in ~emit =
  let n = ref 0 in
  Lrp_det.Det.iter_sorted
    (fun key (mli, sg) ->
      if Hashtbl.mem load.mods key then
        List.iter
          (fun (name, (vd : value_description)) ->
            incr n;
            if not (referenced c.refs key name) then begin
              let f =
                Finding.at ~rule:"U1" ~file:mli vd.val_loc
                  (Printf.sprintf
                     "unused export: %s.%s is referenced by no other unit; \
                      un-export or delete it"
                     (Cmtload.short_of key) name)
              in
              if not (Srcrules.claim (supp_in mli) ~rule:"U1" ~line:f.line)
              then emit f
            end)
          (exports "" sg))
    load.intfs;
  !n

(* --- U2 ------------------------------------------------------------- *)

(* Whether [body] uses [id] other than as [ignore]'s argument. *)
let uses id body =
  let found = ref false in
  let is_id (e : expression) =
    match e.exp_desc with
    | Texp_ident (Path.Pident i, _, _) -> Ident.same i id
    | _ -> false
  in
  let super = Tast_iterator.default_iterator in
  let expr it e =
    match e.exp_desc with
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, [ (_, Some a) ])
      when Path.name p = "Stdlib.ignore" && is_id a ->
        ()
    | _ when is_id e -> found := true
    | _ -> super.expr it e
  in
  let it = { super with expr } in
  it.expr it body;
  !found

(* The parameters of a function a body never uses, in order: a variable
   it does not use or a wildcard ([()] is an arity marker, not a value).
   Optional parameters are the optional-argument check's. *)
let rec ignored_params (e : expression) =
  match e.exp_desc with
  | Texp_function
      { arg_label; cases = [ { c_lhs; c_guard = None; c_rhs } ]; _ } ->
      let rest =
        match (arg_label, c_rhs.exp_desc) with
        | Asttypes.Optional _, Texp_let (_, _, body) -> ignored_params body
        | _ -> ignored_params c_rhs
      in
      let ignored =
        match (arg_label, c_lhs.pat_desc) with
        | Asttypes.Optional _, _ -> false
        | _, Tpat_any -> true
        | _, Tpat_var (id, _) -> not (uses id c_rhs)
        | _ -> false
      in
      if ignored then c_lhs :: rest else rest
  | _ -> []

let rec optionals (ty : core_type) =
  match ty.ctyp_desc with
  | Ttyp_arrow (Asttypes.Optional l, _, rest) -> l :: optionals rest
  | Ttyp_arrow (_, _, rest) | Ttyp_poly (_, rest) -> optionals rest
  | _ -> []

(* The record fields and variant constructors a structure declares, as
   (key, name, location). *)
let members file (str : structure) =
  let acc = ref [] in
  let rec items (str : structure) =
    List.iter
      (fun (it : structure_item) ->
        match it.str_desc with
        | Tstr_type (_, tds) ->
            List.iter
              (fun (td : type_declaration) ->
                let ty = td.typ_name.txt in
                let add kind name loc =
                  acc := (kind, member_key file ty name, name, loc) :: !acc
                in
                match td.typ_kind with
                | Ttype_record lds ->
                    List.iter
                      (fun (ld : label_declaration) ->
                        add `Field ld.ld_name.txt ld.ld_loc)
                      lds
                | Ttype_variant cds ->
                    List.iter
                      (fun (cd : constructor_declaration) ->
                        add `Cstr cd.cd_name.txt cd.cd_loc)
                      cds
                | _ -> ())
              tds
        | Tstr_module { mb_expr = me; _ } -> modl me
        | _ -> ())
      str.str_items
  and modl (me : module_expr) =
    match me.mod_desc with
    | Tmod_structure s -> items s
    | Tmod_constraint (me, _, _, _) -> modl me
    | _ -> ()
  in
  items str;
  List.rev !acc

(* U2 over the checked units in [scope]; returns how many
   fields, constructors, optional arguments and exported functions it
   checked. *)
let check_u2 (load : Cmtload.t) c ~scope ~supp_in ~emit =
  let n = ref 0 in
  let finding file loc fmt =
    Printf.ksprintf
      (fun msg ->
        let f = Finding.at ~rule:"U2" ~file loc msg in
        if not (Srcrules.claim (supp_in file) ~rule:"U2" ~line:f.line) then
          emit f)
      fmt
  in
  Lrp_det.Det.iter_sorted
    (fun key (m : Cmtload.modl) ->
      let file = m.md_source and short = Cmtload.short_of key in
      if Pathspec.in_scope file scope then begin
        List.iter
          (fun (kind, k, name, loc) ->
            incr n;
            match kind with
            | `Field when not (Hashtbl.mem c.reads k) ->
                finding file loc
                  "write-only field: nothing reads %s.%s; delete it" short
                  name
            | `Cstr when not (Hashtbl.mem c.built k) ->
                finding file loc
                  "unbuilt constructor: nothing builds %s.%s; delete it"
                  short name
            | _ -> ())
          (members file m.md_str);
        match Hashtbl.find_opt load.intfs key with
        | None -> ()
        | Some (mli, sg) ->
            List.iter
              (fun (name, (vd : value_description)) ->
                List.iter
                  (fun l ->
                    incr n;
                    let arg u = u ^ "." ^ name ^ "?" ^ l in
                    if
                      not
                        (List.exists
                           (fun u -> Hashtbl.mem c.passed (arg u))
                           (spellings key))
                    then
                      finding mli vd.val_loc
                        "unpassed optional argument: no caller passes \
                         %s.%s's ?%s; make its default a constant"
                        short name l)
                  (optionals vd.val_desc);
                match
                  List.find_opt
                    (fun (f : Cmtload.func) -> f.fn_name = name)
                    m.md_funcs
                with
                | Some fn ->
                    incr n;
                    if not (referenced c.values key name) then
                      List.iter
                        (fun (p : pattern) ->
                          finding file p.pat_loc
                            "ignored parameter: %s.%s never uses it; \
                             delete it"
                            short name)
                        (ignored_params fn.fn_expr)
                | None -> ())
              (exports "" sg)
      end)
    load.mods;
  !n
