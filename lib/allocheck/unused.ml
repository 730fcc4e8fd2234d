(* U1: no unused surface.

   A value exported by the .mli of a checked unit (one under a cmt-dir)
   that no other compilation unit references is a finding.  References
   are the resolved paths of every [Texp_ident] and [Tmod_ident] in the
   checked units and in the reference-only units under the ref-dirs
   (tests, benchmarks, examples), named as the source rules name them:
   through dune's wrapped-library aliases, local module aliases and
   opens.  A module path used whole — [include M], a functor argument, a
   packed first-class module — references every value under it.  A
   unit's references to its own bindings are plain idents and count for
   nothing: a value only its own module uses need not be exported.

   Exported types stay out of the rule: code reaches a type through its
   constructors and record labels as well as through paths, so a path
   census would call unused a type that a pattern match depends on. *)

open Typedtree

(* Add to [refs] the dotted name of every value [str] references and of
   every module it uses whole. *)
let references (str : structure) refs =
  let aliases = ref [] in
  let add p =
    Option.iter
      (fun n -> Hashtbl.replace refs n ())
      (Srcrules.resolve !aliases p)
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
    | Texp_ident (p, _, _) -> add p
    | Texp_letmodule (id, _, _, me, body) when alias id me ->
        it.Tast_iterator.expr it body
    | _ -> super.expr it e
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
  let it = { super with expr; module_expr; module_binding; open_declaration } in
  it.structure it str

(* The values a signature exports, submodule values as "Sub.f". *)
let rec exports prefix (sg : signature) =
  List.concat_map
    (fun item ->
      match item.sig_desc with
      | Tsig_value vd -> [ (prefix ^ vd.val_name.txt, vd.val_loc) ]
      | Tsig_module
          { md_name = { txt = Some m; _ };
            md_type = { mty_desc = Tmty_signature sg; _ }; _ } ->
          exports (prefix ^ m ^ ".") sg
      | _ -> [])
    sg.sig_items

(* Whether [name] ("f" or "Sub.f") of unit [key] is referenced: by its
   own path, or by the unit or an enclosing submodule used whole, under
   any spelling of the unit — its own name and, for a wrapped library
   module, the library alias paths ("Lrp_net.Nic", "Lrp_net__.Nic"). *)
let referenced refs key name =
  let short = Cmtload.short_of key in
  let units =
    if short = key then [ key ]
    else
      let lib =
        String.sub key 0 (String.length key - String.length short - 2)
      in
      [ key; lib ^ "." ^ short; lib ^ "__." ^ short ]
  in
  let rec paths acc = function
    | [] -> []
    | c :: rest ->
        let p = if acc = "" then c else acc ^ "." ^ c in
        p :: paths p rest
  in
  let names = paths "" (String.split_on_char '.' name) in
  List.exists
    (fun u ->
      Hashtbl.mem refs u
      || List.exists (fun p -> Hashtbl.mem refs (u ^ "." ^ p)) names)
    units

(* One finding per unreferenced export of a checked unit's interface,
   unless an [export-ok] suppression in the .mli claims it. *)
let check (load : Cmtload.t) refs ~supp_in ~emit =
  let n = ref 0 in
  Lrp_det.Det.iter_sorted
    (fun key (mli, sg) ->
      if Hashtbl.mem load.mods key then
        List.iter
          (fun (name, loc) ->
            incr n;
            if not (referenced refs key name) then begin
              let f =
                Finding.at ~rule:"U1" ~file:mli loc
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
