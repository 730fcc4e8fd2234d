(* Source rules over the Typedtree: the determinism contract behind
   byte-identical output at any --jobs/--shards.

   Every identifier is named by its resolved [Path.t] with the "Stdlib."
   prefix dropped, so a rule sees [Hashtbl.fold] however the source
   spells it: through a local alias ([module H = Hashtbl], or the same
   under [let module]), a local open ([Hashtbl.(iter f t)]) or a plain
   [open].  A value bound in the unit itself has no such name, so a
   local monomorphic [compare] is not Stdlib's.

   Rules implemented here:
     D1  ambient time/randomness outside the configured rng file
     D2  unordered Hashtbl or Itab iteration outside the sorted-iteration
         helpers
     D3  Marshal anywhere; polymorphic compare in configured files
     D4  structural (tuple/record) Hashtbl keys on hot-path layers
     P1  stdout printing inside the library scope
     C1  non-atomic module-level mutable state inside the library scope
     C2  module-level mutable state (however nested, Atomic included) on
         cell-parallel layers; shard-local state must live in per-cell
         context records *)

open Typedtree

type ctx = {
  cfg : Aconfig.t;
  file : string;
  supp : Suppress.t;
  emit : Finding.t -> unit;
  mutable aliases : (Ident.t * string) list;  (* local module aliases *)
}

(* Rule id -> the lint suppression tag that can silence it. *)
let tag_for_rule = function
  | "C1" -> Some "domain-local"
  | "C2" -> Some "shared-ok"
  | "D2" -> Some "unordered-ok"
  | "P1" -> Some "stdout-ok"
  | "D1" -> Some "wallclock-ok"
  | "U1" -> Some "export-ok"
  | "U2" -> Some "unused-ok"
  | _ -> None

let claim supp ~rule ~line =
  match tag_for_rule rule with
  | None -> false
  | Some tag -> Suppress.claim supp ~tag ~line

let emit ctx ~rule ~loc msg =
  let f = Finding.at ~rule ~file:ctx.file loc msg in
  if not (claim ctx.supp ~rule ~line:f.line) then ctx.emit f

(* The dotted name of a path rooted at a compilation unit or at one of
   the local module [aliases]; [None] for anything bound in this unit. *)
let rec resolve aliases = function
  | Path.Pident id when Ident.global id -> Some (Ident.name id)
  | Path.Pident id ->
      List.find_map
        (fun (a, n) -> if Ident.same a id then Some n else None)
        aliases
  | Path.Pdot (p, s) -> Option.map (fun n -> n ^ "." ^ s) (resolve aliases p)
  | _ -> None

(* [module M = <path>] as an alias entry, so later [M.x] resolves
   through it; [None] when the module is not an alias of a named one. *)
let alias aliases id (me : module_expr) =
  let rec target me =
    match me.mod_desc with
    | Tmod_ident (p, _) -> resolve aliases p
    | Tmod_constraint (me, _, _, _) -> target me
    | _ -> None
  in
  match (id, target me) with Some id, Some n -> Some (id, n) | _ -> None

let name_of ctx p =
  match resolve ctx.aliases p with
  | Some n when String.starts_with ~prefix:"Stdlib." n ->
      String.sub n 7 (String.length n - 7)
  | Some n -> n
  | None -> ""

(* --- ident-based rules (D1, D2, D3, P1) ------------------------------- *)

let d1_banned = [ "Sys.time"; "Unix.gettimeofday"; "Unix.time" ]

let d2_banned =
  [
    "Hashtbl.iter";
    "Hashtbl.fold";
    "Hashtbl.to_seq";
    "Hashtbl.to_seq_keys";
    "Hashtbl.to_seq_values";
  ]

(* [Itab.fold] walks slot order; only lrp_det's own Det may call it.  The
   name as seen from another library, and from inside lrp_det. *)
let d2_itab = [ "Lrp_det.Itab.fold"; "Lrp_det__Itab.fold" ]

let p1_banned =
  [
    "print_string";
    "print_endline";
    "print_newline";
    "print_char";
    "print_int";
    "print_float";
    "print_bytes";
    "Printf.printf";
    "Format.printf";
    "Format.print_string";
    "Format.print_newline";
    "Format.open_box";
  ]

let check_ident ctx ~loc name =
  let cfg = ctx.cfg and in_files = Pathspec.in_files ctx.file in
  (* D1: wall clock and ambient randomness. *)
  if not (in_files cfg.rng_files) then begin
    if String.starts_with ~prefix:"Random." name then
      emit ctx ~rule:"D1" ~loc
        (Printf.sprintf
           "ambient randomness: %s is banned outside lib/engine/rng.ml; \
            thread an Rng.t (seeded, splittable) instead"
           name)
    else if List.mem name d1_banned && not (in_files cfg.wallclock_files) then
      emit ctx ~rule:"D1" ~loc
        (Printf.sprintf
           "wall-clock read: %s is banned outside lib/engine/rng.ml; \
            simulated time comes from Engine.now"
           name)
  end;
  (* D2: unordered hash-table iteration. *)
  if List.mem name d2_banned && not (in_files cfg.det_files) then
    emit ctx ~rule:"D2" ~loc
      (Printf.sprintf
         "unordered iteration: %s can leak hash-table layout into output; \
          use Lrp_det.Det.{iter_sorted,bindings}"
         name);
  if List.mem name d2_itab && not (in_files cfg.det_files) then
    emit ctx ~rule:"D2" ~loc
      (Printf.sprintf
         "unordered iteration: %s visits the int table in slot order; use \
          Lrp_det.Det.{iter_sorted_int,fold_sorted_int,sorted_keys_int}"
         name);
  (* D3a: Marshal is never representation-stable. *)
  if String.starts_with ~prefix:"Marshal." name then
    emit ctx ~rule:"D3" ~loc
      (Printf.sprintf
         "%s: Marshal output depends on sharing and word size; write an \
          explicit codec"
         name);
  (* D3b: polymorphic comparison in files with float-carrying or mutable
     record types.  [compare] (applied or not), [Hashtbl.hash]; unapplied
     [=]/[<>] are caught here too because the applied (infix scalar) form
     skips the operator ident (see [iterator]). *)
  (match
     List.find_opt
       (fun (f, _) -> Pathspec.has_suffix_path ctx.file f)
       cfg.d3_files
   with
  | Some (_, types)
    when List.mem name [ "compare"; "Hashtbl.hash"; "="; "<>" ] ->
      emit ctx ~rule:"D3" ~loc
        (Printf.sprintf
           "polymorphic %s in a module defining %s (float-carrying or \
            mutable): use a monomorphic comparator"
           (if name = "=" || name = "<>" then "(" ^ name ^ ")" else name)
           (String.concat ", " types))
  | _ -> ());
  (* P1: stdout printing in library code. *)
  if List.mem name p1_banned && Pathspec.in_scope ctx.file cfg.lib_scope then
    emit ctx ~rule:"P1" ~loc
      (Printf.sprintf
         "stdout write: %s in library code; route output through a trace \
          sink or return data to the caller"
         name)

(* --- D4: structural Hashtbl keys on hot-path layers -------------------- *)

(* A polymorphic [Hashtbl] probed with a tuple or record key pays
   structural hashing — a recursive walk over the key and its boxed
   fields — plus a key allocation at every call site, per packet on the
   layers the demultiplexer lives in.  A [Hashtbl] operation whose
   argument is a literal tuple or record is exactly the pattern that
   builds a fresh structural key per probe.  (A key built elsewhere and
   passed by name escapes this rule, but the construction site is then
   flagged instead the next time it is a literal — in practice the
   literal form is how every such table is used.)  The fix is a
   packed-key table: Lrp_det.Itab for one int, Lrp_core.Chantab for a
   flow. *)
let d4_keyed_ops =
  [ "add"; "replace"; "find"; "find_opt"; "find_all"; "mem"; "remove" ]

let is_structural_key (_, a) =
  match a with
  | Some { exp_desc = Texp_tuple _ | Texp_record _; _ } -> true
  | _ -> false

let check_apply ctx ~loc name args =
  if
    List.exists (fun op -> name = "Hashtbl." ^ op) d4_keyed_ops
    && Pathspec.in_dirs ctx.file ctx.cfg.d4_dirs
    && List.exists is_structural_key args
  then
    emit ctx ~rule:"D4" ~loc
      (Printf.sprintf
         "structural key in %s on a hot-path layer: polymorphic hashing \
          walks the tuple/record (and allocates it) on every probe; pack \
          the key into ints and use Lrp_det.Itab or Lrp_core.Chantab"
         name)

(* Infix scalar comparisons [a = b] are fine even in D3 files (they compare
   whatever the site compares, usually ints); only the *unapplied* operator
   — passed to List.mem, sort, etc., where it closes over whole structures —
   is flagged.  So the iterator skips the operator ident of an applied
   comparison but still visits the arguments. *)
let scalar_infix = [ "="; "<>"; "<"; ">"; "<="; ">=" ]

(* The module aliases a unit binds at module level, nested structures
   included, so a rule walking one function body can name [H.find] for
   [module H = Hashtbl] declared above it. *)
let unit_aliases (str : structure) =
  let rec items acc str = List.fold_left item acc str.str_items
  and item acc it =
    match it.str_desc with
    | Tstr_module mb -> binding acc mb
    | Tstr_recmodule mbs -> List.fold_left binding acc mbs
    | _ -> acc
  and binding acc mb =
    let acc =
      match alias acc mb.mb_id mb.mb_expr with Some a -> a :: acc | None -> acc
    in
    match mb.mb_expr.mod_desc with
    | Tmod_structure s | Tmod_constraint ({ mod_desc = Tmod_structure s; _ }, _, _, _)
      ->
        items acc s
    | _ -> acc
  in
  items [] str

let note_alias ctx id me =
  Option.iter
    (fun a -> ctx.aliases <- a :: ctx.aliases)
    (alias ctx.aliases id me)

let iterator ctx =
  let super = Tast_iterator.default_iterator in
  let expr it e =
    match e.exp_desc with
    | Texp_ident (p, _, _) -> check_ident ctx ~loc:e.exp_loc (name_of ctx p)
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args)
      when List.mem (name_of ctx p) scalar_infix ->
        List.iter (fun (_, a) -> Option.iter (it.Tast_iterator.expr it) a) args
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) ->
        check_apply ctx ~loc:e.exp_loc (name_of ctx p) args;
        super.expr it e
    | Texp_letmodule (id, _, _, me, _) ->
        note_alias ctx id me;
        super.expr it e
    | _ -> super.expr it e
  in
  let module_binding it mb =
    note_alias ctx mb.mb_id mb.mb_expr;
    super.module_binding it mb
  in
  { super with expr; module_binding }

(* --- C1: module-level mutable state ----------------------------------- *)

(* Expression heads that allocate mutable state when bound at module
   level.  [Atomic.make] is the sanctioned form and is absent from the
   list.  Functor bodies are skipped: their state is per-application. *)
let mutable_makers =
  [
    "ref";
    "Hashtbl.create";
    "Buffer.create";
    "Queue.create";
    "Stack.create";
    "Bytes.create";
    "Bytes.make";
    "Array.make";
    "Array.create_float";
    "Array.init";
  ]

let maker_of ctx e =
  match e.exp_desc with
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) -> name_of ctx p
  | _ -> ""

(* --- C2: shard-shared mutable state on cell-parallel layers ------------ *)

(* Code in [c2_dirs] (lib/engine, lib/net) runs cell-parallel under
   Shardsim: one domain per shard, every domain executing the same
   modules against different cells.  Any module-level binding holding
   mutable state — however deeply nested in a record, tuple or array
   literal, and *including* [Atomic.make], whose per-process counter
   would couple cells and break shard-count invariance (the bug the
   per-engine Idspace removed) — is therefore shared across shards.
   Mutable state on these layers must be reachable only through a
   per-cell context record (Engine.t, Fabric.t, Nic.t, Idspace.t).

   C1 already flags a *head-level* maker ([let t = Hashtbl.create ..]);
   C2 looks inside the bound expression, where C1 cannot see (a record
   of arrays like a module-level SoA pool, an array literal, a nested
   [ref]).  Function bodies are skipped: state allocated at call time is
   per-call, not a module-level singleton.  lib/parallel is deliberately
   outside [c2_dirs] — it is the one sanctioned home for cross-domain
   module state (the shared worker pool), guarded by its own locks. *)

let c2_makers = "Atomic.make" :: mutable_makers

let check_c2_binding ctx vb =
  let head = vb.vb_expr in
  (* a head-level maker is C1's finding; don't report it twice *)
  let head_is_c1 = List.mem (maker_of ctx head) mutable_makers in
  let emit_c2 ~loc what =
    emit ctx ~rule:"C2" ~loc
      (Printf.sprintf
         "shard-shared mutable state (%s) at module level on a \
          cell-parallel layer: one copy is visible to every shard domain \
          and breaks shard-count invariance; hang it off a per-cell \
          context record (Engine.t / Fabric.t / Idspace.t) or justify \
          with (* lint: \
          shared-ok — reason *)"
         what)
  in
  let super = Tast_iterator.default_iterator in
  let expr it e =
    match e.exp_desc with
    | Texp_function _ -> () (* per-call state, not shared *)
    | Texp_array (_ :: _) ->
        emit_c2 ~loc:e.exp_loc "array literal";
        super.expr it e
    | _ ->
        let name = maker_of ctx e in
        if List.mem name c2_makers && not (head_is_c1 && e == head) then
          emit_c2 ~loc:e.exp_loc name;
        super.expr it e
  in
  let it = { super with expr } in
  it.expr it vb.vb_expr

let rec check_structure ctx str = List.iter (check_item ctx) str.str_items

and check_item ctx item =
  match item.str_desc with
  | Tstr_value (_, vbs) ->
      List.iter
        (fun vb ->
          let maker = maker_of ctx vb.vb_expr in
          if List.mem maker mutable_makers then
            emit ctx ~rule:"C1" ~loc:vb.vb_loc
              (Printf.sprintf
                 "module-level mutable state (%s): shared by every domain \
                  in a pool; use Atomic.t or justify with (* lint: \
                  domain-local — reason *)"
                 maker);
          if Pathspec.in_dirs ctx.file ctx.cfg.c2_dirs then
            check_c2_binding ctx vb)
        vbs
  | Tstr_module mb -> check_module_expr ctx mb.mb_expr
  | Tstr_recmodule mbs ->
      List.iter (fun mb -> check_module_expr ctx mb.mb_expr) mbs
  | Tstr_include i -> check_module_expr ctx i.incl_mod
  | _ -> ()

and check_module_expr ctx me =
  match me.mod_desc with
  | Tmod_structure s -> check_structure ctx s
  | Tmod_constraint (m, _, _, _) -> check_module_expr ctx m
  | _ -> () (* a functor's state is per-application *)

(* --- entry point ------------------------------------------------------- *)

(* Run all source rules over one compilation unit.  The ident walk runs
   first so the alias table is complete before C1/C2 name their makers. *)
let check_unit ~cfg ~file ~supp ~emit str =
  let ctx = { cfg; file; supp; emit; aliases = [] } in
  let it = iterator ctx in
  it.structure it str;
  if Pathspec.in_scope file cfg.lib_scope then check_structure ctx str
