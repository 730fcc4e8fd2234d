(* Expression- and structure-level rules over the Parsetree.

   The analysis is purely syntactic (no typing pass): it looks at the
   longidents a module references and at what its structure-level
   bindings allocate.  That keeps the linter dependency-free and fast,
   at the cost of not seeing through aliases ([module H = Hashtbl]) —
   acceptable because the codebase doesn't alias stdlib modules, and a
   new alias would be caught in review by the fixture suite's example.

   Rules implemented here:
     D1  ambient time/randomness outside lib/engine/rng.ml
     D2  unordered Hashtbl iteration outside lib/core/det.ml
     D3  Marshal anywhere; polymorphic compare in configured files
     D4  structural (tuple/record) Hashtbl keys on hot-path layers
     P1  stdout printing inside lib/ outside designated sinks
     C1  non-atomic module-level mutable state inside lib/
     C2  module-level mutable state (however nested, Atomic included) on
         cell-parallel layers; shard-local state must live in per-cell
         context records *)

open Parsetree

type ctx = {
  config : Config.t;
  file : string;
  supp : Suppress.t;
  mutable findings : Finding.t list;
}

let emit ctx ~rule ~loc msg =
  let line = loc.Location.loc_start.Lexing.pos_lnum in
  let col =
    loc.Location.loc_start.Lexing.pos_cnum
    - loc.Location.loc_start.Lexing.pos_bol
  in
  if not (Suppress.claim ctx.supp ~rule ~line) then
    ctx.findings <- Finding.v ~rule ~file:ctx.file ~line ~col msg :: ctx.findings

let rec flatten_longident = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (p, s) -> flatten_longident p @ [ s ]
  | Longident.Lapply _ -> []

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

let check_ident ctx ~loc lid =
  let parts = flatten_longident lid in
  let name = String.concat "." parts in
  let head = match parts with h :: _ -> h | [] -> "" in
  (* D1: wall clock and ambient randomness. *)
  if not (Config.in_files ctx.file ctx.config.Config.rng_files) then begin
    if head = "Random" then
      emit ctx ~rule:"D1" ~loc
        (Printf.sprintf
           "ambient randomness: %s is banned outside lib/engine/rng.ml; \
            thread an Rng.t (seeded, splittable) instead"
           name)
    else if List.mem name d1_banned then
      if not (Config.in_files ctx.file ctx.config.Config.wallclock_files) then
        emit ctx ~rule:"D1" ~loc
          (Printf.sprintf
             "wall-clock read: %s is banned outside lib/engine/rng.ml; \
              simulated time comes from Engine.now"
             name)
  end;
  (* D2: unordered hash-table iteration. *)
  if
    List.mem name d2_banned
    && not (Config.in_files ctx.file ctx.config.Config.det_files)
  then
    emit ctx ~rule:"D2" ~loc
      (Printf.sprintf
         "unordered iteration: %s can leak hash-table layout into output; \
          use Lrp_det.Det.{iter_sorted,fold_sorted,bindings,sorted_keys}"
         name);
  (* D3a: Marshal is never representation-stable. *)
  if head = "Marshal" then
    emit ctx ~rule:"D3" ~loc
      (Printf.sprintf
         "%s: Marshal output depends on sharing and word size; write an \
          explicit codec"
         name);
  (* D3b: polymorphic comparison in files with float-carrying or mutable
     record types.  Bare [compare] (applied or not), [Stdlib.compare],
     [Hashtbl.hash]; unapplied [=]/[<>] are caught here too because the
     applied (infix scalar) form skips the operator ident (see
     [iterator]). *)
  (match Config.d3_types_of ctx.config ctx.file with
  | None -> ()
  | Some types ->
      let poly =
        match name with
        | "compare" | "Stdlib.compare" | "Pervasives.compare"
        | "Hashtbl.hash" | "=" | "<>" ->
            true
        | _ -> false
      in
      if poly then
        emit ctx ~rule:"D3" ~loc
          (Printf.sprintf
             "polymorphic %s in a module defining %s (float-carrying or \
              mutable): use a monomorphic comparator"
             (if name = "=" || name = "<>" then "(" ^ name ^ ")" else name)
             (String.concat ", " types)));
  (* P1: stdout printing in library code. *)
  if
    List.mem name p1_banned
    && Config.in_scope ctx.file ctx.config.Config.stateful_scope
    && not (Config.in_files ctx.file ctx.config.Config.sink_files)
  then
    emit ctx ~rule:"P1" ~loc
      (Printf.sprintf
         "stdout write: %s in library code; route output through a trace \
          sink or return data to the caller"
         name)

(* --- D4: structural Hashtbl keys on hot-path layers -------------------- *)

(* A polymorphic [Hashtbl] probed with a tuple or record key pays
   structural hashing — a recursive walk over the key and its boxed
   fields — plus a key allocation at every call site, per packet on the
   layers the demultiplexer lives in.  Detection is syntactic, like the
   rest of the linter: a [Hashtbl] operation whose argument is a literal
   tuple or record is exactly the pattern that builds a fresh structural
   key per probe.  (A key built elsewhere and passed by name escapes
   this rule, but the construction site is then flagged instead the next
   time it is a literal — in practice the literal form is how every such
   table is used.)  The fix is a packed-key table: Lrp_core.Flowtab. *)
let d4_keyed_ops =
  [ "add"; "replace"; "find"; "find_opt"; "find_all"; "mem"; "remove" ]

let rec is_structural_key e =
  match e.pexp_desc with
  | Pexp_tuple _ | Pexp_record _ -> true
  | Pexp_constraint (e, _) -> is_structural_key e
  | _ -> false

let check_apply ctx ~loc fn args =
  match fn.pexp_desc with
  | Pexp_ident { txt; _ } -> (
      match flatten_longident txt with
      | [ "Hashtbl"; op ]
        when List.mem op d4_keyed_ops
             && Config.in_dirs ctx.file ctx.config.Config.d4_dirs
             && List.exists (fun (_, a) -> is_structural_key a) args ->
          emit ctx ~rule:"D4" ~loc
            (Printf.sprintf
               "structural key in Hashtbl.%s on a hot-path layer: \
                polymorphic hashing walks the tuple/record (and allocates \
                it) on every probe; pack the key into ints and use \
                Lrp_core.Flowtab"
               op)
      | _ -> ())
  | _ -> ()

(* Infix scalar comparisons [a = b] are fine even in D3 files (they compare
   whatever the site compares, usually ints); only the *unapplied* operator
   — passed to List.mem, sort, etc., where it closes over whole structures —
   is flagged.  So the iterator skips the operator ident of an applied
   comparison but still visits the arguments. *)
let scalar_infix = [ "="; "<>"; "<"; ">"; "<="; ">=" ]

let iterator ctx =
  let default = Ast_iterator.default_iterator in
  let expr it e =
    match e.pexp_desc with
    | Pexp_ident { txt; _ } ->
        check_ident ctx ~loc:e.pexp_loc txt;
        default.expr it e
    | Pexp_apply
        ({ pexp_desc = Pexp_ident { txt = Longident.Lident op; _ }; _ }, args)
      when List.mem op scalar_infix ->
        List.iter (fun (_, a) -> it.Ast_iterator.expr it a) args
    | Pexp_apply (fn, args) ->
        check_apply ctx ~loc:e.pexp_loc fn args;
        default.expr it e
    | _ -> default.expr it e
  in
  { default with expr }

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

let rec mutable_maker_of e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) -> mutable_maker_of e
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
      let name = String.concat "." (flatten_longident txt) in
      if List.mem name mutable_makers then Some name else None
  | _ -> None

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
  let rec strip e =
    match e.pexp_desc with Pexp_constraint (e, _) -> strip e | _ -> e
  in
  let head = strip vb.pvb_expr in
  (* a head-level maker is C1's finding; don't report it twice *)
  let head_is_c1 = mutable_maker_of vb.pvb_expr <> None in
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
  let default = Ast_iterator.default_iterator in
  let expr it e =
    match e.pexp_desc with
    | Pexp_fun _ | Pexp_function _ -> () (* per-call state, not shared *)
    | Pexp_array (_ :: _) ->
        emit_c2 ~loc:e.pexp_loc "array literal";
        default.expr it e
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
        let name = String.concat "." (flatten_longident txt) in
        if List.mem name c2_makers && not (head_is_c1 && e == head) then
          emit_c2 ~loc:e.pexp_loc name;
        default.expr it e
    | _ -> default.expr it e
  in
  let it = { default with expr } in
  it.Ast_iterator.expr it vb.pvb_expr

let rec check_structure ctx items = List.iter (check_structure_item ctx) items

and check_structure_item ctx item =
  match item.pstr_desc with
  | Pstr_value (_, vbs) ->
      List.iter
        (fun vb ->
          (match mutable_maker_of vb.pvb_expr with
          | Some maker ->
              emit ctx ~rule:"C1" ~loc:vb.pvb_loc
                (Printf.sprintf
                   "module-level mutable state (%s): shared by every domain \
                    in a pool; use Atomic.t or justify with (* lint: \
                    domain-local — reason *)"
                   maker)
          | None -> ());
          if Config.in_dirs ctx.file ctx.config.Config.c2_dirs then
            check_c2_binding ctx vb)
        vbs
  | Pstr_module mb -> check_module_expr ctx mb.pmb_expr
  | Pstr_recmodule mbs ->
      List.iter (fun mb -> check_module_expr ctx mb.pmb_expr) mbs
  | Pstr_include i -> check_module_expr ctx i.pincl_mod
  | _ -> ()

and check_module_expr ctx me =
  match me.pmod_desc with
  | Pmod_structure s -> check_structure ctx s
  | Pmod_constraint (m, _) -> check_module_expr ctx m
  | Pmod_functor (_, _) ->
      (* per-application state, not a module-level singleton *)
      ()
  | _ -> ()

(* --- entry point ------------------------------------------------------- *)

(* Run all source rules over one implementation file.  Returns findings
   in source order (driver sorts globally). *)
let check_impl ~config ~file ~supp (ast : structure) =
  let ctx = { config; file; supp; findings = [] } in
  let it = iterator ctx in
  it.Ast_iterator.structure it ast;
  if Config.in_scope file config.Config.stateful_scope then
    check_structure ctx ast;
  List.rev ctx.findings
