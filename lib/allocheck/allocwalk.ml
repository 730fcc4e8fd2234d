(* The allocation walk: one pass over a hot-path function's Typedtree
   reporting every construction the native compiler turns into a heap
   allocation.

   Finding kinds:

     CLO  closure construction: a *capturing* lambda (non-capturing
          lambdas are static blocks in native code), partial
          application, lazy blocks, objects, first-class modules
     BOX  a float boxed crossing a call boundary: a freshly computed
          float argument, a bare-float return from an analyzed callee,
          or a float passed at a polymorphic type
     TUP  tuple construction
     REC  record construction (including functional update)
     VAR  non-constant variant / exception construction (incl. ::, Some)
     ARR  non-empty array literal
     REF  a ref cell or bytes buffer that survives (local refs that
          Simplif.eliminate_ref turns into mutable variables are proven
          first and exempted)
     FMT  Printf/Format machinery on the path
     CALL a known-allocating stdlib call (Array.make, String.concat,
          boxed Int64 arithmetic, invalid_arg, ...)
     CMP  not an allocation but the same per-event tax: a generic
          compare or hash — Stdlib [compare]/[min]/[max] or
          [Hashtbl.hash], a comparison operator at a type ocamlopt
          cannot specialise (abstract, polymorphic or boxed: it calls
          [caml_equal] and friends), or a probe of the polymorphic
          Stdlib [Hashtbl] ([caml_hash] plus closure-called equality).
          Names resolve through module aliases and local opens.

   Every finding is claimable by an "(* alloc: cold — reason *)"
   suppression on the same or the preceding line; the driver reports
   unclaimed suppressions as SUP findings.

   Two compiler behaviours are modelled so the gate can be zero-noise on
   the live tree:

   - [Simplif.eliminate_ref]: [let i = ref e in ...] where [i] only ever
     appears under [!], [:=], [incr] or [decr] compiles to a mutable
     variable with no allocation — the idiom every scan loop in
     Eheap/Chantab is written in.
   - Constant closures: a lambda with no free variables below the module
     level is statically allocated, as are format-string literals
     (constructor chains built at compile time). *)

open Typedtree

type ctx = {
  load : Cmtload.t;
  current : Cmtload.modl;
  aliases : (Ident.t * string) list;  (* module aliases in scope (CMP) *)
  file : string;
  supp : Suppress.t;
  allocating_extra : string list;
  cmp_only : bool;  (* an [assume]d function: only CMP findings count *)
  emit : Finding.t -> unit;  (* called only for unclaimed findings *)
  edge : Cmtload.modl -> Cmtload.func -> unit;
}

let report ctx ~loc ~rule msg =
  if (not ctx.cmp_only) || rule = "CMP" then begin
    let f = Finding.at ~rule ~file:ctx.file loc msg in
    if not (Suppress.claim ctx.supp ~tag:"cold" ~line:f.line) then ctx.emit f
  end

(* ------------------------------------------------------------------ *)
(* Stdlib call classification                                          *)
(* ------------------------------------------------------------------ *)

let path_comps p =
  let rec go p acc =
    match p with
    | Path.Pident id -> Ident.name id :: acc
    | Path.Pdot (p, s) -> go p (s :: acc)
    | _ -> "?" :: acc
  in
  go p []

(* "Stdlib.Array.make" -> "Array.make"; "Stdlib.ref" -> "ref". *)
let stdlib_name p =
  match path_comps p with
  | "Stdlib" :: rest -> String.concat "." rest
  | comps -> String.concat "." comps

let is_deref_op = function "!" | ":=" | "incr" | "decr" -> true | _ -> false

(* Mutable makers reported as REF: the cell itself is the allocation. *)
let ref_makers = [ "ref"; "Bytes.create"; "Bytes.make" ]

let fmt_prefixes = [ "Printf."; "Format."; "Scanf."; "CamlinternalFormat" ]

let allocating_calls =
  [
    (* error constructors — allocate the exception and its argument *)
    "invalid_arg"; "failwith";
    (* string / bytes *)
    "^"; "String.make"; "String.init"; "String.sub"; "String.concat";
    "String.cat"; "String.map"; "String.mapi"; "String.split_on_char";
    "String.lowercase_ascii"; "String.uppercase_ascii"; "String.trim";
    "String.escaped"; "String.of_bytes"; "String.to_bytes";
    "Bytes.sub"; "Bytes.copy"; "Bytes.of_string"; "Bytes.to_string";
    "Bytes.extend"; "Bytes.cat"; "Bytes.init"; "Bytes.sub_string";
    (* arrays *)
    "Array.make"; "Array.init"; "Array.copy"; "Array.append"; "Array.sub";
    "Array.of_list"; "Array.to_list"; "Array.make_matrix";
    "Array.create_float"; "Array.map"; "Array.mapi"; "Array.to_seq";
    "Array.find_opt";
    (* lists *)
    "@"; "List.map"; "List.mapi"; "List.rev"; "List.append"; "List.concat";
    "List.concat_map"; "List.flatten"; "List.init"; "List.filter";
    "List.filter_map"; "List.sort"; "List.stable_sort"; "List.fast_sort";
    "List.sort_uniq"; "List.split"; "List.combine"; "List.rev_append";
    "List.rev_map"; "List.merge"; "List.cons"; "List.find_opt";
    "List.assoc_opt"; "List.nth_opt"; "List.of_seq"; "List.to_seq";
    (* containers *)
    "Hashtbl.create"; "Hashtbl.add"; "Hashtbl.replace"; "Hashtbl.copy";
    "Hashtbl.find_opt"; "Hashtbl.fold"; "Hashtbl.to_seq";
    "Buffer.create"; "Buffer.contents"; "Buffer.add_string";
    "Buffer.add_char"; "Buffer.add_bytes"; "Buffer.add_subbytes";
    "Buffer.to_bytes";
    "Queue.create"; "Queue.add"; "Queue.push"; "Stack.create"; "Stack.push";
    "Atomic.make";
    (* conversions producing fresh heap blocks *)
    "string_of_int"; "string_of_float"; "string_of_bool"; "float_of_string";
    "Float.to_string"; "Int.to_string"; "Option.some"; "Option.map";
    "Option.bind";
  ]

let boxed_arith_prefixes = [ "Int64."; "Int32."; "Nativeint." ]

(* Boxed-int operations that do NOT produce a boxed result. *)
let boxed_arith_exempt =
  [
    "Int64.to_int"; "Int64.equal"; "Int64.compare"; "Int32.to_int";
    "Int32.equal"; "Int32.compare"; "Nativeint.to_int"; "Nativeint.equal";
    "Nativeint.compare";
  ]

let has_prefix s p =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* ------------------------------------------------------------------ *)
(* Generic compare and hash (CMP)                                      *)
(* ------------------------------------------------------------------ *)

(* A global value's dotted name through the aliases in scope, "Stdlib."
   dropped; "" for a value bound in the unit itself, so a local [min] or
   a functor instance's [find] is not Stdlib's. *)
let global_name ctx p =
  match Srcrules.resolve ctx.aliases p with
  | Some n when has_prefix n "Stdlib." ->
      String.sub n 7 (String.length n - 7)
  | Some n -> n
  | None -> ""

let compare_ops = [ "="; "<>"; "<"; ">"; "<="; ">=" ]
let generic_fns = [ "compare"; "min"; "max"; "Hashtbl.hash" ]

let hashtbl_probes =
  [ "Hashtbl.find"; "Hashtbl.find_opt"; "Hashtbl.find_all"; "Hashtbl.mem";
    "Hashtbl.add"; "Hashtbl.replace"; "Hashtbl.remove" ]

let specialised_bases =
  Predef.
    [ path_int; path_char; path_float; path_string; path_bytes;
      path_nativeint; path_int32; path_int64 ]

(* Does ocamlopt compile a comparison at [ty] without the generic
   primitive?  The same test as its own specialisation: a base type, or a
   type it knows to be immediate, in the environment the expression was
   typed in.  An environment that cannot be rebuilt counts as "no". *)
let specialised (env : Env.t) ty =
  match Envaux.env_of_only_summary env with
  | env ->
      List.exists (Typeopt.is_base_type env ty) specialised_bases
      || Typeopt.maybe_pointer_type env ty = Lambda.Immediate
  | exception _ -> false

let type_text ty = Format.asprintf "%a" Printtyp.type_expr ty

let is_constant_constructor (e : expression) =
  match e.exp_desc with
  | Texp_construct (_, _, []) | Texp_variant (_, None) -> true
  | _ -> false

let is_float ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, [], _) -> Path.same p Predef.path_float
  | _ -> false

let is_tvar ty =
  match Types.get_desc ty with Types.Tvar _ -> true | _ -> false

let is_arrow ty =
  match Types.get_desc ty with Types.Tarrow _ -> true | _ -> false

(* Is this expression's type part of the compile-time-static format
   constructor chain (CamlinternalFormatBasics)? *)
let is_format_typed ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> (
      match path_comps p with
      | "CamlinternalFormatBasics" :: _ -> true
      | "Stdlib" :: rest | rest -> (
          match List.rev rest with
          | ("format6" | "format4" | "format") :: _ -> true
          | _ -> false))
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Simplif.eliminate_ref modelling                                     *)
(* ------------------------------------------------------------------ *)

let is_ref_make (e : expression) =
  match e.exp_desc with
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, [ (_, Some _) ]) ->
      stdlib_name p = "ref"
  | _ -> false

(* Does [id] appear in [body] only as the direct argument of a deref
   operator?  If so the ref compiles to a mutable variable (no cell). *)
let uses_only_deref body id =
  let ok = ref true in
  let expr sub (e : expression) =
    match e.exp_desc with
    | Texp_apply (({ exp_desc = Texp_ident (p, _, _); _ } as f), args)
      when is_deref_op (stdlib_name p) ->
        sub.Tast_iterator.expr sub f;
        List.iteri
          (fun i (_, a) ->
            match a with
            | Some { exp_desc = Texp_ident (Path.Pident id', _, _); _ }
              when i = 0 && Ident.same id id' ->
                ()
            | Some a -> sub.Tast_iterator.expr sub a
            | None -> ())
          args
    | Texp_ident (Path.Pident id', _, _) when Ident.same id id' -> ok := false
    | _ -> Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it body;
  !ok

(* ------------------------------------------------------------------ *)
(* Free variables of a lambda (capture analysis)                       *)
(* ------------------------------------------------------------------ *)

let free_idents ctx ~self (e : expression) =
  let used = ref [] in
  let bound = ref [] in
  let pat : type k. _ -> k general_pattern -> unit =
   fun sub p ->
    bound := Cmtload.pat_idents p @ !bound;
    Tast_iterator.default_iterator.pat sub p
  in
  let expr sub (e : expression) =
    (match e.exp_desc with
    | Texp_ident (Path.Pident id, _, _) -> used := id :: !used
    | Texp_for (id, _, _, _, _, _) -> bound := id :: !bound
    | Texp_let (_, vbs, _) ->
        List.iter (fun vb -> bound := Cmtload.pat_idents vb.vb_pat @ !bound) vbs
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr; pat } in
  it.expr it e;
  let global id =
    List.exists (Ident.same id) ctx.current.Cmtload.md_top_ids
    || List.exists (Ident.same id) self
    || List.exists (Ident.same id) !bound
  in
  let frees =
    List.filter (fun id -> not (global id)) !used
    |> List.map Ident.name
    |> List.sort_uniq String.compare
  in
  frees

(* ------------------------------------------------------------------ *)
(* The walk                                                            *)
(* ------------------------------------------------------------------ *)

let is_fun (e : expression) =
  match e.exp_desc with Texp_function _ -> true | _ -> false

let generic_call ctx ~loc name =
  if List.mem name generic_fns then
    report ctx ~loc ~rule:"CMP"
      (Printf.sprintf
         "%s is polymorphic: every call compares or hashes through the \
          runtime's generic C code; use Int.%s/Float.%s or an explicit \
          comparison at a known type"
         name
         (if name = "Hashtbl.hash" then "hash" else name)
         (if name = "Hashtbl.hash" then "hash" else name))
  else if List.mem name hashtbl_probes then
    report ctx ~loc ~rule:"CMP"
      (Printf.sprintf
         "%s probes the polymorphic Stdlib Hashtbl (caml_hash plus \
          closure-called equality); use Lrp_det.Itab for int keys or \
          Lrp_core.Chantab for flow keys"
         name)

(* A comparison operator at [ty] that ocamlopt cannot specialise. *)
let generic_compare ctx ~loc ~env op ty =
  if not (specialised env ty) then
    report ctx ~loc ~rule:"CMP"
      (Printf.sprintf
         "(%s) at type %s, which ocamlopt cannot specialise: it calls the \
          generic compare (compare_val); compare an int or float view, or \
          use the type's own equal/compare"
         op (type_text ty))

let rec walk ctx (e : expression) =
  match e.exp_desc with
  | Texp_ident (p, _, _) ->
      let name = global_name ctx p in
      if List.mem name compare_ops then begin
        (* unapplied: the operator's instance type is [t -> t -> bool] *)
        match Types.get_desc e.exp_type with
        | Types.Tarrow (_, ty, _, _) ->
            generic_compare ctx ~loc:e.exp_loc ~env:e.exp_env name ty
        | _ -> ()
      end
      else generic_call ctx ~loc:e.exp_loc name;
      maybe_edge ctx p
  | Texp_constant _ -> ()
  | Texp_let (Nonrecursive, vbs, body) ->
      List.iter
        (fun vb ->
          match vb.vb_pat.pat_desc with
          | Tpat_var (id, _)
            when is_ref_make vb.vb_expr && uses_only_deref body id -> (
              (* eliminate_ref: mutable variable, no cell — walk only the
                 initial value. *)
              match vb.vb_expr.exp_desc with
              | Texp_apply (_, [ (_, Some init) ]) -> walk ctx init
              | _ -> ())
          | _ -> walk ctx vb.vb_expr)
        vbs;
      walk ctx body
  | Texp_let (Recursive, vbs, body) ->
      let self =
        List.concat_map (fun vb -> Cmtload.pat_idents vb.vb_pat) vbs
      in
      List.iter
        (fun vb ->
          if is_fun vb.vb_expr then lambda ctx ~self vb.vb_expr
          else walk ctx vb.vb_expr)
        vbs;
      walk ctx body
  | Texp_function _ -> lambda ctx ~self:[] e
  | Texp_apply (f, args) -> apply ctx e f args
  | Texp_match (scrut, cases, _) ->
      walk ctx scrut;
      walk_cases ctx cases
  | Texp_try (body, cases) ->
      walk ctx body;
      walk_cases ctx cases
  | Texp_tuple es ->
      report ctx ~loc:e.exp_loc ~rule:"TUP"
        (Printf.sprintf "tuple construction (%d fields)" (List.length es));
      List.iter (walk ctx) es
  | Texp_construct (_, cd, args) ->
      if args = [] then ()
      else if is_format_typed e.exp_type then
        (* format literal: a constructor chain built at compile time *)
        ()
      else begin
        report ctx ~loc:e.exp_loc ~rule:"VAR"
          (Printf.sprintf "constructor %s allocates (%d argument%s)"
             (if cd.Types.cstr_name = "::" then "(::) list cons"
              else cd.Types.cstr_name)
             (List.length args)
             (if List.length args = 1 then "" else "s"));
        List.iter (walk ctx) args
      end
  | Texp_variant (_, None) -> ()
  | Texp_variant (label, Some arg) ->
      report ctx ~loc:e.exp_loc ~rule:"VAR"
        (Printf.sprintf "polymorphic variant `%s allocates" label);
      walk ctx arg
  | Texp_record { fields; extended_expression; _ } ->
      report ctx ~loc:e.exp_loc ~rule:"REC"
        (if extended_expression = None then "record construction"
         else "record construction (functional update copies every field)");
      Option.iter (walk ctx) extended_expression;
      Array.iter
        (fun (_, def) ->
          match def with
          | Overridden (_, e) -> walk ctx e
          | Kept _ -> ())
        fields
  | Texp_field (b, _, _) -> walk ctx b
  | Texp_setfield (b, _, _, v) ->
      walk ctx b;
      walk ctx v
  | Texp_array [] -> ()
  | Texp_array es ->
      report ctx ~loc:e.exp_loc ~rule:"ARR"
        (Printf.sprintf "array literal allocates (%d elements)" (List.length es));
      List.iter (walk ctx) es
  | Texp_ifthenelse (c, t, f) ->
      walk ctx c;
      walk ctx t;
      Option.iter (walk ctx) f
  | Texp_sequence (a, b) ->
      walk ctx a;
      walk ctx b
  | Texp_while (c, body) ->
      walk ctx c;
      walk ctx body
  | Texp_for (_, _, lo, hi, _, body) ->
      walk ctx lo;
      walk ctx hi;
      walk ctx body
  | Texp_send (o, _) -> walk ctx o
  | Texp_new _ ->
      report ctx ~loc:e.exp_loc ~rule:"CLO" "object instantiation allocates"
  | Texp_instvar _ -> ()
  | Texp_setinstvar (_, _, _, v) -> walk ctx v
  | Texp_override (_, fields) ->
      report ctx ~loc:e.exp_loc ~rule:"CLO" "object override allocates";
      List.iter (fun (_, _, e) -> walk ctx e) fields
  | Texp_letmodule (id, _, _, me, body) ->
      let ctx =
        match Srcrules.alias ctx.aliases id me with
        | Some a -> { ctx with aliases = a :: ctx.aliases }
        | None ->
            report ctx ~loc:e.exp_loc ~rule:"CLO"
              "local module allocates its structure block";
            ctx
      in
      walk ctx body
  | Texp_letexception (_, body) -> walk ctx body
  | Texp_assert (cond, _) -> walk ctx cond
  | Texp_lazy _ ->
      report ctx ~loc:e.exp_loc ~rule:"CLO" "lazy block allocates"
  | Texp_object _ ->
      report ctx ~loc:e.exp_loc ~rule:"CLO" "object expression allocates"
  | Texp_pack _ ->
      report ctx ~loc:e.exp_loc ~rule:"CLO" "first-class module allocates"
  | Texp_letop { let_; ands; body; _ } ->
      report ctx ~loc:e.exp_loc ~rule:"CLO"
        "binding operator allocates its continuation closure";
      walk ctx let_.bop_exp;
      List.iter (fun a -> walk ctx a.bop_exp) ands;
      walk_cases ctx [ body ]
  | Texp_open (_, body) -> walk ctx body
  | Texp_unreachable | Texp_extension_constructor _ -> ()

and walk_cases : type k. ctx -> k case list -> unit =
 fun ctx cases ->
  List.iter
    (fun c ->
      Option.iter (walk ctx) c.c_guard;
      walk ctx c.c_rhs)
    cases

(* A lambda expression appearing in value position: flag it if it
   captures, then walk the whole curried chain as one closure (OCaml
   compiles [fun a -> fun b -> e] to a single n-ary closure; only
   application sites can split it). *)
and lambda ctx ~self (e : expression) =
  let frees = free_idents ctx ~self e in
  if frees <> [] then
    report ctx ~loc:e.exp_loc ~rule:"CLO"
      (Printf.sprintf "capturing closure (captures %s)"
         (String.concat ", " frees));
  chain ctx e

and chain ctx (e : expression) =
  match e.exp_desc with
  | Texp_function { cases = [ c ]; _ } when is_fun c.c_rhs ->
      Option.iter (walk ctx) c.c_guard;
      chain ctx c.c_rhs
  | Texp_function { cases; _ } -> walk_cases ctx cases
  | _ -> walk ctx e

and maybe_edge ctx p =
  match Cmtload.resolve_path ctx.load ~current:ctx.current p with
  | Some (m, fn) -> (
      match fn.Cmtload.fn_expr.exp_desc with
      | Texp_function _ | Texp_ident _ -> ctx.edge m fn
      | _ -> ())
  | None -> ()

and apply ctx (e : expression) f args =
  match f.exp_desc with
  | Texp_ident (p, _, _) when List.mem (global_name ctx p) compare_ops ->
      (* Applied: like ocamlopt, an (in)equality against a constant
         constructor is an int compare whatever the type. *)
      let op = global_name ctx p in
      let supplied = List.filter_map snd args in
      (match supplied with
       | a :: _
         when not
                ((op = "=" || op = "<>")
                && List.exists is_constant_constructor supplied) ->
           generic_compare ctx ~loc:e.exp_loc ~env:e.exp_env op a.exp_type
       | _ -> ());
      partial_check ctx e f args;
      List.iter (walk ctx) supplied
  | _ -> apply_call ctx e f args

and apply_call ctx (e : expression) f args =
  (match f.exp_desc with
  | Texp_ident (p, _, _) -> (
      let name = stdlib_name p in
      if is_deref_op name then ()
      else if name = "ref" then
        report ctx ~loc:e.exp_loc ~rule:"REF"
          "ref cell allocated (escapes its binding, so eliminate_ref \
           cannot remove it)"
      else if List.mem name ref_makers then
        report ctx ~loc:e.exp_loc ~rule:"REF"
          (Printf.sprintf "%s allocates a fresh buffer" name)
      else if List.exists (has_prefix name) fmt_prefixes then
        report ctx ~loc:e.exp_loc ~rule:"FMT"
          (Printf.sprintf "%s runs the format interpreter (allocates)" name)
      else if
        List.exists (has_prefix name) boxed_arith_prefixes
        && not (List.mem name boxed_arith_exempt)
      then
        report ctx ~loc:e.exp_loc ~rule:"CALL"
          (Printf.sprintf "%s returns a boxed result" name)
      else if
        List.mem name allocating_calls || List.mem name ctx.allocating_extra
      then
        report ctx ~loc:e.exp_loc ~rule:"CALL"
          (Printf.sprintf "%s allocates" name)
      else if
        (name = "min" || name = "max" || name = "abs_float"
        || name = "Float.min" || name = "Float.max" || name = "Float.abs")
        && is_float e.exp_type
      then
        report ctx ~loc:e.exp_loc ~rule:"BOX"
          (Printf.sprintf "%s boxes its float result" name)
      else
        match Cmtload.resolve_path ctx.load ~current:ctx.current p with
        | Some (m, fn) -> float_box_checks ctx e f args m fn
        | None -> ());
      partial_check ctx e f args
  | _ -> partial_check ctx e f args);
  walk ctx f;
  List.iter (fun (_, a) -> Option.iter (walk ctx) a) args

(* Partial application: the apply leaves an arrow behind AND supplied
   fewer arguments than the callee actually takes.  The arity has to be
   the callee's *real* arity, not the length of its arrow type:
   [Array.unsafe_get dispatchers d] and [Obj.magic f] have arrow-typed
   results while being fully saturated — fetching or casting a function
   value is not a closure allocation.  Accessor arities are tabulated;
   resolved callees are measured on their typedtree (which also makes
   [let clock t = fun () -> ...] a 2-ary function whose 1-argument call
   sites allocate, exactly as the compiler compiles it).  (Omitted
   optional arguments of a saturated call appear as [(l, None)] entries
   and so count as supplied, which is right: the compiler fills them
   with the immediate [None].) *)
and partial_check ctx (e : expression) f args =
  if is_arrow e.exp_type then begin
    let arity =
      match f.exp_desc with
      | Texp_ident (p, _, _) -> (
          let name = stdlib_name p in
          match
            List.assoc_opt name
              [
                ("Obj.magic", 1); ("Obj.repr", 1); ("Obj.obj", 1);
                ("Fun.id", 1); ("!", 1); ("Option.get", 1);
                ("Array.get", 2); ("Array.unsafe_get", 2);
                ("Bytes.get", 2); ("Bytes.unsafe_get", 2);
                ("Hashtbl.find", 2);
              ]
          with
          | Some a -> a
          | None -> (
              match Cmtload.resolve_path ctx.load ~current:ctx.current p with
              | Some (_, fn) ->
                  let a = chain_arity fn.Cmtload.fn_expr in
                  if a = 0 then List.length (arrows f.exp_type) else a
              | None -> List.length (arrows f.exp_type)))
      | _ -> List.length (arrows f.exp_type)
    in
    if List.length args < arity then
      report ctx ~loc:e.exp_loc ~rule:"CLO"
        "partial application allocates a closure"
  end

and chain_arity (e : expression) =
  match e.exp_desc with
  | Texp_function { cases = [ c ]; _ } when is_fun c.c_rhs ->
      1 + chain_arity c.c_rhs
  | Texp_function _ -> 1
  | _ -> 0

(* Float-boxing at a call into the analyzed set: freshly computed float
   arguments box at the boundary (already-boxed floats — constants,
   variables — are passed as-is), a bare-float return boxes in the
   callee, and a float passed at a polymorphic type is always boxed.  A
   call to a [let[@inline]] function of the same unit has no boundary:
   ocamlopt inlines it even under [-opaque] (which only hides other
   units' bodies), so its floats stay unboxed. *)
and float_box_checks ctx (e : expression) f args m fn =
  if not (fn.Cmtload.fn_inline && m.Cmtload.md_key = ctx.current.Cmtload.md_key)
  then float_box_at_call ctx e f args m fn

and float_box_at_call ctx (e : expression) f args m fn =
  let callee =
    Cmtload.short_of m.Cmtload.md_key ^ "." ^ fn.Cmtload.fn_name
  in
  if is_float e.exp_type then
    report ctx ~loc:e.exp_loc ~rule:"BOX"
      (Printf.sprintf
         "call to %s returns a bare float (boxed in the callee); use a \
          float-cell/_into variant"
         callee);
  (* walk the callee's arrow type alongside the supplied arguments *)
  let formals = ref (arrows f.exp_type) in
  List.iter
    (fun (label, a) ->
      match a with
      | None -> ()
      | Some a -> (
          let formal =
            match
              List.partition (fun (l, _) -> l = label) !formals
            with
            | (_, ty) :: rest_same, others ->
                formals := rest_same @ others;
                Some ty
            | [], _ -> None
          in
          match formal with
          | Some fty when is_tvar fty && is_float a.exp_type ->
              report ctx ~loc:a.exp_loc ~rule:"BOX"
                (Printf.sprintf
                   "float passed at a polymorphic type to %s is boxed" callee)
          | _ ->
              if is_float a.exp_type then
                match a.exp_desc with
                | Texp_apply _ | Texp_field _ | Texp_ifthenelse _ ->
                    report ctx ~loc:a.exp_loc ~rule:"BOX"
                      (Printf.sprintf
                         "float argument to %s is freshly boxed at this \
                          call; stage it through a float-array cell"
                         callee)
                | _ -> ()))
    args

and arrows ty =
  match Types.get_desc ty with
  | Types.Tarrow (l, a, b, _) -> (l, a) :: arrows b
  | _ -> []

(* Analyze one top-level binding: the outermost curried chain is the
   function itself (statically allocated, built once at module init),
   everything inside is hot-path territory. *)
let analyze ctx (fn : Cmtload.func) =
  match fn.Cmtload.fn_expr.exp_desc with
  | Texp_function _ -> chain ctx fn.Cmtload.fn_expr
  | _ -> walk ctx fn.Cmtload.fn_expr
