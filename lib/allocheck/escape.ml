(* Domain-escape checking: source rule C2 made interprocedural.

   A Shardsim cell's advance runs concurrently with every other cell;
   values it constructs must stay cell-private until handed over through
   the sanctioned uplink outbox.  Rule C2 (srcrules.ml) flags mutable
   state bound at module level, one binding at a time; this pass traces
   a store's *root* — the base the mutated structure hangs off — through
   field chains and container reads, and it covers every function in the
   cell-resident directories rather than just the cell modules
   themselves.

   A store is a finding when its root is module-level state (a top-level
   binding of the enclosing unit, or any dotted global), when it lands in
   a configured cross-cell field (the uplink outbox columns), or when it
   targets domain-local storage (Domain.DLS).  Stores rooted at function
   parameters or locals are cell-private and pass.

   The walk deliberately covers *all* top-level functions in the
   configured directories, not just those reachable from cell advance:
   cells dispatch through [Engine.target] trampolines (Obj.magic under
   the hood), so static reachability is not computable — checking
   everything is the sound over-approximation, and the sanction list
   carries the few coordinator-side writers.

   Suppression tag: [escape-ok]. *)

open Typedtree

type ctx = {
  top_ids : Ident.t list;
  cross_fields : string list;
  sanctioned : bool;
  file : string;
  supp : Suppress.t;
  emit : Finding.t -> unit;
}

let report ctx ~loc msg =
  let f = Finding.at ~rule:"ESC" ~file:ctx.file loc msg in
  let tag = "escape-ok" in
  if not (ctx.sanctioned || Suppress.claim ctx.supp ~tag ~line:f.line) then
    ctx.emit f

(* Container reads we trace the root through: mutating [Array.get g i]
   mutates [g]. *)
let accessors =
  [ "Array.get"; "Array.unsafe_get"; "Bytes.get"; "Bytes.unsafe_get"; "!" ]

type root =
  | Local  (* parameter or let-bound: cell-private *)
  | Global of string  (* module-level or dotted global *)
  | Cross of string  (* reached through a cross-cell field *)

let rec root_of ctx (e : expression) : root =
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _) ->
      if List.exists (Ident.same id) ctx.top_ids then Global (Ident.name id)
      else Local
  | Texp_ident (p, _, _) -> Global (Path.name p)
  | Texp_field (b, _, lbl) ->
      if List.mem lbl.Types.lbl_name ctx.cross_fields then
        Cross lbl.Types.lbl_name
      else root_of ctx b
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args)
    when List.mem (Allocwalk.stdlib_name p) accessors -> (
      match List.find_map (fun (_, a) -> a) args with
      | Some a -> root_of ctx a
      | None -> Local)
  | Texp_open (_, b) -> root_of ctx b
  | _ -> Local

let check_target ctx ~loc ~via (e : expression) =
  match root_of ctx e with
  | Local -> ()
  | Global name ->
      report ctx ~loc
        (Printf.sprintf
           "%s publishes to module-level state '%s' reachable from other \
            cells; route it through the uplink outbox"
           via name)
  | Cross field ->
      report ctx ~loc
        (Printf.sprintf
           "%s writes cross-cell field '%s' outside the sanctioned outbox \
            writers"
           via field)

(* Mutating stdlib entry points and, for each, which argument is the
   mutated structure (0-based position among the supplied arguments). *)
let mutators =
  [
    (":=", 0); ("Array.set", 0); ("Array.unsafe_set", 0); ("Array.fill", 0);
    ("Bytes.set", 0); ("Bytes.unsafe_set", 0); ("Bytes.fill", 0);
    ("Hashtbl.add", 0); ("Hashtbl.replace", 0); ("Hashtbl.remove", 0);
    ("Hashtbl.reset", 0); ("Hashtbl.clear", 0);
    ("Queue.add", 1); ("Queue.push", 1); ("Queue.transfer", 1);
    ("Stack.push", 1);
    ("Atomic.set", 0); ("Atomic.exchange", 0); ("Atomic.incr", 0);
    ("Atomic.decr", 0); ("Atomic.fetch_and_add", 0);
    ("Atomic.compare_and_set", 0);
    (* blits mutate their destination *)
    ("Array.blit", 2); ("Bytes.blit", 2); ("Bytes.blit_string", 2);
  ]

let nth_arg args k =
  let rec go i = function
    | [] -> None
    | (_, Some a) :: rest -> if i = k then Some a else go (i + 1) rest
    | (_, None) :: rest -> go i rest
  in
  go 0 args

let check_fn ctx (fn : Cmtload.func) =
  let expr sub (e : expression) =
    (match e.exp_desc with
    | Texp_setfield (base, _, lbl, _) ->
        let name = lbl.Types.lbl_name in
        if List.mem name ctx.cross_fields then
          report ctx ~loc:e.exp_loc
            (Printf.sprintf
               "store into cross-cell field '%s' outside the sanctioned \
                outbox writers"
               name)
        else check_target ctx ~loc:e.exp_loc ~via:("store into field '" ^ name ^ "'") base
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
        let name = Allocwalk.stdlib_name p in
        if name = "Domain.DLS.set" then
          report ctx ~loc:e.exp_loc
            "store into domain-local state (Domain.DLS.set) escapes the cell"
        else
          match List.assoc_opt name mutators with
          | Some k -> (
              match nth_arg args k with
              | Some target ->
                  check_target ctx ~loc:e.exp_loc ~via:(name ^ " on a value") target
              | None -> ())
          | None -> ())
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it fn.Cmtload.fn_expr
