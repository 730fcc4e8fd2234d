(* In-source suppression comments.

   Syntax: a comment of the form

     (* <marker-word>: <tag> — <reason> *)

   e.g. a "lint:" comment tagged [unordered-ok] for the source rules or
   an "alloc:" comment tagged [cold] for the allocation walk.  The comment
   suppresses a matching finding on the same line or on the line
   immediately after it (so it can sit above the offending binding or
   trail the expression).  A suppression that suppresses nothing is
   itself a finding (rule SUP): stale exemptions must not accumulate.

   Each grammar names its marker word and its known tag set; the
   scanning, claiming and unused-sweep mechanics are shared so the two
   grammars cannot drift apart. *)

type grammar = { word : string; known : string list }

let alloc = { word = "alloc"; known = [ "cold"; "escape-ok" ] }

let lint =
  {
    word = "lint";
    known =
      [ "domain-local"; "unordered-ok"; "stdout-ok"; "wallclock-ok";
        "shared-ok"; "export-ok"; "unused-ok" ];
  }

type entry = { tag : string; line : int; mutable used : bool }

type t = entry list

(* Scan raw source text for suppression comments.  A plain substring scan
   is enough here: the marker inside a string literal would be a strange
   thing to write, and the worst case is an unused-suppression finding
   pointing at it. *)
let scan g text : t =
  let marker = "(* " ^ g.word ^ ":" in
  let n = String.length text in
  let entries = ref [] in
  let line = ref 1 in
  let i = ref 0 in
  let starts_with at s =
    at + String.length s <= n && String.sub text at (String.length s) = s
  in
  while !i < n do
    (match text.[!i] with
    | '\n' -> incr line
    | '(' when starts_with !i marker ->
        let j = ref (!i + String.length marker) in
        while !j < n && text.[!j] = ' ' do
          incr j
        done;
        let start = !j in
        while
          !j < n && text.[!j] <> ' ' && text.[!j] <> '\n' && text.[!j] <> '*'
        do
          incr j
        done;
        let tag = String.sub text start (!j - start) in
        if List.mem tag g.known then
          entries := { tag; line = !line; used = false } :: !entries
    | _ -> ());
    incr i
  done;
  List.rev !entries

(* [claim t ~tag ~line] returns true (and burns the suppression) when a
   matching tag covers [line].  Several findings on the covered lines may
   claim the same entry — one comment exempts the whole expression.  A
   same-line suppression wins over one on the preceding line, so a run of
   consecutive annotated lines claims one comment each instead of the
   first comment absorbing its neighbour's finding. *)
let claim t ~tag ~line =
  let hit =
    match List.find_opt (fun e -> e.tag = tag && e.line = line) t with
    | Some _ as h -> h
    | None -> List.find_opt (fun e -> e.tag = tag && e.line = line - 1) t
  in
  match hit with
  | Some e ->
      e.used <- true;
      true
  | None -> false

let unused g t ~file =
  List.filter_map
    (fun e ->
      if e.used then None
      else
        Some
          (Finding.v ~rule:"SUP" ~file ~line:e.line ~col:0
             (Printf.sprintf
                "unused %s suppression '%s': nothing on this or the next \
                 line needs it"
                g.word e.tag)))
    t
