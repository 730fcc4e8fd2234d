(* Deterministic iteration over hash tables.

   [Hashtbl]'s iteration order depends on the hash function, the table's
   growth history and the insertion order, none of which this repo wants
   observable: any value that can reach experiment output, trace sinks or
   scheduling decisions must be derived in a reproducible order, or the
   "byte-identical at any --jobs" guarantee (PR 1) silently erodes.

   These helpers snapshot a table's bindings and visit them in ascending
   key order.  They are the only place in the tree allowed to call
   [Hashtbl.fold] on an unordered table (the [det-file] line of
   allocheck.conf exempts this file from rule D2); every other site must
   go through them.

   For tables populated with [Hashtbl.add] (shadowed duplicate keys), all
   bindings are visited; bindings of equal keys keep [Hashtbl.fold]'s
   most-recent-first relative order (the sort is stable).  Tables in this
   repo use [replace] semantics, so in practice keys are unique. *)

(* D2 exemption: this module implements the sorted snapshot itself. *)

let bindings tbl =
  let items = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  List.stable_sort (fun (ka, _) (kb, _) -> Stdlib.compare ka kb) items

let iter_sorted f tbl = List.iter (fun (k, v) -> f k v) (bindings tbl)

(* The same snapshots for {!Itab}, whose keys are unique ints. *)

let bindings_int tbl =
  let items = Itab.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  List.sort (fun (ka, _) (kb, _) -> Int.compare ka kb) items

let sorted_keys_int tbl = List.map fst (bindings_int tbl)

let iter_sorted_int f tbl = List.iter (fun (k, v) -> f k v) (bindings_int tbl)

let fold_sorted_int f tbl init =
  List.fold_left (fun acc (k, v) -> f k v acc) init (bindings_int tbl)
