(* Fixture: rule D4 — structural (tuple/record) Hashtbl keys. *)

type r = { a : int; b : int }

let lookup tbl ip sport dport = Hashtbl.find_opt tbl (ip, sport, dport)

let store tbl k v = Hashtbl.replace tbl { a = k; b = v } v

(* Key passed by name: allowed (the construction site is what D4 flags). *)
let probe tbl key = Hashtbl.mem tbl key

(* Int-keyed probes are the sanctioned form. *)
let direct tbl port = Hashtbl.find_opt tbl port

(* The record's fields are read, so rule U2 has nothing to say here. *)
let sum { a; b } = a + b
