(* Fixture: rule C2 — shard-shared mutable state on cell-parallel layers. *)

type pool = { slots : int array; mutable live : int }

let pool = { slots = Array.make 64 0; live = 0 }

let seqs = [| 0; 1; 2 |]

let counter = Atomic.make 0

(* A head-level maker is C1's finding, not double-reported: *)
let hits = ref 0

(* A justified exemption: *)
(* lint: shared-ok — read-only after initialisation *)
let table = [| 1; 2; 3 |]

(* Per-call state is not shared: *)
let fresh () = { slots = Array.make 8 0; live = 0 }

let use () = (pool, seqs, counter, hits, table, fresh ())

(* The record's fields are read, so rule U2 has nothing to say here. *)
let size p = Array.length p.slots + p.live
