val unused : int -> int
val via_alias : int -> int
val via_open : int -> int
val via_ref : int -> int

(* lint: export-ok — fixture: the export is referenced, so this is stale *)
val stale : int -> int
