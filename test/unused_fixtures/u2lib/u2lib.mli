type r = {
  dead : int;
  via_alias : int;
  via_open : int;
  via_ref : int;
  matched : int;
}

type k = Dead | Via_alias | Via_open | Via_ref

val make : unit -> r
val unused : int -> int -> int
val ignored : int -> int
val pinned : int -> int
val as_value : int -> int
val as_value_open : int -> int
val as_value_ref : int -> int

val opt :
  ?dead:int -> ?via_alias:int -> ?via_open:int -> ?via_ref:int -> unit -> int
