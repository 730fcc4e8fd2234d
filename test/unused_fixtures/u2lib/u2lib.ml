type r = {
  dead : int;
  via_alias : int;
  via_open : int;
  via_ref : int;
  matched : int;
}

type k = Dead | Via_alias | Via_open | Via_ref

let make () = { dead = 0; via_alias = 1; via_open = 2; via_ref = 3; matched = 4 }
let unused x y = y
let ignored x = ignore x; 0

(* lint: unused-ok — fixture: a caller that cannot change passes it *)
let pinned _ = 0

let as_value _ = 0
let as_value_open _ = 0
let as_value_ref _ = 0

let opt ?(dead = 0) ?(via_alias = 0) ?(via_open = 0) ?(via_ref = 0) () =
  dead + via_alias + via_open + via_ref
