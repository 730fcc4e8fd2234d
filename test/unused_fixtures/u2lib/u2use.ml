module U = U2lib

let alias (r : U.r) =
  r.U.via_alias + U.opt ~via_alias:1 () + U.unused 1 2 + U.ignored 3
  + U.pinned 4

let alias_value = U.as_value
let alias_cstr = U.Via_alias
let matched { U.matched; _ } = matched
let is_dead = function U.Dead -> true | _ -> false

let opened (r : U2lib.r) =
  let open U2lib in
  r.via_open + opt ~via_open:2 () + List.length (List.map as_value_open [])
  + match Via_open with Dead -> 1 | _ -> 0
