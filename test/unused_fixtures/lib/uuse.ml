module U = Ulib

let alias x = U.via_alias x

let opened x =
  let open Ulib in
  via_open x + stale x
