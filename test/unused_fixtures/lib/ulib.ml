let unused x = x
let via_alias x = x + 1
let via_open x = x + 2
let via_ref x = x + 3
let stale x = x + 4
