type t = float

let zero = 0.

let us x = x

let ms x = x *. 1_000.

let sec x = x *. 1_000_000.

let to_sec t = t /. 1_000_000.

let to_ms t = t /. 1_000.

