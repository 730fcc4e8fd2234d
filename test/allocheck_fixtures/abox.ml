(* BOX fixtures: bare-float returns and freshly computed float args. *)

let acc = [| 0.0 |]

let calc x = x *. 2.0

let store x = acc.(0) <- x

let ret_box x = calc x

let fresh_arg () = store (calc 1.0)

let passthrough x = store x

(* Same-unit [@inline] callees are inlined even under -opaque: no
   boundary, so neither the computed argument nor the result boxes. *)
let[@inline] calc_inl x = x *. 2.0

let[@inline] store_inl x = acc.(0) <- x

let inlined x = store_inl (calc_inl (x +. 1.0))
