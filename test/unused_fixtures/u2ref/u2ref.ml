let read (r : Lrp_u2fix.U2lib.r) =
  r.Lrp_u2fix.U2lib.via_ref + Lrp_u2fix.U2lib.opt ~via_ref:1 ()

let build = Lrp_u2fix.U2lib.Via_ref
let value = Lrp_u2fix.U2lib.as_value_ref
