(* Fixture: rule D2 on the int table — its unordered fold, spelled
   directly, through a module alias and through a local open; the
   sorted helper is clean. *)

module I = Lrp_det.Itab

let direct t = Lrp_det.Itab.fold (fun k _ acc -> k :: acc) t []

let via_alias t = I.fold (fun k _ acc -> k :: acc) t []

let via_open t = Lrp_det.Itab.(fold (fun k _ acc -> k :: acc) t [])

let sorted t = Lrp_det.Det.fold_sorted_int (fun k _ acc -> k :: acc) t []
