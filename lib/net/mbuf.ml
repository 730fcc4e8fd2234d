(** Mbuf pool model.

    BSD stores packets in fixed-size mbufs drawn from a global pool; the
    shared pool is one of the resources that traffic bursts for one socket
    can exhaust to the detriment of others (paper section 2.2).  We model
    the pool by counting: a packet of [n] bytes needs
    [ceil (n / mbuf_size)] mbufs (minimum 1). *)

(* Only the counters live here.  A received frame's reservation is a
   column of its {!Parena} row, so a free site returns exactly what the
   admission took, whatever became of the frame in between (reassembly,
   aggregation, duplication). *)

let mbuf_size = 128

type t = {
  capacity : int;
  mutable in_use : int;
  mutable peak : int;
}

let create ~capacity () =
  if capacity <= 0 then invalid_arg "Mbuf.create: capacity must be positive";
  { capacity; in_use = 0; peak = 0 }

let[@inline] mbufs_for bytes = Int.max 1 ((bytes + mbuf_size - 1) / mbuf_size)

let[@inline] take t n =
  t.in_use + n <= t.capacity
  && begin
       t.in_use <- t.in_use + n;
       if t.in_use > t.peak then t.peak <- t.in_use;
       true
     end

let[@inline] give t n =
  if n > t.in_use then invalid_arg "Mbuf.give: more mbufs freed than in use"; (* alloc: cold — error path *)
  t.in_use <- t.in_use - n

let in_use t = t.in_use
let peak t = t.peak
