(* Struct-of-arrays descriptor arena for in-flight received frames.

   Every frame sitting in an NI channel (or any other receive-side queue)
   is represented by a *descriptor*: a slot across parallel columns — the
   structured packet and the mbufs it is charged — identified by a
   generation-checked integer handle.  Queues then carry plain ints
   through flat int rings instead of boxed packets through linked
   [Queue.t] cells: the per-packet costs this removes are the queue-cell
   allocation and the [take_opt] option allocation.

   The charge column is the one record of which frame holds how many of
   an eager kernel's mbufs ({!Mbuf} keeps only the pool's counters): the
   kernel charges a row when it admits the frame, reassembly sums its
   fragments' charges into one row, and whoever releases the row gives
   its charge back.  Lazy kernels' rows carry 0.

   Handles pack (generation, slot) like {!Lrp_engine.Engine}'s event
   handles: the generation is bumped when a descriptor is released, so a
   stale handle held after release can never reach the slot's next
   occupant — double-release and use-after-release raise instead of
   corrupting another frame.  Slots are recycled through a free stack;
   the columns only ever grow, so the steady state allocates nothing per
   frame. *)

let slot_bits = 20
let slot_mask = (1 lsl slot_bits) - 1

type handle = int

let none = -1

type t = {
  mutable pkts : Packet.t array; (* the frame itself *)
  mutable charges : int array; (* mbufs held by the frame *)
  mutable gens : int array;
  mutable free : int array; (* stack of free slots *)
  mutable free_top : int;
  mutable live : int;
}

let create () =
  { pkts = [||]; charges = [||]; gens = [||]; free = [||];
    free_top = 0; live = 0 }

let grow t =
  let cap = Array.length t.gens in
  let cap' = Int.max 16 (2 * cap) in
  if cap' > slot_mask then failwith "Parena: too many live frames"; (* alloc: cold — error path *)
  let pkts = Array.make cap' Packet.null in (* alloc: cold — amortized growth *)
  let charges = Array.make cap' 0 in (* alloc: cold — amortized growth *)
  let gens = Array.make cap' 0 in (* alloc: cold — amortized growth *)
  let free = Array.make cap' 0 in (* alloc: cold — amortized growth *)
  Array.blit t.pkts 0 pkts 0 cap;
  Array.blit t.charges 0 charges 0 cap;
  Array.blit t.gens 0 gens 0 cap;
  t.pkts <- pkts;
  t.charges <- charges;
  t.gens <- gens;
  t.free <- free;
  t.free_top <- 0;
  for slot = cap' - 1 downto cap do
    t.free.(t.free_top) <- slot;
    t.free_top <- t.free_top + 1
  done

let[@inline] acquire t pkt ~charge =
  if t.free_top = 0 then grow t;
  t.free_top <- t.free_top - 1;
  let slot = Array.unsafe_get t.free t.free_top in
  t.pkts.(slot) <- pkt;
  Array.unsafe_set t.charges slot charge;
  t.live <- t.live + 1;
  ((Array.unsafe_get t.gens slot) lsl slot_bits) lor slot

let[@inline] valid t h =
  h >= 0
  &&
  let slot = h land slot_mask in
  slot < Array.length t.gens && Array.unsafe_get t.gens slot = h lsr slot_bits

let[@inline never] stale name =
  (* alloc: cold — error path *)
  invalid_arg (Printf.sprintf "Parena.%s: stale or invalid handle" name)

let[@inline] pkt t h =
  if not (valid t h) then stale "pkt";
  Array.unsafe_get t.pkts (h land slot_mask)

let[@inline] charge t h =
  if not (valid t h) then stale "charge";
  Array.unsafe_get t.charges (h land slot_mask)

(* The row now holds [pkt] (a reassembled datagram replacing the fragment
   its row was opened for); the charge stays. *)
let set_pkt t h pkt =
  if not (valid t h) then stale "set_pkt";
  let slot = h land slot_mask in
  t.pkts.(slot) <- pkt

let[@inline] release t h =
  if not (valid t h) then stale "release";
  let slot = h land slot_mask in
  Array.unsafe_set t.gens slot (Array.unsafe_get t.gens slot + 1);
  t.pkts.(slot) <- Packet.null (* do not pin the released frame *);
  t.live <- t.live - 1;
  Array.unsafe_set t.free t.free_top slot;
  t.free_top <- t.free_top + 1

(* Fold row [h] into row [into]: its charge moves over, the row goes. *)
let absorb t ~into h =
  let c = charge t h in
  if not (valid t into) then stale "absorb";
  let slot = into land slot_mask in
  t.charges.(slot) <- t.charges.(slot) + c;
  release t h

let live t = t.live
