(** Mbuf pool model.

    BSD stores packets in fixed-size mbufs drawn from a global pool; the
    shared pool is one of the resources that traffic bursts for one socket
    can exhaust to the detriment of others (paper section 2.2).  We model
    the pool by counting: a packet of [n] bytes consumes
    [ceil (n / mbuf_size)] mbufs (minimum 1) until it is freed. *)

(* Handle rows: a reservation can optionally be held as a *handle* — a
   generation-checked int naming a slot in parallel (sizes, gens) columns,
   exactly the {!Parena} scheme.  The receive path reserves with
   {!alloc_h} and frees with {!free_h}, so the mbuf count to return is
   read from the slot instead of being recomputed from packet bytes at
   every free site; the byte-based {!alloc}/{!free} API remains for
   callers that track footprints themselves. *)

let slot_bits = 20
let slot_mask = (1 lsl slot_bits) - 1

type handle = int

let no_handle = -1

type t = {
  capacity : int;
  mbuf_size : int;
  mutable in_use : int;
  mutable peak : int;
  mutable failures : int;  (* allocation attempts that found the pool empty *)
  (* handle rows *)
  mutable sizes : int array; (* mbufs held by each live handle *)
  mutable gens : int array;
  mutable free_slots : int array;
  mutable free_top : int;
}

let create ?(mbuf_size = 128) ~capacity () =
  if capacity <= 0 then invalid_arg "Mbuf.create: capacity must be positive";
  { capacity; mbuf_size; in_use = 0; peak = 0; failures = 0;
    sizes = [||]; gens = [||]; free_slots = [||]; free_top = 0 }

let mbufs_for t bytes = max 1 ((bytes + t.mbuf_size - 1) / t.mbuf_size)

(* [alloc t ~bytes] reserves mbufs for a packet.  Returns [false] (and
   counts a failure) when the pool cannot cover the request. *)
let alloc t ~bytes =
  let n = mbufs_for t bytes in
  if t.in_use + n > t.capacity then begin
    t.failures <- t.failures + 1;
    false
  end
  else begin
    t.in_use <- t.in_use + n;
    if t.in_use > t.peak then t.peak <- t.in_use;
    true
  end

let free t ~bytes =
  let n = mbufs_for t bytes in
  if n > t.in_use then invalid_arg "Mbuf.free: more mbufs freed than in use"; (* alloc: cold — error path *)
  t.in_use <- t.in_use - n

(* --- handle-based reservations ---------------------------------------- *)

let grow_slots t =
  let cap = Array.length t.gens in
  let cap' = max 16 (2 * cap) in
  if cap' > slot_mask then failwith "Mbuf: too many live handles"; (* alloc: cold — error path *)
  let sizes = Array.make cap' 0 in (* alloc: cold — amortized growth *)
  let gens = Array.make cap' 0 in (* alloc: cold — amortized growth *)
  let free_slots = Array.make cap' 0 in (* alloc: cold — amortized growth *)
  Array.blit t.sizes 0 sizes 0 cap;
  Array.blit t.gens 0 gens 0 cap;
  t.sizes <- sizes;
  t.gens <- gens;
  t.free_slots <- free_slots;
  t.free_top <- 0;
  for slot = cap' - 1 downto cap do
    t.free_slots.(t.free_top) <- slot;
    t.free_top <- t.free_top + 1
  done

(* [alloc_h t ~bytes] is {!alloc} returning a handle that remembers the
   mbuf count, or [no_handle] on pool exhaustion (failure counted). *)
let alloc_h t ~bytes =
  let n = mbufs_for t bytes in
  if t.in_use + n > t.capacity then begin
    t.failures <- t.failures + 1;
    no_handle
  end
  else begin
    t.in_use <- t.in_use + n;
    if t.in_use > t.peak then t.peak <- t.in_use;
    if t.free_top = 0 then grow_slots t;
    t.free_top <- t.free_top - 1;
    let slot = t.free_slots.(t.free_top) in
    t.sizes.(slot) <- n;
    (t.gens.(slot) lsl slot_bits) lor slot
  end

let[@inline] valid_h t h =
  h >= 0
  &&
  let slot = h land slot_mask in
  slot < Array.length t.gens && t.gens.(slot) = h lsr slot_bits

let[@inline never] stale name =
  (* alloc: cold — error path *)
  invalid_arg (Printf.sprintf "Mbuf.%s: stale or invalid handle" name)

let free_h t h =
  if not (valid_h t h) then stale "free_h";
  let slot = h land slot_mask in
  t.gens.(slot) <- t.gens.(slot) + 1;
  t.in_use <- t.in_use - t.sizes.(slot);
  t.sizes.(slot) <- 0;
  t.free_slots.(t.free_top) <- slot;
  t.free_top <- t.free_top + 1

let in_use t = t.in_use
let peak t = t.peak
let failures t = t.failures
