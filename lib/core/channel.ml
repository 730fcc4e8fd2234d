(** NI channels (paper section 3.1).

    An NI channel is the queue shared between the network interface and the
    rest of the kernel.  Each socket gets its own channel; all received
    traffic for the socket flows through it.  The channel is where LRP's two
    load-control mechanisms live:

    - {b early packet discard}: once the queue is full, further packets for
      this socket are silently dropped by the NI (or the interrupt handler,
      for soft demux) before any host resources are invested;
    - {b feedback}: because receiver protocol processing runs at the
      receiving application's priority, a receiver that cannot keep up stops
      draining its channel, and the overload is shed at the NI without
      affecting any other socket.

    [processing_enabled] implements the listening-socket rule of section
    3.4: protocol processing is disabled for listeners whose backlog is
    exceeded, causing further SYNs to die here, cheaply.

    [intr_requested] is the interrupt-suppression flag of section 3.3: the
    NI raises a host interrupt only when the queue transitions from empty to
    non-empty and a receiver asked to be notified. *)

open Lrp_net

(* The queue is a ring of {!Parena} handles: the NI admits a frame into
   the (usually kernel-shared) descriptor arena and pushes the handle —
   an immediate int — into a flat ring.  Compared with a
   [Packet.t Queue.t] this removes, per packet: the queue-cell
   allocation on enqueue, the option allocation of [Queue.take_opt], and
   the boxed packet sitting behind one more pointer indirection on the
   hottest per-packet loop in the system.

   The ring starts at [min limit 4] slots and doubles up to [limit] as
   the queue deepens (enqueue early-discards at [limit], so it never
   grows past it).  Most channels — one per connection — never hold
   more than a few frames, so they never pay for [limit] slots. *)
type t = {
  id : int;
  arena : Parena.t;
  mutable ring : int array; (* Parena handles *)
  mutable head : int; (* index of the oldest entry *)
  mutable count : int;
  limit : int;
  mutable intr_requested : bool;
  mutable processing_enabled : bool;
  mutable job_owner : int;  (* whose queued job drains this channel, or -1 *)
  (* statistics *)
  mutable enqueued : int;
  mutable discarded : int;        (* early discards: queue full *)
  mutable discarded_disabled : int; (* discards due to disabled processing *)
  mutable hwm : int;              (* deepest queue occupancy observed *)
}

(* Channel ids come from the per-engine id space installed on this domain
   (Lrp_engine.Idspace), so a cell's id sequence is independent of other
   simulations — and other shards — allocating concurrently. *)

let create ?arena ?(limit = 32) () =
  let arena =
    (* Real kernels share one arena across all their channels; a channel
       created standalone (tests, microbenches) gets a private one. *)
    match arena with Some a -> a | None -> Parena.create ()
  in
  { id = Lrp_engine.Idspace.next_chan_id ();
    arena; ring = Array.make (Int.max 0 (Int.min limit 4)) Parena.none;
    head = 0; count = 0;
    limit;
    intr_requested = false; processing_enabled = true; job_owner = -1;
    enqueued = 0;
    discarded = 0; discarded_disabled = 0; hwm = 0 }

let id t = t.id

type enqueue_result =
  | Queued of [ `Was_empty | `Was_nonempty ]
  | Discarded

(* Alloc-free result codes for the per-packet fast path; {!enqueue} wraps
   them in the structured variant for callers that prefer pattern
   matching. *)
let discarded_code = 0
let queued_was_empty = 1
let queued_was_nonempty = 2

(* Double the ring, up to [limit] slots, unrolling the live handles to
   index 0. *)
let grow t =
  let cap = Array.length t.ring in
  let ring =
    (* alloc: cold — amortized growth *)
    Array.make (Int.min t.limit (2 * cap)) Parena.none
  in
  for i = 0 to t.count - 1 do
    let j = t.head + i in
    ring.(i) <- t.ring.(if j >= cap then j - cap else j)
  done;
  t.ring <- ring;
  t.head <- 0

(* Append to a ring with room. *)
let[@inline] push t pkt =
  let was_empty = t.count = 0 in
  let cap = Array.length t.ring in
  let tail = t.head + t.count in
  let tail = if tail >= cap then tail - cap else tail in
  t.ring.(tail) <- Parena.acquire t.arena pkt ~charge:0;
  t.count <- t.count + 1;
  if t.count > t.hwm then t.hwm <- t.count;
  t.enqueued <- t.enqueued + 1;
  if was_empty then queued_was_empty else queued_was_nonempty

(* [enqueue_code t pkt] is what the NI does on packet arrival: early
   discard when the queue is full or processing is disabled, FIFO append
   otherwise.  Returns one of the codes above; together with the handle
   ring this keeps the admission path free of per-packet allocation.  A
   ring with room costs one compare; a full one is either at [limit]
   (discard) or grows. *)
let enqueue_code t pkt =
  if not t.processing_enabled then begin
    t.discarded_disabled <- t.discarded_disabled + 1;
    discarded_code
  end
  else if t.count < Array.length t.ring then push t pkt
  else if t.count >= t.limit then begin
    t.discarded <- t.discarded + 1;
    discarded_code
  end
  else begin
    grow t;
    push t pkt
  end

let enqueue t pkt =
  let c = enqueue_code t pkt in
  if c = discarded_code then Discarded
  else Queued (if c = queued_was_empty then `Was_empty else `Was_nonempty)

(* [pop_row t] dequeues the oldest frame's row without releasing it: the
   caller owns the row from here and releases it once done with the
   frame.  [Parena.none] means the queue was empty. *)
let pop_row t =
  if t.count = 0 then Parena.none
  else begin
    let h = t.ring.(t.head) in
    t.ring.(t.head) <- Parena.none;
    let head' = t.head + 1 in
    t.head <- (if head' >= Array.length t.ring then 0 else head');
    t.count <- t.count - 1;
    h
  end

(* [pop t] dequeues without boxing: [Lrp_net.Packet.null] (compare with
   [==]) means the queue was empty.  The consumer-side twin of
   {!enqueue_code}. *)
let pop t =
  let h = pop_row t in
  if h = Parena.none then Packet.null
  else begin
    let pkt = Parena.pkt t.arena h in
    Parena.release t.arena h;
    pkt
  end

let dequeue t = if t.count = 0 then None else Some (pop t)

let length t = t.count

let is_empty t = t.count = 0

let request_interrupt t = t.intr_requested <- true

let clear_interrupt_request t = t.intr_requested <- false

let interrupt_requested t = t.intr_requested

let enable_processing t = t.processing_enabled <- true

let disable_processing t = t.processing_enabled <- false

let job_owner t = t.job_owner

let set_job_owner t o = t.job_owner <- o

let enqueued t = t.enqueued
let discarded t = t.discarded
let discarded_disabled t = t.discarded_disabled
let high_watermark t = t.hwm
