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

(* The queue is a ring of frame rows ({!Parena} handles of the kernel's
   frame pool): the NI pushes the row — an immediate int — into a flat
   ring, and the receiver pops it and owns it from there.  Compared with
   a [Packet.t Queue.t] this removes, per packet: the queue-cell
   allocation on enqueue, the option allocation of [Queue.take_opt], and
   a pointer store into an old array.

   The ring starts at [min limit 4] slots and doubles up to [limit] as
   the queue deepens (enqueue early-discards at [limit], so it never
   grows past it).  Most channels — one per connection — never hold
   more than a few frames, so they never pay for [limit] slots. *)
type t = {
  mutable id : int;
  mutable ring : Parena.handle array;
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

let create ?(limit = 32) () =
  { id = Lrp_engine.Idspace.next_chan_id ();
    ring = Array.make (Int.max 0 (Int.min limit 4)) Parena.none;
    head = 0; count = 0;
    limit;
    intr_requested = false; processing_enabled = true; job_owner = -1;
    enqueued = 0;
    discarded = 0; discarded_disabled = 0; hwm = 0 }

(* A closed, empty channel made new for its next endpoint: a fresh id,
   drawn where [create] would have drawn one, and every flag and counter
   as [create] sets them.  The ring keeps the size it grew to. *)
let reopen t =
  assert (t.count = 0);
  t.id <- Lrp_engine.Idspace.next_chan_id ();
  t.head <- 0;
  t.intr_requested <- false;
  t.processing_enabled <- true;
  t.job_owner <- -1;
  t.enqueued <- 0;
  t.discarded <- 0;
  t.discarded_disabled <- 0;
  t.hwm <- 0

let id t = t.id

(* [enqueue_code]'s results: ints, so admission allocates nothing. *)
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
let[@inline] push t row =
  let was_empty = t.count = 0 in
  let cap = Array.length t.ring in
  let tail = t.head + t.count in
  let tail = if tail >= cap then tail - cap else tail in
  t.ring.(tail) <- row;
  t.count <- t.count + 1;
  if t.count > t.hwm then t.hwm <- t.count;
  t.enqueued <- t.enqueued + 1;
  if was_empty then queued_was_empty else queued_was_nonempty

(* [enqueue_code t row] is what the NI does on packet arrival: early
   discard when the queue is full or processing is disabled (the caller
   still owns a discarded row), FIFO append otherwise.  Returns one of the codes above; together with the handle
   ring this keeps the admission path free of per-packet allocation.  A
   ring with room costs one compare; a full one is either at [limit]
   (discard) or grows. *)
let enqueue_code t row =
  if not t.processing_enabled then begin
    t.discarded_disabled <- t.discarded_disabled + 1;
    discarded_code
  end
  else if t.count < Array.length t.ring then push t row
  else if t.count >= t.limit then begin
    t.discarded <- t.discarded + 1;
    discarded_code
  end
  else begin
    grow t;
    push t row
  end

(* [pop_row t] dequeues the oldest frame's row: the caller owns the row
   from here and releases it once done with the frame.  [Parena.none]
   means the queue was empty. *)
let pop_row t =
  if t.count = 0 then Parena.none
  else begin
    let h = t.ring.(t.head) in
    let head' = t.head + 1 in
    t.head <- (if head' >= Array.length t.ring then 0 else head');
    t.count <- t.count - 1;
    h
  end

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
