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

type t
(** An NI channel.  Abstract: all state changes go through the operations
    below, which is what lets the NI (or interrupt handler) and the kernel
    share it safely. *)

val create : ?limit:int -> unit -> t
(** Fresh empty channel; [limit] (default 32 packets) is the early-discard
    threshold.  The queue is a flat ring of frame rows ({!Lrp_net.Parena}
    handles of the kernel's frame pool) that starts at [min limit 4]
    slots and doubles, up to [limit], as the queue deepens. *)

val reopen : t -> unit
(** Make a closed, empty channel new for its next endpoint: a fresh id
    (drawn where {!create} would draw one, so ids follow the same
    sequence) and every flag and counter as {!create} sets them; the
    ring keeps the size it grew to.  A kernel recycles a connection's
    channel this way. *)

val id : t -> int
(** Unique channel identifier (used as a table key by the kernel). *)

(** {2 Admission}

    The per-packet hot path returns an integer code, so that admission
    allocates nothing. *)

val discarded_code : int
val queued_was_empty : int
val queued_was_nonempty : int

val enqueue_code : t -> Lrp_net.Parena.handle -> int
(** What the NI does on packet arrival: early discard when the queue is
    full or processing is disabled, FIFO append otherwise.  Returns one
    of the codes above; the empty-to-nonempty transition lets the caller
    implement interrupt suppression.  The caller keeps a discarded row
    (and releases it). *)

val pop_row : t -> Lrp_net.Parena.handle
(** Dequeue the oldest frame's row: the caller owns the row and releases
    it once done with the frame.  [Lrp_net.Parena.none] means the queue
    was empty. *)

val length : t -> int

val is_empty : t -> bool

val request_interrupt : t -> unit
(** Receiver is blocked: ask the NI for an interrupt on the next
    empty-to-non-empty transition (section 3.3). *)

val clear_interrupt_request : t -> unit

val interrupt_requested : t -> bool

val enable_processing : t -> unit

val disable_processing : t -> unit
(** Gate used for listening sockets whose backlog is exceeded: while
    disabled, every enqueue is discarded cheaply (section 3.4). *)

val job_owner : t -> int
(** The process whose LRP APP thread (section 3.4) holds a queued job to
    drain this channel, or -1: a packet arriving meanwhile needs no
    second job there.  The kernel sets and clears it; the channel never
    reads it. *)

val set_job_owner : t -> int -> unit

val enqueued : t -> int
(** Packets accepted since creation. *)

val discarded : t -> int
(** Early discards due to a full queue. *)

val discarded_disabled : t -> int
(** Discards while processing was disabled (e.g. SYN-flood victims). *)

val high_watermark : t -> int
(** Deepest queue occupancy observed since creation (overload
    forensics: a high watermark near [limit] means the channel has been
    on the edge of early discard). *)
