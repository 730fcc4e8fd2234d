(** Network interface model.

    The NIC is deliberately thin: it owns the transmit queue ("interface
    queue" in the paper's figures) and delivers received frames to a
    receive handler installed by the kernel architecture.  The handler runs
    in *NIC context* — an engine event with zero host-CPU cost.  What
    happens next is the architectural difference the paper studies:

    - BSD / Early-Demux / SOFT-LRP post hardware-interrupt work to the host
      CPU from the handler;
    - NI-LRP performs demultiplexing and early discard right in the handler
      (modelling the adaptor's embedded i960 CPU) and only interrupts the
      host when a receiver asked to be woken.

    Transmission models the 155 Mbit/s ATM link: per-packet serialisation
    delay with optional AAL5 cell quantisation, drained from a bounded
    interface queue. *)

type stats = {
  mutable tx_packets : int;
  mutable tx_bytes : int;
  mutable rx_packets : int;
  mutable tx_drops : int;
}

(** One receive queue of the queued-RX mode: a bounded ring the NIC DMAs
    frames into at zero host cost, with a maskable interrupt and
    packet-count/timer coalescing. *)
type rxq = {
  q_id : int;
  ring : Parena.handle array;  (** frame rows *)
  mutable q_head : int;
  mutable q_count : int;
  mutable intr_on : bool;
  mutable timer : Lrp_engine.Engine.handle;
      (** armed coalesce timer; [Engine.none] when disarmed *)
  mutable q_rx : int;
  mutable q_drops : int;
  mutable q_kicks : int;
  mutable q_hwm : int;
}

type t = {
  engine : Lrp_engine.Engine.t;
  ip : Packet.ip;
  bandwidth : float;
  cellify : bool;
  ifq_limit : int;
  pool : Parena.t;  (** the cell's frame pool, shared with the fabric *)
  ifq : Parena.handle array;
      (** the interface queue: a ring of frame rows sized [ifq_limit] *)
  ifq_wire : int array;
      (** each queued frame's wire bytes, cached at enqueue *)
  mutable ifq_head : int;
  mutable ifq_count : int;
  mutable tx_busy : bool;
  mutable rx_handler : Parena.handle -> unit;
  mutable deliver : Parena.handle -> unit;
  mutable tx_done : Parena.handle Lrp_engine.Engine.target option;
      (** closure-free tx-complete event; registered on first transmit *)
  mutable rxq_timer_tgt : rxq Lrp_engine.Engine.target option;
      (** closure-free coalesce-timer expiry; registered on first arm *)
  stats : stats;
  mutable tracer : Lrp_trace.Trace.t;
  mutable rxqs : rxq array;
      (** queued-RX mode when non-empty; [[||]] = classic immediate mode *)
  mutable rx_steer : Parena.handle -> int;
  mutable rx_kick : int -> unit;
  mutable coalesce_pkts : int;
  mutable coalesce_us : float;
}
val mbps_to_bytes_per_us : float -> float
(** Unit helper: link rate in Mbit/s to bytes per microsecond. *)

val create :
  Lrp_engine.Engine.t ->
  ?pool:Parena.t ->
  ip:Packet.ip ->
  ?cellify:bool -> ?ifq_limit:int -> unit -> t
(** A NIC drawing its frames' rows from [pool] (a fabric passes its
    cell's); without one it makes its own. *)

val ip : t -> Packet.ip
val pool : t -> Parena.t
val stats : t -> stats

(** Install the owning kernel's tracer; the NIC stamps a [Nic_rx] event
    per received frame. *)
val set_tracer : t -> Lrp_trace.Trace.t -> unit

(** Tx/rx packet and byte counts, tx drops, the instantaneous
    interface-queue length and the receive queues' drops and kicks, named
    under [prefix]. *)
val counters : t -> prefix:string -> (string * float) list
val set_rx_handler : t -> (Parena.handle -> unit) -> unit
(** Install the kernel's receive path.  The handler runs in NI context
    (an engine event, zero host CPU); what it posts to the host CPU is the
    architectural difference the paper studies. *)

val set_deliver : t -> (Parena.handle -> unit) -> unit

val transmit_row : t -> Parena.handle -> bool
(** Driver if_output: the owner of a row of the pool hands it over, and
    it is enqueued on the interface queue and the transmitter kicked;
    [false] on queue overflow (the row is released). *)

val transmit : t -> Packet.t -> bool
(** {!transmit_row} of a datagram value copied into a new row
    ({!Parena.copy_in}): the benchmark's UDP source sends this way; the
    simulator's own senders write rows. *)

val ifq_length : t -> int

(** {1 Queued RX (NAPI-era back-ends)} *)

val configure_rx_queues :
  t -> queues:int -> ring:int -> coalesce_pkts:int -> coalesce_us:float ->
  steer:(Parena.handle -> int) -> kick:(int -> unit) -> unit
(** Switch the NIC into queued-RX mode: received frames are steered by
    [steer] into one of [queues] bounded rings of [ring] slots each (DMA,
    zero host cost; an overflow is a free [Nic_ring] drop that releases
    the row).
    An unmasked queue raises an interrupt — [kick q] — once
    [coalesce_pkts] frames are buffered, or [coalesce_us] after the first
    frame of a sub-threshold train (a [Coalesce_fire] trace event marks
    each).  [kick] runs in NIC context and is expected to mask the queue
    ({!rxq_disable_intr}) and schedule host-side polling. *)

val rx_queues : t -> int
(** Number of configured receive queues; [0] = classic immediate mode. *)

val rxq_pop : t -> int -> Parena.handle
(** Dequeue the oldest frame's row of a queue, or {!Parena.none} when
    empty (zero host cost here; the caller charges its own poll costs).
    The caller owns the row. *)

val rxq_len : t -> int -> int

val rxq_enable_intr : t -> int -> unit
(** Unmask the queue's interrupt.  If frames arrived while it was masked
    the coalescing decision re-runs immediately — the classic NAPI
    re-enable race is closed inside the NIC. *)

val rxq_disable_intr : t -> int -> unit

val rxq_stats : t -> int -> int * int * int * int
(** [(rx, drops, kicks, hwm)] counters of one queue. *)

val receive : t -> Parena.handle -> unit
(** A frame reaches this NIC (the fabric's arrival event). *)
