(** ATM-like switching fabric connecting the hosts' NICs.

    A single output-buffered switch: a frame transmitted by a NIC reaches
    the switch after the source link's propagation delay, waits for the
    destination port to be free (per-port serialisation at link bandwidth),
    and arrives at the destination NIC after the switch latency plus the
    destination link's propagation delay.  Output ports have a bounded
    amount of buffering; overruns drop frames, which is the
    congestion-related loss the paper observed above 19,000 pkts/s on its
    ATM network. *)

(** Per-link fault models for deterministic fault injection.  All
    stochastic decisions draw from a per-port stream split off the
    fabric's fault RNG, so sweeps stay byte-identical at any [--jobs]. *)
module Faults : sig
  type t = {
    loss : float;          (** uniform per-frame loss probability *)
    ge_loss_good : float;  (** Gilbert–Elliott loss probability, Good state *)
    ge_loss_bad : float;   (** loss probability, Bad state (bursty loss) *)
    ge_p_gb : float;       (** per-frame P(Good -> Bad) *)
    ge_p_bg : float;       (** per-frame P(Bad -> Good) *)
    dup : float;           (** per-frame duplication probability *)
    corrupt : float;       (** per-frame payload-corruption probability *)
    reorder : float;       (** per-frame probability of being held back *)
    reorder_span : int;    (** max displacement of a held frame, in frames *)
    jitter_us : float;     (** max uniform extra per-frame delay *)
  }

  val none : t
  (** All fault probabilities zero; behaves exactly like an unconfigured
      link (zero extra RNG draws). *)

  val make :
    ?loss:float ->
    ?ge_loss_good:float ->
    ?ge_loss_bad:float ->
    ?ge_p_gb:float ->
    ?ge_p_bg:float ->
    ?dup:float ->
    ?corrupt:float ->
    ?reorder:float -> ?reorder_span:int -> ?jitter_us:float -> unit -> t

end

type held = {
  hrow : Parena.handle;
  mutable countdown : int;
  mutable released : bool;
}

type fault_state = {
  mutable cfg : Faults.t;
  frng : Lrp_engine.Rng.t;
  mutable ge_bad : bool;
  mutable fheld : held list;
  flush_tgt : held Lrp_engine.Engine.target;
}

type port = {
  nic : Nic.t;
  rx_tgt : Parena.handle Lrp_engine.Engine.target;
      (** closure-free arrival event for this port *)
  busy_until : float array;
      (** 1-slot cell: when the output port finishes its current frame *)
  mutable rx_frames : int;
  mutable drops : int;
  mutable fstate : fault_state option;
}

(** Cross-cell uplink for sharded topologies ({!Lrp_engine.Shardsim}).

    A fabric with an uplink is one {e cell}'s leaf switch: frames whose
    destination resolves to another cell are serialised onto the uplink
    (own bandwidth and bounded buffer) and appended to a per-cell SoA
    {e outbox} instead of being delivered locally.  The coordinator
    drains outboxes at epoch barriers ({!drain_outbox}) and injects each
    frame into the destination cell ({!inject_remote}) at its ready
    time; {!set_uplink}'s [min_latency] lower-bounds send-to-effect
    distance and is the shard scheduler's lookahead window. *)
type uplink = {
  up_cell : int;                       (** this fabric's cell id *)
  up_resolve : Packet.ip -> int;       (** destination cell, -1 = unknown *)
  up_latency : int -> float;           (** cross-link latency to a cell *)
  up_bandwidth : float;                (** uplink rate, bytes/us *)
  up_busy : float array;               (** 1-slot cell: uplink busy until *)
  mutable ob_ready : float array;      (** outbox: arrival deadline *)
  mutable ob_dst : int array;          (** outbox: destination cell *)
  mutable ob_row : Parena.handle array;  (** rows of this cell's pool *)
  mutable ob_len : int;
  mutable up_tx : int;
  mutable up_rx : int;
  mutable up_drops : int;
  inject_tgt : Parena.handle Lrp_engine.Engine.target;
}

type uplink_stats = {
  up_sent : int;      (** frames serialised onto the uplink *)
  up_received : int;  (** frames injected from other cells *)
  up_dropped : int;   (** uplink buffer overruns *)
  up_backlog : int;   (** outbox entries awaiting a barrier drain *)
}
(** Cross-cell conservation (over all cells): sum of [up_sent] = sum of
    [up_received] + sum of [up_backlog].  Deliberately separate from
    {!fault_stats} so the per-fabric conservation law is unchanged. *)

type fault_stats = {
  offered : int;      (** frames presented to links (incl. pre-link drops) *)
  delivered : int;    (** frames scheduled into a destination NIC *)
  duplicated : int;   (** extra copies created by duplication faults *)
  fault_lost : int;   (** frames dropped by per-link loss (uniform + GE) *)
  corrupted : int;    (** frames altered in flight (still delivered) *)
  reordered : int;    (** frames held back for later release *)
  held_now : int;     (** frames currently in reorder buffers *)
}
(** Conservation: [offered + duplicated
    = delivered + total fabric drops + held_now]. *)

type t = {
  engine : Lrp_engine.Engine.t;
  clock : float array;  (** the engine's clock cell *)
  at : float array;
      (** 1-slot cell: when the frame being forwarded reaches the switch *)
  bandwidth : float;
  prop_delay : float;
  switch_latency : float;
  ports : port Lrp_det.Itab.t;
  pool : Parena.t;
      (** the cell's frame pool: every frame on this switch, its NICs and
          their kernels is a row here *)
  mutable total_drops : int;
  loss_rng : Lrp_engine.Rng.t;
  mutable default_port : Packet.ip option;
  mutable uplink : uplink option;
  mutable offered : int;
  mutable delivered : int;
  mutable duplicated : int;
  mutable fault_lost : int;
  mutable corrupted : int;
  mutable reordered : int;
}
(** Build the switch; per-port bandwidth defaults to 155 Mbit/s with a
    bounded output buffer (overruns are congestion drops).  The switch
    makes its cell's frame pool, unless given one: a second network of
    the same cell (a gateway's other side) shares the first's. *)

val create :
  Lrp_engine.Engine.t ->
  ?pool:Parena.t ->
  ?bandwidth_mbps:float ->
  ?prop_delay:float -> ?switch_latency:float -> unit -> t

val set_link_faults : t -> ip:Packet.ip -> Faults.t -> unit
(** Configure link weather on the path {e towards} the port attached as
    [ip].  The first configuration splits the port's private fault RNG off
    the fabric's fault stream; reconfiguring keeps RNG and channel state.
    @raise Invalid_argument on an unknown port or invalid faults. *)

val set_faults : t -> Faults.t -> unit
(** [set_link_faults] on every attached port, in deterministic (sorted
    address) order. *)

val fault_stats : t -> fault_stats

val set_default_gateway : t -> ip:Packet.ip -> unit
(** Route frames for off-link destinations to the port attached as [ip]
    (a forwarding host).  @raise Invalid_argument if no such port. *)

val drops : t -> int

val set_uplink :
  t ->
  cell:int ->
  resolve:(Packet.ip -> int) ->
  latency:(int -> float) ->
  min_latency:float ->
  ?bandwidth_mbps:float -> unit -> unit
(** Make this fabric a cell's leaf switch.  [resolve ip] gives the owning
    cell of an address (negative = not in the topology; falls back to the
    default-gateway/drop path), [latency c] the cross-link latency to cell
    [c], and [min_latency] a positive lower bound on [latency] — the
    shard scheduler's lookahead.  Uplink bandwidth defaults to 622 Mbit/s
    (OC-12 spine vs the 155 Mbit/s OC-3 leaves).
    @raise Invalid_argument on a non-positive or non-finite
    [min_latency]. *)

val drain_outbox :
  t -> ready:float array -> pool_of:(int -> Parena.t) ->
  (int -> Parena.handle -> unit) -> int
(** [drain_outbox t ~ready ~pool_of f] visits and clears this cell's
    outbox in transmit order: each frame is copied into the pool of its
    destination cell [dst] ([pool_of dst]) and released here, then
    [f dst row] is called with the new row and the frame's arrival
    deadline on cell [dst] staged in [ready.(0)] (a float argument would
    box per frame).  Returns the number of entries drained.  Coordinator
    only, at an epoch barrier. *)

val inject_remote : t -> Parena.handle -> unit
(** Schedule a frame drained from another cell's outbox to arrive on this
    (the destination) cell at the time staged in its engine's
    {!Lrp_engine.Engine.deadline_cell}.  Coordinator only, at a barrier:
    requires that time [>=] every cell clock (the lookahead
    invariant). *)

val uplink_stats : t -> uplink_stats
(** All-zero when no uplink is configured. *)

val pool : t -> Parena.t

val make_nic :
  t ->
  ip:Packet.ip -> ?cellify:bool -> ?ifq_limit:int -> unit -> Nic.t
