(** Simulated host kernel, parameterised by network-subsystem architecture.

    One [Kernel.t] per host.  It owns the CPU, the NIC, the protocol state
    (PCBs, reassembly, TCP connections) and implements the four receive
    architectures the paper compares.  Each is a point on three axes
    ({!demux_point}, {!proto_ctx}, {!rx_mode}); the receive path reads
    those axes, never the architecture itself:

    - {b Bsd}: eager interrupt-driven processing.  The hardware interrupt
      stores the packet and appends it to the shared IP queue; a software
      interrupt performs IP + transport processing and deposits data on the
      socket queue; the application finally copies it out in a receive
      system call (section 2.1).
    - {b Soft_lrp}: LRP with demultiplexing in the interrupt handler: the
      hardware interrupt classifies the packet onto its NI channel (early
      discard if full); all protocol processing happens lazily in the
      receiver's context or in an APP thread charged to the receiver.
    - {b Ni_lrp}: like [Soft_lrp], but classification and discard happen on
      the network interface itself at zero host cost; the host is
      interrupted only when a blocked receiver must be woken.
    - {b Early_demux}: the control experiment of section 4.2 — early
      demultiplexing and early discard like SOFT-LRP, but protocol
      processing stays eager in software-interrupt context like BSD.

    Three modern (post-paper) back-ends extend the comparison to the
    receive architectures that eventually shipped in mainstream kernels:

    - {b Napi}: interrupt mitigation with budgeted polling and NIC-level
      interrupt coalescing; budget exhaustion defers polling to a
      fairly-scheduled ksoftirqd process.
    - {b Napi_gro}: [Napi] plus receive-offload aggregation of
      consecutive in-order same-flow TCP segments (and same-flow UDP
      datagram trains) at the poll loop.
    - {b Rss}: receive-side scaling: flows hash over the packed flow key
      onto several receive rings, each with its own NAPI poll context.

    All architectures share the same protocol code ({!Lrp_proto.Tcp},
    {!Lrp_proto.Ip}) and the same cost table, exactly as the paper's kernels
    shared the 4.4BSD networking code.  Syscall-level behaviour (the socket
    API) lives in {!Api}. *)

type arch = Bsd | Soft_lrp | Ni_lrp | Early_demux | Napi | Napi_gro | Rss
(** The four receive architectures of the paper's evaluation, plus the
    three modern back-ends. *)

val arch_name : arch -> string

type demux_point =
  | Softirq  (** after IP processing, in the software interrupt (BSD) *)
  | Hardirq  (** in the hardware interrupt handler *)
  | Nic  (** on the network interface, at no host cost *)
(** Where a received packet is demultiplexed to its endpoint. *)

type proto_ctx =
  | Eager  (** software interrupts, as packets arrive *)
  | Lazy  (** the receiving process, when it asks for data (LRP) *)
(** Who performs protocol processing, and when.  Buffer ownership
    follows: lazy kernels receive into NI channels, eager ones into the
    mbuf pool. *)

type rx_mode =
  | Intr  (** one interrupt per frame *)
  | Poll  (** queued rings drained by a budgeted poll loop *)
  | Poll_gro  (** [Poll] plus receive-offload aggregation *)
(** How the primary NIC hands frames to the host. *)

val is_lrp : arch -> bool
(** The architecture processes protocols lazily. *)

type config = {
  arch : arch;
  costs : Cost.t;
  channel_limit : int;
  mss : int;
  time_wait : float;
  udp_helper : bool;
  forwarding : bool;
  fair_app_accounting : bool;
  napi_budget : int;
      (** frames per poll round before deferring to ksoftirqd; a
          pathologically high budget keeps all polling at softirq level
          and reintroduces livelock *)
  coalesce_pkts : int;
      (** raise the interrupt after this many buffered frames... *)
  coalesce_us : float;  (** ... or this long after the first one *)
}
val default_config : ?costs:Cost.t -> arch -> config
(** The paper's testbed defaults: 32-packet channels, MSS 9140, 30 s
    TIME_WAIT, the UDP helper on, forwarding off; NAPI-family budget 64
    and 8-packet / 30 us coalescing.  What no scenario varies is a
    constant: the ATM MTU ({!mtu}, 9180), the 50-packet BSD IP queue, 4096
    mbufs, TCP's 1.5 s initial RTO and 4 SYN retries, {!rx_ring}-slot
    receive rings, 4 receive queues under [Rss] (1 otherwise), the LRP
    fragment, proxy-daemon and forwarding channels (64, 32 and 64
    packets), the LRP forwarding daemon at the default priority, and in
    {!Api} 32 kB TCP socket buffers and, in {!Socket}, 32-datagram UDP
    socket queues. *)

val mtu : int
(** The ATM AAL5 MTU, 9180 bytes: IP output fragments larger datagrams. *)

val rx_ring : int
(** Slots per NAPI-family receive ring (256). *)

(** The kernel's counters, read by {!stats} at call time.  Each drop
    field is the total of one {!Lrp_trace.Trace.reason} in the kernel's
    tracer: [ipq_drops] [Ip_queue], [mbuf_drops] [Mbuf_pool],
    [no_port_drops] [No_port], [demux_drops] [Demux_miss],
    [edemux_early_drops] [Edemux_discard], [rx_wrong_peer] [Wrong_peer],
    [fwd_drops] [Not_forwarding] and [csum_drops] [Checksum]. *)
type kstats = {
  rx_frames : int;
  ipq_drops : int;
  mbuf_drops : int;
  no_port_drops : int;
  demux_drops : int;
  edemux_early_drops : int;
  udp_delivered : int;
  tcp_delivered : int;
      (** TCP segments fed to their connection's state machine (with
          {!kstats.udp_delivered} and [forwarded], the "delivered work"
          numerator of the overload detector) *)
  rx_wrong_peer : int;
  forwarded : int;
  fwd_drops : int;
  rsts_sent : int;
  csum_drops : int;
  ipq_hwm : int;
      (** deepest shared-IP-queue depth observed (BSD path) *)
}
type app
(** A process's APP thread: asynchronous TCP protocol processing charged
    to its owner (section 3.4). *)

type napi
(** Per-receive-queue NAPI poll context. *)

type jobs
(** The kernel's typed interrupt jobs ({!Lrp_sim.Cpu.job}), registered
    once at creation. *)

type ep = private {
  mutable ep_port : int;
  mutable ep_conn : Lrp_proto.Tcp.conn;  (** [Tcp.null_conn] for datagrams *)
  mutable ep_group : bool;  (** a multicast group: [ep_socks] are its members *)
  mutable ep_socks : Socket.t list;
      (** a datagram endpoint's bound socket or group members; [[]] on a
          connection *)
  mutable ep_sock : Socket.t;
      (** a connection's or listener's socket; {!Socket.none} until it
          has one (an unaccepted child) *)
  mutable ep_owner : Lrp_sim.Proc.t;  (** [Proc.none]: nobody's *)
  mutable ep_chan : Lrp_core.Channel.t option;  (** lazy kernels only *)
  mutable ep_gen : int;
      (** its releases so far: a holder across a release compares it *)
}
(** An endpoint (section 3.1): a bound datagram socket, a multicast
    group, a listener or a connection.  The one record that links its
    sockets, the process its protocol work is charged to (section 3.4),
    its NI channel and its PCB.  It is one entry of the demux table
    ({!t.chantab}) under every architecture.  Opened by the operations
    below, released on one path when the socket closes or the connection
    is gone.  A connection's endpoint and channel then go back to the
    kernel's pools ({!t.ep_pool}, {!t.chan_pool}). *)

type 'a pool = private {
  mutable items : 'a array;
  mutable n : int;  (** spare records *)
  mutable made : int;  (** records made for the pool: [made - n] are live *)
  blank : 'a;
}
(** A free list of released records. *)

type t = private {
  kname : string;
  engine : Lrp_engine.Engine.t;
  cpu : Lrp_sim.Cpu.t;
  nic : Lrp_net.Nic.t;
  mutable interfaces : (Lrp_net.Packet.ip * int * Lrp_net.Nic.t) list;
  cfg : config;
  demux : demux_point;
  proto : proto_ctx;
  rx_mode : rx_mode;  (** the architecture's axes, cached at creation *)
  c : Cost.t;
  ip_addr : Lrp_net.Packet.ip;
  mutable ipq_len : int;
  mbufs : Lrp_net.Mbuf.t;
  chantab : ep Lrp_core.Chantab.t;
      (** the demux table: every endpoint, by UDP port, four-tuple or
          listen port; the LRP kernels' NI classification and the eager
          kernels' PCB lookup both read it *)
  eps : ep Lrp_det.Itab.t;  (** connections and listeners by conn id *)
  ep_pool : ep pool;  (** released connection endpoints *)
  chan_pool : Lrp_core.Channel.t option pool;
      (** closed connection channels, kept in their [Some] cells *)
  stream_shared : Socket.shared;  (** what its stream sockets share *)
  parena : Lrp_net.Parena.t;
      (** the cell's frame pool, shared with the NIC and the fabric: every
          frame the kernel holds is a row here, under every architecture
          (NI channel and receive rings, the IP queue, CPU jobs, eager
          paths' frames charged their mbufs, pending reassemblies and
          socket-queue datagrams) *)
  frag_chan : Lrp_core.Channel.t;
      (** LRP's channel for non-first fragments (section 3.2) *)
  icmp_chan : Lrp_core.Channel.t;
      (** the protocol-proxy daemon's channel: ICMP, and TCP segments no
          endpoint takes (section 3.5) *)
  fwd_chan : Lrp_core.Channel.t;
      (** the IP-forwarding daemon's channel (section 3.5) *)
  apps : app Lrp_det.Itab.t;
  helper_wq : Lrp_sim.Proc.waitq;
  fwd_wq : Lrp_sim.Proc.waitq;
  mutable udp_eps : ep list;
  mutable napi : napi array;
      (** one per RX queue; [[||]] unless NAPI-family *)
  mutable rxj : jobs option;  (** registered by {!create} *)
  reasm : Lrp_proto.Ip.Reasm.t;
  mutable tcp_env : Lrp_proto.Tcp.env option;
  mutable eph_port : int;
  mutable rx_frames : int;
  mutable udp_delivered : int;
  mutable tcp_delivered : int;
  mutable forwarded : int;
  mutable rsts_sent : int;
  mutable ipq_hwm : int;
  tracer : Lrp_trace.Trace.t;
      (** also the kernel's drop counters ({!Lrp_trace.Trace.drops}) *)
}
val name : t -> string
val cpu : t -> Lrp_sim.Cpu.t
val engine : t -> Lrp_engine.Engine.t
val nic : t -> Lrp_net.Nic.t
val costs : t -> Cost.t
val stats : t -> kstats
val ip_address : t -> Lrp_net.Packet.ip
val chantab : t -> ep Lrp_core.Chantab.t
val mbufs : t -> Lrp_net.Mbuf.t

val channels : t -> Lrp_core.Channel.t list
(** The live NI channels: the channels of the demux table's endpoints,
    newest first, then the fragment, ICMP and forwarding channels. *)

val early_discards : t -> int
(** Early discards at every NI channel since the kernel was made, closed
    channels included: the tracer's [Ni_channel] total. *)

val tracer : t -> Lrp_trace.Trace.t
(** The kernel's structured tracer.  Disabled by default; enable with
    {!set_tracing} (or {!Lrp_trace.Trace.set_enabled}) to record packet
    lifecycle and scheduler events into the per-kernel flight recorder. *)

val counters : t -> (string * float) list
(** Every kernel, TCP, engine-timer, CPU, scheduler, NIC (["nic"] for the
    primary interface, ["nicN"] for added ones) and reassembly counter as
    [(name, value)] rows sorted by name, read at call time. *)

val set_tracing : t -> bool -> unit
val tcp_env_exn : t -> Lrp_proto.Tcp.env
val ip_output_row : t -> Lrp_net.Parena.handle -> unit
(** IP output of a locally written row of the frame pool ({!parena}):
    enqueued on the routed interface, fragmented to the MTU if it does
    not fit. *)

val free_rx_pkt : t -> Lrp_net.Parena.handle -> unit
(** Release a received frame's {!parena} row and give the mbufs it is
    charged (none under lazy processing) back to the pool. *)

val wake_all : t -> Lrp_sim.Proc.waitq -> unit

val recv_timeout_target :
  t -> (Socket.t * bool ref) Lrp_engine.Engine.target
(** Typed recvfrom-timeout expiry dispatcher (registered at creation):
    sets the flag and wakes the socket's receive waiters. *)

val update_listen_gate : t -> Lrp_proto.Tcp.conn -> unit
(** Under lazy processing, disable the listen channel's protocol
    processing while the backlog is full (section 3.4). *)

(** {2 Endpoint operations}

    The socket calls of {!Api} open, hand over and close endpoints only
    through these. *)

val bind : t -> Socket.t -> owner:Lrp_sim.Proc.t option -> port:int -> unit
(** Bind a datagram socket to a free port, with its own NI channel under
    lazy processing.  @raise Invalid_argument if a socket or a multicast
    group holds the port. *)

val join_group :
  t -> Socket.t -> owner:Lrp_sim.Proc.t option -> port:int -> unit
(** Add a datagram socket to the group on [port]; the first member opens
    the channel all members share (section 3.1).
    @raise Invalid_argument if a unicast socket holds the port. *)

val leave_group : t -> Socket.t -> port:int -> unit
(** The last member to leave releases the group's endpoint. *)

val close_dgram : t -> Socket.t -> unit
(** Close a datagram socket: leave its group or release its endpoint, and
    free every frame it still holds — on its channel and on its socket
    queue — counting each as a socket-queue drop ([rx_sockq_drops]) and
    a [Sock_close] drop. *)

val open_conn :
  t -> Socket.t -> Lrp_proto.Tcp.conn -> owner:Lrp_sim.Proc.t -> unit
(** Open the endpoint of a listener or an actively opened connection for
    the socket.  @raise Invalid_argument if a listener holds the port. *)

val attach :
  t -> Socket.t -> Lrp_proto.Tcp.conn -> owner:Lrp_sim.Proc.t -> unit
(** The socket takes the connection (an accepted child): it mirrors the
    connection's ports, the connection's events wake it, and [owner] is
    charged for its APP-thread work.  Called again to hand the socket to
    another process. *)

val close_stream : Socket.t -> unit
(** A closed stream socket lets go of its connection: it goes back to
    its env's pool now if TCP is done with it, else once it is.
    {!Api.close} calls it after {!Lrp_proto.Tcp.close}. *)

val deliver_tcp : t -> Lrp_net.Parena.handle -> ctx:[ `Proc | `Soft ] -> bool
(** The eager kernels' PCB lookup of a received TCP segment's row: hand it
    to its connection, else to the listener on its port, in context
    [ctx]; [false] when no endpoint matches (the caller answers with a
    RST).  The caller keeps the row. *)

val lrp_recv_one : t -> Lrp_core.Channel.t -> bool
(** Lazy UDP receive in the calling process: take one raw packet off the
    channel, run IP/UDP processing on it charged to the caller, and
    deposit the datagrams it completes.  [false] if the channel was
    empty. *)

val rss_steer : Lrp_net.Parena.t -> Lrp_net.Parena.handle -> queues:int -> int
(** RSS queue placement: a deterministic integer mix over the packed
    flow key ([hi]/[lo] as the Chantab probe packs them) — no tuple
    allocation, no structural hashing, stable across seeds and shard
    counts.  Fragments steer by IP ident so one datagram's pieces share
    a ring. *)

val create :
  Lrp_engine.Engine.t ->
  Lrp_net.Fabric.t -> name:string -> ip:Lrp_net.Packet.ip -> config -> t
val fresh_port : t -> int
val add_interface :
  t ->
  Lrp_net.Fabric.t ->
  ip:Lrp_net.Packet.ip -> unit -> Lrp_net.Nic.t
(** Attach another interface, a /24 (a multi-homed gateway), on a fabric
    that shares the kernel's frame pool.
    @raise Invalid_argument if the fabric has a pool of its own. *)
