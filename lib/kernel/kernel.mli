(** Simulated host kernel, parameterised by network-subsystem architecture.

    One [Kernel.t] per host.  It owns the CPU, the NIC, the protocol state
    (PCBs, reassembly, TCP connections) and implements the four receive
    architectures the paper compares:

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
val is_lrp : arch -> bool

val is_napi : arch -> bool
(** The NAPI-family back-ends ([Napi], [Napi_gro], [Rss]): the NIC runs
    in queued-RX mode and the host polls. *)

type config = {
  arch : arch;
  costs : Cost.t;
  mtu : int;
  ip_queue_limit : int;
  channel_limit : int;
  udp_rcv_limit : int;
  mbuf_capacity : int;
  mss : int;
  sock_buf : int;
  time_wait : float;
  initial_rto : float;
  max_syn_retries : int;
  udp_helper : bool;
  forwarding : bool;
  fwd_nice : int;
  fair_app_accounting : bool;
  napi_budget : int;
      (** frames per poll round before deferring to ksoftirqd; a
          pathologically high budget keeps all polling at softirq level
          and reintroduces livelock *)
  rx_queues : int;  (** NIC receive rings (RSS steers across more than 1) *)
  rx_ring : int;  (** slots per receive ring *)
  coalesce_pkts : int;
      (** raise the interrupt after this many buffered frames... *)
  coalesce_us : float;  (** ... or this long after the first one *)
}
val default_config : ?costs:Cost.t -> arch -> config
(** The paper's testbed defaults: ATM MTU 9180, 32-packet channels,
    32 kB socket buffers, the UDP helper on, forwarding off.  NAPI-family
    defaults: budget 64, 256-slot rings, 8-packet / 30 us coalescing, and
    4 queues under [Rss] (1 otherwise). *)

type kstats = {
  mutable rx_frames : int;
  mutable ipq_drops : int;
  mutable mbuf_drops : int;
  mutable no_port_drops : int;
  mutable demux_drops : int;
  mutable edemux_early_drops : int;
  mutable udp_delivered : int;
  mutable tcp_delivered : int;
      (** TCP segments fed to their connection's state machine (with
          {!kstats.udp_delivered} and [forwarded], the "delivered work"
          numerator of the overload detector) *)
  mutable rx_wrong_peer : int;
  mutable forwarded : int;
  mutable fwd_drops : int;
  mutable rsts_sent : int;
  mutable csum_drops : int;
  mutable ipq_hwm : int;
      (** deepest shared-IP-queue depth observed (BSD path) *)
}
type job = Jchan of Lrp_core.Channel.t | Jtimer of (unit -> unit)
type app = {
  app_owner : Lrp_sim.Proc.t;
  jobs : job Queue.t;
  app_wq : Lrp_sim.Proc.waitq;
  mutable app_proc : Lrp_sim.Proc.t option;
  chan_pending : (int, unit) Hashtbl.t;
}

(** Per-receive-queue NAPI poll context: the "scheduled" bit, the
    packets served since the interrupt was masked (a softirq polling
    episode defers to ksoftirqd once this reaches the budget), the
    ksoftirqd hand-off flag and the ksoftirqd process itself. *)
type napi = {
  nq : int;
  mutable poll_on : bool;
  mutable episode : int;
  mutable last_poll : float;
  mutable in_ksoftirqd : bool;
  ksoftirqd_wq : Lrp_sim.Proc.waitq;
  mutable ksoftirqd : Lrp_sim.Proc.t option;
}

(** The kernel's typed interrupt jobs ({!Lrp_sim.Cpu.job}), registered
    once at creation: the per-packet receive posts store (job, packet,
    int) in the CPU's work ring instead of allocating a closure. *)
type rx_jobs = {
  j_driver_rx : Lrp_net.Packet.t Lrp_sim.Cpu.job;  (** driver interrupt *)
  j_demux_rx : Lrp_net.Packet.t Lrp_sim.Cpu.job;   (** SOFT-LRP demux *)
  j_edemux_rx : Lrp_net.Packet.t Lrp_sim.Cpu.job;  (** Early-Demux demux *)
  j_softnet : Lrp_net.Packet.t Lrp_sim.Cpu.job;
      (** BSD softnet; the int is the packet's mbuf handle *)
  j_edemux_soft : Lrp_net.Packet.t Lrp_sim.Cpu.job;
      (** Early-Demux eager protocol softint; the int is the mbuf handle *)
  j_wake : Lrp_sim.Proc.waitq Lrp_sim.Cpu.job;
      (** NI-LRP host interrupt waking one waiter *)
  j_napi_irq : unit Lrp_sim.Cpu.job;  (** NAPI interrupt; the int is the queue *)
  j_napi_poll : napi Lrp_sim.Cpu.job;  (** NAPI softirq poll round *)
}

type t = {
  kname : string;
  engine : Lrp_engine.Engine.t;
  cpu : Lrp_sim.Cpu.t;
  nic : Lrp_net.Nic.t;
  mutable interfaces : (Lrp_net.Packet.ip * int * Lrp_net.Nic.t) list;
  cfg : config;
  c : Cost.t;
  ip_addr : Lrp_net.Packet.ip;
  mutable ipq_len : int;
  mbufs : Lrp_net.Mbuf.t;
  udp_ports : (int, Socket.t) Hashtbl.t;
  tcp_conns : (Lrp_net.Packet.ip * int * int, Lrp_proto.Tcp.conn) Hashtbl.t;
  tcp_listeners : (int, Lrp_proto.Tcp.conn) Hashtbl.t;
  conn_sock : (int, Socket.t) Hashtbl.t;
  conn_owner : (int, Lrp_sim.Proc.t) Hashtbl.t;
  parena : Lrp_net.Parena.t;
      (** shared RX descriptor arena backing every NI channel's ring *)
  chantab : Lrp_core.Chantab.t;
  chan_sock : (int, Socket.t) Hashtbl.t;
  mcast_members : (int, Socket.t list ref) Hashtbl.t;
  chan_conn : (int, Lrp_proto.Tcp.conn) Hashtbl.t;
  conn_chan : (int, Lrp_core.Channel.t) Hashtbl.t;
  mutable all_channels : Lrp_core.Channel.t list;
  apps : (int, app) Hashtbl.t;
  helper_wq : Lrp_sim.Proc.waitq;
  mutable helper_proc : Lrp_sim.Proc.t option;
  fwd_wq : Lrp_sim.Proc.waitq;
  mutable fwd_proc : Lrp_sim.Proc.t option;
  mutable udp_channels : Lrp_core.Channel.t list;
  mutable napi : napi array;
      (** one per RX queue; [[||]] unless NAPI-family *)
  mutable napi_grace_tgt : Lrp_sim.Proc.waitq Lrp_engine.Engine.target option;
      (** closure-free grace-poll re-arm; registered on first IRQ
          deferral *)
  mutable rxj : rx_jobs option;  (** registered by {!create} *)
  reasm : Lrp_proto.Ip.Reasm.t;
  mutable tcp_env : Lrp_proto.Tcp.env option;
  mutable timer_tgt : Lrp_proto.Tcp.timer Lrp_engine.Engine.target option;
  mutable rcvto_tgt : (Socket.t * bool ref) Lrp_engine.Engine.target option;
  mutable eph_port : int;
  stats : kstats;
  tracer : Lrp_trace.Trace.t;
  metrics : Lrp_trace.Metrics.t;
}
val name : t -> string
val cpu : t -> Lrp_sim.Cpu.t
val engine : t -> Lrp_engine.Engine.t
val nic : t -> Lrp_net.Nic.t
val config : t -> config
val costs : t -> Cost.t
val stats : t -> kstats
val arch : t -> arch
val ip_address : t -> Lrp_net.Packet.ip
val chantab : t -> Lrp_core.Chantab.t
val mbufs : t -> Lrp_net.Mbuf.t
val channels : t -> Lrp_core.Channel.t list
val lrp_mode : t -> bool
val now : t -> Lrp_engine.Time.t
val is_local_addr : t -> Lrp_net.Packet.ip -> bool
val route : t -> int -> Lrp_net.Nic.t
val drop_channel : t -> int -> unit
(** Forget a deallocated channel by id (bookkeeping for the reporting
    list). *)

val early_discards : t -> int

val tracer : t -> Lrp_trace.Trace.t
(** The kernel's structured tracer.  Disabled by default; enable with
    {!set_tracing} (or {!Lrp_trace.Trace.set_enabled}) to record packet
    lifecycle and scheduler events into the per-kernel ring buffer. *)

val metrics : t -> Lrp_trace.Metrics.t
(** The kernel's metrics registry.  Kernel, CPU, NIC, reassembly and TCP
    instruments are registered at construction; snapshot with
    {!Lrp_trace.Metrics.snapshot}. *)

val set_tracing : t -> bool -> unit
val tracing : t -> bool

val trc : t -> ('a, unit, string, unit) format4 -> 'a
(** Formatted note into the kernel's tracer ([Note] event class); a no-op
    when tracing is disabled. *)

val tcp_env_exn : t -> Lrp_proto.Tcp.env
val ip_output : t -> Lrp_net.Packet.t -> unit
val seg_out_cost : t -> float
val free_rx_mbufs : t -> int -> unit
val free_rx_pkt : t -> mh:Lrp_net.Mbuf.handle -> int -> unit
(* Free a received packet's mbuf reservation: by handle when the receive
   path carried one, by bytes otherwise.  A no-op under the LRP
   architectures, which never draw RX packets from the mbuf pool. *)
val udp_send_cost : t -> frags:int -> float
val wake_all : t -> Lrp_sim.Proc.waitq -> unit
val recv_timeout_target :
  t -> (Socket.t * bool ref) Lrp_engine.Engine.target
(* Typed recvfrom-timeout expiry dispatcher (registered on first use):
   sets the flag and wakes the socket's receive waiters. *)
val wake_one : t -> Lrp_sim.Proc.waitq -> unit
val sock_of_conn : t -> Lrp_proto.Tcp.conn -> Socket.t option
val update_listen_gate : t -> Lrp_proto.Tcp.conn -> unit
val app_loop : t -> app -> unit
val drain_tcp_channel : t -> Lrp_core.Channel.t -> unit
val tcp_deliver :
  t ->
  Lrp_proto.Tcp.conn ->
  Lrp_net.Packet.t -> ctx:[< `Proc | `Soft > `Proc ] -> unit
val app_for : t -> Lrp_sim.Proc.t -> app
val orphan_drain : t -> Lrp_core.Channel.t -> unit -> unit
val app_post_chan : t -> Lrp_proto.Tcp.conn -> Lrp_core.Channel.t -> unit
val app_post_timer : t -> Lrp_proto.Tcp.conn -> (unit -> unit) -> unit
val register_conn :
  t -> Lrp_proto.Tcp.conn -> owner:Lrp_sim.Proc.t option -> unit
val deregister_conn : t -> Lrp_proto.Tcp.conn -> unit
val make_tcp_env : t -> Lrp_proto.Tcp.env
val datagram_of :
  mh:Lrp_net.Mbuf.handle -> Lrp_net.Packet.t -> Socket.udp_datagram
val peer_accepts :
  t -> Socket.t -> Socket.udp_datagram -> bool
val deposit_and_wake :
  t -> Socket.t -> Socket.udp_datagram -> unit
val deliver_udp_ready :
  t -> mh:Lrp_net.Mbuf.handle -> Lrp_net.Packet.t -> unit

val deliver_udp_all : t -> Lrp_net.Packet.t list -> unit
(** {!deliver_udp_ready} of datagrams completed by receiver-context
    (lazy) processing, which hold no mbuf reservation. *)

val icmp_reply : t -> Lrp_net.Packet.t -> unit
val deliver_tcp :
  t -> Lrp_net.Packet.t -> ctx:[< `Proc | `Soft > `Proc ] -> unit
val bsd_transport_input :
  t -> mh:Lrp_net.Mbuf.handle -> Lrp_net.Packet.t -> unit
val transport_cost : t -> Lrp_net.Packet.t -> skip_pcb:bool -> float
val bsd_soft_cost : t -> Lrp_net.Packet.t -> float
val ip_input_local :
  t -> mh:Lrp_net.Mbuf.handle -> Lrp_net.Packet.t -> skip_pcb:bool -> unit
(** Softint-context IP input of a local datagram: transport processing
    now, or — for a fragment that completes its datagram — as a separate
    softint activation. *)

val bsd_softnet : t -> mh:Lrp_net.Mbuf.handle -> Lrp_net.Packet.t -> unit
val bsd_driver_rx : t -> Lrp_net.Packet.t -> unit

val rss_steer : Lrp_net.Packet.t -> queues:int -> int
(** RSS queue placement: a deterministic integer mix over the packed
    flow key ([hi]/[lo] as the Flowtab probe packs them) — no tuple
    allocation, no structural hashing, stable across seeds and shard
    counts.  Fragments steer by IP ident so one datagram's pieces share
    a ring. *)

val ni_wake : t -> (unit -> unit) -> unit
val ni_wake_one : t -> Lrp_sim.Proc.waitq -> unit
val lrp_classify_rx : t -> Lrp_net.Packet.t -> unit
val edemux_rx : t -> Lrp_net.Packet.t -> unit
val rx_dispatch : t -> Lrp_net.Packet.t -> unit
val drain_frag_channel : t -> charge:(float -> unit) -> Lrp_net.Packet.t list
val lrp_process_udp_raw :
  t -> charge:(float -> unit) -> Lrp_net.Packet.t -> Lrp_net.Packet.t list

(** [proto_charge t ch] is the [~charge] function receiver-context
    callers should pass: {!Lrp_sim.Proc.compute} with the segment
    attributed as protocol work on channel [ch] in the CPU's
    {!Lrp_sim.Ledger}. *)
val proto_charge : t -> Lrp_core.Channel.t -> float -> unit
val helper_loop : t -> 'a
val fwd_daemon_loop : t -> 'a
val create :
  Lrp_engine.Engine.t ->
  Lrp_net.Fabric.t -> name:string -> ip:Lrp_net.Packet.ip -> config -> t
val fresh_port : t -> int
val add_interface :
  t ->
  Lrp_net.Fabric.t ->
  ip:Lrp_net.Packet.ip -> ?masklen:int -> unit -> Lrp_net.Nic.t
