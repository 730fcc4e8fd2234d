(** Simulated host kernel, parameterised by network-subsystem architecture.

    One [Kernel.t] per host.  It owns the CPU, the NIC, the protocol state
    (PCBs, reassembly, TCP connections) and implements the four receive
    architectures the paper compares.  Each architecture is a point on
    three axes ({!axes}): where demultiplexing happens, whether protocol
    processing is eager or lazy, and whether the NIC interrupts or is
    polled.  Every receive step reads an axis, never the [arch] itself.

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

    - {b Napi}: interrupt mitigation with budgeted polling.  The first
      frame raises a (cheap) interrupt that masks the queue and schedules
      a softirq poll; the poll dequeues up to [napi_budget] frames per
      round, re-enables the interrupt when the ring drains, and defers to
      a fairly-scheduled ksoftirqd process when the budget is exhausted
      with backlog remaining.  The NIC adds configurable interrupt
      coalescing (packet-count threshold / hold-off timer).
    - {b Napi_gro}: [Napi] plus receive-offload aggregation: consecutive
      in-order same-flow TCP segments are merged at the poll loop into
      one large segment before protocol processing (flushed on flow
      change, PSH, out-of-order arrival or budget exhaustion); same-flow
      UDP datagram trains share one protocol pass.
    - {b Rss}: receive-side scaling — the NIC hashes flows over the
      packed flow key onto [rx_queues] receive rings, each running its
      own [Napi] poll context.

    All architectures share the same protocol code ({!Lrp_proto.Tcp},
    {!Lrp_proto.Ip}) and the same cost table, exactly as the paper's kernels
    shared the 4.4BSD networking code.  Syscall-level behaviour (the socket
    API) lives in {!Api}. *)

open Lrp_engine
open Lrp_sim
open Lrp_net
open Lrp_proto
open Lrp_core
module Trace = Lrp_trace.Trace

type arch = Bsd | Soft_lrp | Ni_lrp | Early_demux | Napi | Napi_gro | Rss

let arch_name = function
  | Bsd -> "4.4BSD"
  | Soft_lrp -> "SOFT-LRP"
  | Ni_lrp -> "NI-LRP"
  | Early_demux -> "Early-Demux"
  | Napi -> "NAPI"
  | Napi_gro -> "NAPI-GRO"
  | Rss -> "RSS"

(* Where a received packet is demultiplexed to its endpoint: in the
   software interrupt after IP processing (BSD), in the hardware interrupt
   handler, or on the network interface itself. *)
type demux_point = Softirq | Hardirq | Nic

(* Who does protocol processing, and when: software interrupts as packets
   arrive, or the receiving process when it asks for data (LRP). *)
type proto_ctx = Eager | Lazy

(* How the primary NIC hands frames over: one interrupt per frame, or
   queued rings drained by a budgeted poll loop (with or without GRO). *)
type rx_mode = Intr | Poll | Poll_gro

(* The one place an [arch] is taken apart.  Two further properties follow
   from these axes and are not stored: the discard point (the NI channel
   under [Lazy]; the interrupt-time demux under [Hardirq]/[Eager]; the
   shared IP queue, poll ring and socket queue otherwise) and who owns
   receive buffers (NI channels under [Lazy], the mbuf pool under
   [Eager]). *)
let axes = function
  | Bsd -> (Softirq, Eager, Intr)
  | Soft_lrp -> (Hardirq, Lazy, Intr)
  | Ni_lrp -> (Nic, Lazy, Intr)
  | Early_demux -> (Hardirq, Eager, Intr)
  | Napi | Rss -> (Softirq, Eager, Poll)
  | Napi_gro -> (Softirq, Eager, Poll_gro)

let is_lrp arch = match axes arch with _, Lazy, _ -> true | _, Eager, _ -> false

type config = {
  arch : arch;
  costs : Cost.t;
  mtu : int;
  ip_queue_limit : int;       (* BSD shared IP queue, packets *)
  channel_limit : int;        (* LRP per-channel queue, packets *)
  udp_rcv_limit : int;        (* socket queue, datagrams *)
  mbuf_capacity : int;
  mss : int;
  sock_buf : int;             (* TCP send/receive buffer, bytes *)
  time_wait : float;
  initial_rto : float;
  max_syn_retries : int;
  udp_helper : bool;          (* LRP minimal-priority protocol thread *)
  forwarding : bool;          (* act as an IP gateway (section 3.5) *)
  fwd_nice : int;             (* priority of the LRP forwarding daemon *)
  fair_app_accounting : bool;
      (* charge APP-thread CPU to the owning process (section 3.4); turning
         this off is the accounting ablation: the APP thread is scheduled
         and charged as an independent thread, BSD-style *)
  (* --- NAPI-family knobs (Napi / Napi_gro / Rss only) --- *)
  napi_budget : int;          (* frames per poll round before deferring to
                                 ksoftirqd; a pathologically high budget
                                 keeps all polling at softirq level and
                                 reintroduces livelock *)
  rx_queues : int;            (* NIC receive rings (RSS steers across >1) *)
  rx_ring : int;              (* slots per receive ring *)
  coalesce_pkts : int;        (* interrupt after this many buffered frames *)
  coalesce_us : float;        (* ... or this long after the first one *)
}

let default_config ?(costs = Cost.default) arch =
  { arch; costs; mtu = 9180 (* ATM AAL5 *); ip_queue_limit = 50;
    channel_limit = 32; udp_rcv_limit = 32; mbuf_capacity = 4096;
    mss = 9140; sock_buf = 32 * 1024; time_wait = Lrp_engine.Time.sec 30.;
    initial_rto = Lrp_engine.Time.sec 1.5; max_syn_retries = 4;
    udp_helper = true; forwarding = false; fwd_nice = 0;
    fair_app_accounting = true;
    napi_budget = 64; rx_queues = (match arch with Rss -> 4 | _ -> 1);
    rx_ring = 256; coalesce_pkts = 8; coalesce_us = 30. }

type kstats = {
  mutable rx_frames : int;          (* frames seen by the receive path *)
  mutable ipq_drops : int;          (* BSD shared IP queue overflow *)
  mutable mbuf_drops : int;
  mutable no_port_drops : int;      (* no endpoint (BSD, after processing) *)
  mutable demux_drops : int;        (* no endpoint (LRP, at demux time) *)
  mutable edemux_early_drops : int; (* Early-Demux interrupt-time discards *)
  mutable udp_delivered : int;      (* datagrams deposited for applications *)
  mutable tcp_delivered : int;      (* TCP segments fed to their connection *)
  mutable rx_wrong_peer : int;      (* dropped by connected-UDP filtering *)
  mutable forwarded : int;          (* packets forwarded to another network *)
  mutable fwd_drops : int;          (* not ours and not forwarding *)
  mutable rsts_sent : int;
  mutable csum_drops : int;         (* content-checksum mismatches *)
  mutable ipq_hwm : int;            (* deepest shared-IP-queue depth seen *)
}

(* An APP thread and its posted work, a FIFO ring of flat columns: a row
   is a channel to drain ([aq_gen] = -1) or a timer expiry read at
   generation [aq_gen].  A channel whose drain is queued names the owner
   in {!Channel.job_owner}, so it is queued at most once per APP thread
   (a connection handed to a new owner may have a drain queued on
   both). *)
type app = {
  app_owner : Proc.t;
  app_wq : Proc.waitq;
  mutable app_proc : Proc.t option;
  mutable aq_chan : Channel.t array;
  mutable aq_timer : Tcp.timer array;
  mutable aq_gen : int array;
  mutable aq_head : int;
  mutable aq_len : int;
}

(* Per-receive-queue NAPI poll context (Napi / Napi_gro / Rss).  [poll_on]
   is the NAPI "scheduled" bit: set from the mitigated interrupt until the
   ring truly drains, so at most one poll chain runs per queue.  [episode]
   counts packets served since the interrupt was masked; once a softirq
   polling episode has served a whole budget with backlog remaining,
   polling is handed to the queue's ksoftirqd process, which repolls under
   the fair scheduler until the ring drains — the mechanism that keeps a
   sane budget out of livelock (poll cycles compete with applications
   instead of preempting them).

   The poll batch is a set of flat columns owned by the context, filled by
   [napi_collect] and emptied by [napi_deliver_batch]: the packets in
   delivery order with their mbuf handles, the batch's CPU cost, the
   frames served, and the held GRO train.  One poller owns the queue at a
   time (the softirq chain, or ksoftirqd once it has been handed the
   queue), so a batch is never refilled before it is delivered. *)
type napi = {
  nq : int;                              (* receive-queue index *)
  mutable poll_on : bool;
  mutable episode : int;                 (* packets served this episode *)
  mutable in_ksoftirqd : bool;
  ksoftirqd_wq : Proc.waitq;
  mutable ksoftirqd : Proc.t option;
  b_pkts : Packet.t array;               (* the batch, in delivery order *)
  b_mhs : Mbuf.handle array;             (* each batch packet's mbufs *)
  mutable b_len : int;
  mutable served : int;                  (* frames dequeued this round *)
  nf : float array;                      (* [nf_cost], [nf_last_poll] *)
  train : Packet.t array;                (* held GRO train, [gro_max_segs] *)
  mutable train_len : int;
  mutable train_udp : bool;
  mutable train_next_seq : int;          (* TCP: the next in-order seq *)
}

(* Slots of [napi.nf]: the batch's CPU cost, and when the last poll round
   ended. *)
let nf_cost = 0
let nf_last_poll = 1

(* GRO train cap, the analogue of the 64 kB aggregation limit. *)
let gro_max_segs = 16

(* A kick arriving within this many microseconds of the previous poll
   round's end continues the same polling {e episode} (the softirq level
   never really went quiet — Linux's "softirq storm"); a longer gap
   starts a fresh one.  Without this, a load whose per-packet softirq
   cost sits just below the interarrival time drains the ring on every
   round, resets the budget, and services the whole flood at interrupt
   priority — exactly the starvation NAPI exists to stop. *)
let napi_storm_gap = 60.

(* How long ksoftirqd holds the interrupt masked and sleeps before a
   grace poll when it finds the ring momentarily empty.  Longer than the
   storm gap on purpose: each grace poll then gathers a few frames, so
   the ksoftirqd/application alternation pays its context switches per
   small batch instead of per packet. *)
let napi_repoll = 500.

(* The kernel's interrupt work as typed jobs, registered once per kernel
   ({!Cpu.job}): posting one stores (job, object, int) in the CPU's work
   ring instead of allocating a closure per post. *)
type jobs = {
  j_driver_rx : Packet.t Cpu.job;  (* BSD-style driver interrupt *)
  j_demux_rx : Packet.t Cpu.job;   (* SOFT-LRP / Early-Demux demux interrupt *)
  j_softnet : Packet.t Cpu.job;    (* BSD softnet; mbuf handle in the int *)
  j_edemux_soft : Packet.t Cpu.job;
      (* Early-Demux eager protocol softint; mbuf handle in the int *)
  j_wake : Proc.waitq Cpu.job;     (* NI-LRP host interrupt waking a waiter *)
  j_napi_irq : unit Cpu.job;       (* NAPI mitigated interrupt; queue in the int *)
  j_napi_poll : napi Cpu.job;      (* NAPI softirq poll round: collect *)
  j_napi_deliver : napi Cpu.job;   (* ... and deliver the batch *)
  j_wake_members : Socket.t list ref Cpu.job;
      (* NI-LRP host interrupt waking a multicast group's receivers *)
  j_app_chan : Channel.t Cpu.job;  (* NI-LRP host interrupt posting an APP job *)
  j_orphan : Channel.t Cpu.job;    (* orphaned connection's softint drain *)
  j_tcp_timer : Tcp.timer Cpu.job; (* softint timer expiry; generation in the int *)
  j_tcp_tx : unit Cpu.job;         (* softint cost of extra TCP output *)
  j_reasm : Packet.t Cpu.job;      (* transport input of a reassembled datagram *)
  j_forward : Packet.t Cpu.job;    (* Early-Demux eager IP forwarding *)
}

type t = {
  kname : string;
  engine : Engine.t;
  cpu : Cpu.t;
  nic : Nic.t;  (* primary interface *)
  mutable interfaces : (Packet.ip * int * Nic.t) list;
      (* (address, prefix length, nic); multi-homed gateways have several *)
  cfg : config;
  demux : demux_point;  (* [axes cfg.arch], cached *)
  proto : proto_ctx;
  rx_mode : rx_mode;
  c : Cost.t;
  ip_addr : Packet.ip;
  (* --- BSD path state --- *)
  mutable ipq_len : int;
  mbufs : Mbuf.t;
  (* --- endpoint tables --- *)
  udp_ports : (int, Socket.t) Hashtbl.t;
  tcp_conns : Tcp.conn Flowtab.t;
      (* PCBs keyed like Chantab's TCP flows: [hi] = remote (source) IP,
         [lo] = remote port lsl 16 lor local port *)
  tcp_listeners : (int, Tcp.conn) Hashtbl.t;
  conn_sock : (int, Socket.t) Hashtbl.t;   (* conn id -> socket *)
  conn_owner : (int, Proc.t) Hashtbl.t;    (* conn id -> owning process *)
  (* --- LRP state --- *)
  parena : Parena.t;
      (* shared RX descriptor arena; every NI channel's ring draws its
         frame descriptors from here *)
  chantab : Chantab.t;
  chan_sock : (int, Socket.t) Hashtbl.t;   (* channel id -> socket (UDP) *)
  mcast_members : (int, Socket.t list ref) Hashtbl.t;
      (* multicast port -> member sockets; all share one NI channel
         (section 3.1) *)
  chan_conn : (int, Tcp.conn) Hashtbl.t;   (* channel id -> connection *)
  conn_chan : (int, Channel.t) Hashtbl.t;  (* connection id -> its channel *)
  chans : Channel.t Flowtab.t;
      (* open NI channels by id ([hi]; [lo] = 0), without the chantab's
         three dedicated ones *)
  apps : (int, app) Hashtbl.t;             (* owner pid -> APP thread *)
  helper_wq : Proc.waitq;
  mutable helper_proc : Proc.t option;
  fwd_wq : Proc.waitq;
  mutable fwd_proc : Proc.t option;
  mutable udp_channels : Channel.t list;   (* scanned by the helper *)
  (* --- NAPI state --- *)
  mutable napi : napi array;   (* one per RX queue; [||] unless NAPI-family *)
  mutable napi_grace_tgt : Proc.waitq Engine.target option;
      (* closure-free grace-poll re-arm; registered on first IRQ deferral *)
  mutable rxj : jobs option;  (* registered by [create] *)
  (* --- shared protocol state --- *)
  reasm : Ip.Reasm.t;
  mutable tcp_env : Tcp.env option;
  mutable timer_tgt : Tcp.timer Engine.target option;
      (* closure-free TCP timer expiry event; registered on first arm *)
  mutable rcvto_tgt : (Socket.t * bool ref) Engine.target option;
      (* closure-free recvfrom-timeout expiry event; registered on first
         use.  The argument pairs the blocked socket with the caller's
         expiry flag, so arming a timeout allocates one pair instead of a
         capturing closure. *)
  mutable eph_port : int;
  stats : kstats;
  (* --- observability (per-kernel: parallel sweeps never share these) --- *)
  tracer : Trace.t;
}

let name t = t.kname
let cpu t = t.cpu
let engine t = t.engine
let nic t = t.nic
let config t = t.cfg
let costs t = t.c
let stats t = t.stats
let ip_address t = t.ip_addr
let chantab t = t.chantab
let mbufs t = t.mbufs
(* Newest first, then the fragment, ICMP and forwarding channels. *)
let channels t =
  let open_chans = ref [] in
  Flowtab.iter (fun ~hi:_ ~lo:_ ch -> open_chans := ch :: !open_chans) t.chans;
  List.sort (fun a b -> Int.compare (Channel.id b) (Channel.id a)) !open_chans
  @ [ Chantab.frag_channel t.chantab; Chantab.icmp_channel t.chantab;
      Chantab.fwd_channel t.chantab ]
let now t = Engine.now t.engine

(* Is [addr] one of this host's own addresses? *)
let rec mem_addr addr = function
  | [] -> false
  | (ip, _, _) :: rest -> ip = addr || mem_addr addr rest

let is_local_addr t addr = mem_addr addr t.interfaces

(* Neither addressed to this host nor multicast: a packet in transit. *)
let[@inline] is_transit t pkt =
  not (is_local_addr t (Packet.dst pkt)) && not (Packet.is_multicast pkt)

(* Longest-prefix-match routing across this host's interfaces (the first
   of equally long matches wins); the primary interface is the default
   route. *)
let rec best_route dst nic len = function
  | [] -> nic
  | (ip, masklen, nic') :: rest ->
      if masklen > len && ip lsr (32 - masklen) = dst lsr (32 - masklen) then
        best_route dst nic' masklen rest
      else best_route dst nic len rest

let route t dst = best_route dst t.nic 0 t.interfaces

let early_discards t =
  List.fold_left
    (fun acc ch -> acc + Channel.discarded ch + Channel.discarded_disabled ch)
    0 (channels t)

let tracer t = t.tracer

let tcp_env_exn t =
  match t.tcp_env with Some e -> e | None -> assert false

let jobs t = match t.rxj with Some j -> j | None -> assert false

(* Every counter, read from component state at call time.  Components
   name their own rows under the prefix they are given. *)
let counters t =
  let i name v = (name, float_of_int v) in
  let s = t.stats and e = Engine.timer_stats t.engine in
  let nic k (_, _, n) =
    Nic.counters n ~prefix:(if k = 0 then "nic" else Printf.sprintf "nic%d" k)
  in
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    ([ i "kernel.rx_frames" s.rx_frames; i "kernel.ipq_drops" s.ipq_drops;
       i "kernel.mbuf_drops" s.mbuf_drops;
       i "kernel.no_port_drops" s.no_port_drops;
       i "kernel.demux_drops" s.demux_drops;
       i "kernel.edemux_early_drops" s.edemux_early_drops;
       i "kernel.udp_delivered" s.udp_delivered;
       i "kernel.tcp_delivered" s.tcp_delivered; i "kernel.ipq_hwm" s.ipq_hwm;
       i "kernel.rx_wrong_peer" s.rx_wrong_peer;
       i "kernel.forwarded" s.forwarded; i "kernel.fwd_drops" s.fwd_drops;
       i "kernel.rsts_sent" s.rsts_sent; i "kernel.csum_drops" s.csum_drops;
       i "kernel.ipq_len" t.ipq_len;
       i "kernel.channels" (List.length (channels t));
       i "kernel.early_discards" (early_discards t);
       i "engine.timers_scheduled" e.Engine.scheduled;
       i "engine.timers_fired" e.Engine.fired;
       i "engine.timers_cancelled" e.Engine.cancelled;
       i "reasm.completed" (Ip.Reasm.completed t.reasm);
       i "reasm.timed_out" (Ip.Reasm.timed_out t.reasm);
       i "reasm.pending" (Ip.Reasm.pending_count t.reasm) ]
    @ List.map (fun (k, v) -> i ("tcp." ^ k) v) (Tcp.counters (tcp_env_exn t))
    @ Cpu.counters t.cpu ~prefix:"cpu"
    @ List.concat (List.mapi nic t.interfaces))

let set_tracing t on = Trace.set_enabled t.tracer on

(* ------------------------------------------------------------------ *)
(* Output path                                                          *)
(* ------------------------------------------------------------------ *)

(* Hand a datagram to IP output: enqueue it on the interface, fragmented
   to the MTU if it does not fit.  Pure state manipulation; CPU cost is
   charged by the caller (process context for sends; interrupt/APP context
   for protocol-generated segments). *)
let rec transmit_all nic = function
  | [] -> ()
  | f :: rest ->
      ignore (Nic.transmit nic f);
      transmit_all nic rest

let ip_output t pkt =
  let nic = route t (Packet.dst pkt) in
  if Packet.wire_bytes pkt <= t.cfg.mtu then ignore (Nic.transmit nic pkt)
  else transmit_all nic (Ip.fragment pkt ~mtu:t.cfg.mtu)

(* Per-segment transmit cost (protocol output + driver). *)
let[@inline] seg_out_cost t = t.c.Cost.tcp_out +. t.c.Cost.ip_out +. t.c.Cost.driver_tx

(* Free a received packet's mbufs.  Only eager kernels draw receive
   buffers from the mbuf pool (lazy ones receive into NI channels).  The
   non-fragment receive path carries the pool handle from {!rx_reserve}
   all the way to the free site, so the count returned is the count
   reserved; fragments (whose reassembled whole has a different wire
   footprint than the sum of its pieces) stay on byte accounting with
   [mh = Mbuf.no_handle]. *)
let free_rx_pkt t ~mh bytes =
  match t.proto with
  | Eager -> if mh >= 0 then Mbuf.free_h t.mbufs mh else Mbuf.free t.mbufs ~bytes
  | Lazy -> ()

(* [rx_reserve]'s answer when the pool is exhausted; distinct from
   [Mbuf.no_handle], a fragment's byte-accounted reservation. *)
let no_mbufs = -2

let mbuf_drop t ident =
  t.stats.mbuf_drops <- t.stats.mbuf_drops + 1;
  Trace.mbuf_drop t.tracer ~pkt:ident

(* Reserve mbufs for a received packet, as the driver does: a handle for a
   whole datagram, byte accounting for a fragment.  On pool exhaustion the
   drop is counted and traced and [no_mbufs] returned. *)
let rx_reserve t (pkt : Packet.t) =
  let bytes = Packet.wire_bytes pkt in
  let mh =
    if Packet.is_fragment pkt then
      if Mbuf.alloc t.mbufs ~bytes then Mbuf.no_handle else no_mbufs
    else
      let h = Mbuf.alloc_h t.mbufs ~bytes in
      if h >= 0 then h else no_mbufs
  in
  if mh = no_mbufs then mbuf_drop t pkt.Packet.ip.Packet.ident;
  mh

(* Receiver-side content-checksum verification.  Corrupted packets die at
   the first transport-level touch: counted, traced, and never delivered,
   never answered (no RST / ICMP reply for garbage). *)
let csum_ok t (pkt : Packet.t) =
  Packet.verify pkt
  ||
  begin
    t.stats.csum_drops <- t.stats.csum_drops + 1;
    Trace.csum_drop t.tracer ~pkt:pkt.Packet.ip.Packet.ident;
    false
  end

(* Cost of sending one UDP datagram from process context (excluding the
   per-byte copy, which the API adds). *)
let udp_send_cost t ~frags =
  t.c.Cost.udp_out +. (float_of_int frags *. (t.c.Cost.ip_out +. t.c.Cost.driver_tx))

(* ------------------------------------------------------------------ *)
(* Wakeup helpers                                                       *)
(* ------------------------------------------------------------------ *)

let wake_all t wq = ignore (Cpu.wakeup_all t.cpu wq)
let wake_one t wq = ignore (Cpu.wakeup_one t.cpu wq)

(* Process-context charges.  Inlined, so a computed cost is stored
   straight into the CPU's cell: passed to any non-inlined function — and
   under [-opaque] no call into another module is inlined — a float is
   boxed at the call. *)
let[@inline] charge_proto t ~flow d =
  (Cpu.cost_cell t.cpu).(0) <- d;
  Cpu.compute_proto t.cpu ~flow

let[@inline] charge_poll t d =
  (Cpu.cost_cell t.cpu).(0) <- d;
  Cpu.compute_poll t.cpu

(* Grace-poll re-arm of the NAPI IRQ-deferral window: wake the queue's
   ksoftirqd waitq after [napi_repoll], through a registered dispatcher
   and a staged deadline so a deferral cycle allocates nothing (the
   inline [schedule_after ... (fun () -> ...)] form cost a thunk plus a
   boxed delay per grace poll). *)
let napi_grace_rearm t (n : napi) =
  let g =
    match t.napi_grace_tgt with
    | Some g -> g
    | None ->
        let g =
          (* alloc: cold — one-time dispatcher registration *)
          Engine.target t.engine (fun wq -> wake_one t wq)
        in
        (* alloc: cold — one-time dispatcher registration *)
        t.napi_grace_tgt <- Some g;
        g
  in
  (Engine.deadline_cell t.engine).(0) <-
    (Engine.clock_cell t.engine).(0) +. napi_repoll;
  ignore (Engine.schedule_to_staged t.engine g n.ksoftirqd_wq)

let backlog_full (listener : Tcp.conn) =
  listener.Tcp.syn_pending + Queue.length listener.Tcp.accept_queue
  >= listener.Tcp.backlog

(* LRP gates the listening socket's channel on the backlog: once exceeded,
   protocol processing is disabled and further SYNs die cheaply at the NI
   channel (section 3.4). *)
let update_listen_gate t (listener : Tcp.conn) =
  if t.proto = Lazy then
    match Hashtbl.find t.conn_chan listener.Tcp.id with
    | exception Not_found -> ()
    | ch ->
        if backlog_full listener then Channel.disable_processing ch
        else Channel.enable_processing ch

(* Reading a packet out of an NI channel buffer costs an NI-memory
   access when the channels live on the interface. *)
let[@inline] ni_access_cost t =
  match t.demux with
  | Nic -> t.c.Cost.ni_channel_access
  | Softirq | Hardirq -> 0.

(* ------------------------------------------------------------------ *)
(* APP threads: asynchronous protocol processing for TCP (section 3.4)  *)
(* ------------------------------------------------------------------ *)

let rec app_loop t app =
  if app.aq_len > 0 then begin
    let i = app.aq_head in
    let ch = app.aq_chan.(i) and tm = app.aq_timer.(i) and gen = app.aq_gen.(i) in
    app.aq_chan.(i) <- Chantab.fwd_channel t.chantab;
    app.aq_timer.(i) <- Tcp.null_conn.Tcp.rtx_timer;
    app.aq_head <- (i + 1) land (Array.length app.aq_gen - 1);
    app.aq_len <- app.aq_len - 1;
    if gen < 0 then begin
      if Channel.job_owner ch = app.app_owner.Proc.pid then
        Channel.set_job_owner ch (-1);
      (* Guarded: a disabled [notef] still builds its closures. *)
      if Trace.enabled t.tracer then
        Trace.notef t.tracer "app %s: drain chan %d (len=%d)"
          app.app_owner.Proc.name (Channel.id ch) (Channel.length ch);
      drain_tcp_channel t ch
    end
    else begin
      charge_proto t ~flow:(-1) (t.c.Cost.lazy_locality *. t.c.Cost.tcp_in);
      Tcp.timer_fired tm ~gen
    end;
    app_loop t app
  end
  else if app.app_owner.Proc.exited then
    (* The APP thread dies with its process. *)
    Hashtbl.remove t.apps app.app_owner.Proc.pid
  else begin
    if Trace.enabled t.tracer then
      Trace.notef t.tracer "app %s: block" app.app_owner.Proc.name;
    Proc.block app.app_wq;
    app_loop t app
  end

and drain_tcp_channel t ch =
  let pkt = Channel.pop ch in
  if pkt != Packet.null then begin
    charge_proto t ~flow:(Channel.id ch)
      (ni_access_cost t
       +. (t.c.Cost.lazy_locality *. (t.c.Cost.ip_in +. t.c.Cost.tcp_in)));
    (match Hashtbl.find t.chan_conn (Channel.id ch) with
     | exception Not_found -> () (* connection vanished: discard *)
     | conn ->
         tcp_deliver t conn pkt ~ctx:`Proc;
         if Tcp.state conn = Tcp.Listen then update_listen_gate t conn);
    drain_tcp_channel t ch
  end

(* Deliver a (non-fragment) TCP segment to its connection, charging for any
   extra segments the state machine emitted beyond the one emission already
   included in [tcp_in]. *)
and tcp_deliver t conn pkt ~ctx =
  if csum_ok t pkt then begin
    Trace.proto_deliver t.tracer ~pkt:pkt.Packet.ip.Packet.ident
      ~conn:conn.Tcp.id
      ~in_proc:(match ctx with `Proc -> true | `Soft -> false);
    let before = Tcp.segs_sent conn in
    Tcp.input conn pkt;
    t.stats.tcp_delivered <- t.stats.tcp_delivered + 1;
    let extra = Tcp.segs_sent conn - before - 1 in
    if extra > 0 then begin
      let cost = float_of_int extra *. seg_out_cost t in
      match ctx with
      | `Proc ->
          charge_proto t ~flow:(-1) (t.c.Cost.lazy_locality *. cost)
      | `Soft ->
          (Cpu.cost_cell t.cpu).(0) <- cost;
          Cpu.post_soft_job t.cpu ~label:"tcp-tx" ~tpkt:(-1) ~poll:false
            (jobs t).j_tcp_tx () 0
    end
  end

and app_for t (owner : Proc.t) =
  match Hashtbl.find t.apps owner.Proc.pid with
  | app -> app
  | exception Not_found ->
      (* The rest runs once per process; its ring grows on first post. *)
      let app =
        (* alloc: cold — once per process *)
        { app_owner = owner; app_wq = Proc.waitq "app"; app_proc = None;
          aq_chan = [||]; aq_timer = [||]; aq_gen = [||]; aq_head = 0;
          aq_len = 0 }
      in
      (* alloc: cold — once per process *)
      Hashtbl.replace t.apps owner.Proc.pid app;
      (* alloc: cold — once per process *)
      let name = Printf.sprintf "app-%s" owner.Proc.name in
      (* alloc: cold — once per process *)
      let proc = Cpu.spawn t.cpu ~name (fun _self -> app_loop t app) in
      (* Scheduled at the owner's priority; CPU usage charged to the owner
         (paper section 3.4).  The accounting ablation skips this. *)
      if t.cfg.fair_app_accounting then
        (* alloc: cold — once per process *)
        Cpu.set_account t.cpu proc ~owner:(Some owner);
      (* alloc: cold — once per process *)
      app.app_proc <- Some proc;
      app

(* Double an APP thread's ring (8 rows at first), unrolling the live rows
   to index 0. *)
let app_grow t app =
  let cap = Array.length app.aq_gen in
  let unroll a fill = (* alloc: cold — amortized growth *)
    let b = Array.make (max 8 (2 * cap)) fill in (* alloc: cold — amortized growth *)
    for i = 0 to cap - 1 do
      b.(i) <- a.((app.aq_head + i) land (cap - 1))
    done;
    b
  in
  app.aq_chan <- unroll app.aq_chan (Chantab.fwd_channel t.chantab);
  app.aq_timer <- unroll app.aq_timer Tcp.null_conn.Tcp.rtx_timer;
  app.aq_gen <- unroll app.aq_gen 0;
  app.aq_head <- 0

(* Queue a row on [app]'s ring and wake its thread. *)
let app_post t app ch tm gen =
  if app.aq_len = Array.length app.aq_gen then app_grow t app;
  let i = (app.aq_head + app.aq_len) land (Array.length app.aq_gen - 1) in
  app.aq_chan.(i) <- ch;
  app.aq_timer.(i) <- tm;
  app.aq_gen.(i) <- gen;
  app.aq_len <- app.aq_len + 1;
  wake_one t app.app_wq

(* Orphaned connections (the owning process exited with the connection
   still draining — a normal close-behind-exit) have no APP thread left, so
   their protocol processing falls back to software-interrupt level, as in
   the paper's prototype where a kernel process owns TCP processing. *)
let orphan_post t ch =
  (Cpu.cost_cell t.cpu).(0) <-
    t.c.Cost.soft_dispatch
    +. (t.c.Cost.eager_penalty *. (t.c.Cost.ip_in +. t.c.Cost.tcp_in));
  Cpu.post_soft_job t.cpu ~label:"tcp-orphan" ~tpkt:(-1) ~poll:false
    (jobs t).j_orphan ch 0

let orphan_drain t ch =
  let pkt = Channel.pop ch in
  if pkt != Packet.null then begin
    (match Hashtbl.find t.chan_conn (Channel.id ch) with
     | conn -> tcp_deliver t conn pkt ~ctx:`Soft
     | exception Not_found -> ());
    if not (Channel.is_empty ch) then orphan_post t ch
  end

let app_post_chan t conn ch =
  match Hashtbl.find t.conn_owner conn.Tcp.id with
  | owner when not owner.Proc.exited ->
      let app = app_for t owner in
      if Channel.job_owner ch = owner.Proc.pid then wake_one t app.app_wq
      else begin
        Channel.set_job_owner ch owner.Proc.pid;
        if Trace.enabled t.tracer then
          Trace.notef t.tracer "post chan %d job for %s" (Channel.id ch)
            owner.Proc.name;
        app_post t app ch Tcp.null_conn.Tcp.rtx_timer (-1)
      end
  | _ | (exception Not_found) -> orphan_post t ch

let app_post_timer t conn tm gen =
  match Hashtbl.find t.conn_owner conn.Tcp.id with
  | owner when not owner.Proc.exited ->
      app_post t (app_for t owner) (Chantab.fwd_channel t.chantab) tm gen
  | _ | (exception Not_found) ->
      (* Orphaned connection (e.g. TIME_WAIT after exit): fall back to
         software-interrupt context so it still makes progress. *)
      (Cpu.cost_cell t.cpu).(0) <- t.c.Cost.soft_dispatch +. t.c.Cost.tcp_in;
      Cpu.post_soft_job t.cpu ~label:"tcp-timer" ~tpkt:(-1) ~poll:false
        (jobs t).j_tcp_timer tm gen

(* ------------------------------------------------------------------ *)
(* NI channels and connection registration                              *)
(* ------------------------------------------------------------------ *)

type endpoint =
  | Udp_port of int * Socket.t option
  | Tcp_conn of Tcp.conn

(* Allocate an endpoint's NI channel and enter it in the Chantab and the
   kernel's tables.  Only lazy kernels receive into NI channels; under
   eager ones this is a no-op. *)
let open_channel t ep =
  match t.proto with
  | Eager -> None
  | Lazy ->
      let ch = Channel.create ~arena:t.parena ~limit:t.cfg.channel_limit () in
      (match ep with
       | Udp_port (port, owner) ->
           Chantab.add_udp t.chantab ~port ch;
           Option.iter (Hashtbl.replace t.chan_sock (Channel.id ch)) owner;
           t.udp_channels <- ch :: t.udp_channels
       | Tcp_conn conn ->
           let port = conn.Tcp.local_port in
           (match conn.Tcp.remote with
            | None -> Chantab.add_tcp_listen t.chantab ~port ch
            | Some (src, src_port) ->
                Chantab.add_tcp t.chantab ~src ~src_port ~dst_port:port ch);
           Hashtbl.replace t.chan_conn (Channel.id ch) conn;
           Hashtbl.replace t.conn_chan conn.Tcp.id ch);
      Flowtab.add_new t.chans ~hi:(Channel.id ch) ~lo:0 ch;
      Some ch

(* Forget a deallocated channel in every kernel table: O(1), and no
   allocation for a connection's channel. *)
let forget_channel t ch =
  let id = Channel.id ch in
  ignore (Flowtab.remove t.chans ~hi:id ~lo:0);
  Hashtbl.remove t.chan_sock id;
  match Hashtbl.find t.chan_conn id with
  | conn ->
      Hashtbl.remove t.chan_conn id;
      Hashtbl.remove t.conn_chan conn.Tcp.id
  | exception Not_found -> ()

(* Deallocate a connection's (or listener's) NI channel, found through
   [conn_chan]. *)
let close_conn_channel t conn =
  if t.proto = Lazy then begin
    let port = conn.Tcp.local_port in
    (match conn.Tcp.remote with
     | None -> Chantab.remove_tcp_listen t.chantab ~port
     | Some (src, src_port) ->
         Chantab.remove_tcp t.chantab ~src ~src_port ~dst_port:port);
    match Hashtbl.find t.conn_chan conn.Tcp.id with
    | ch -> forget_channel t ch
    | exception Not_found -> ()
  end

(* Deallocate an endpoint's NI channel: a socket's own (or its group's
   shared) channel, or a connection's. *)
let close_channel t ep =
  match ep with
  | Udp_port (port, Some { Socket.chan = Some ch; _ }) ->
      Chantab.remove_udp t.chantab ~port;
      t.udp_channels <- List.filter (fun c -> c != ch) t.udp_channels;
      forget_channel t ch
  | Udp_port (_, (Some _ | None)) -> ()
  | Tcp_conn conn -> close_conn_channel t conn

(* [tcp_conns] keys. *)
let[@inline] pcb_lo ~rport ~lport = (rport lsl 16) lor lport

let register_conn t conn ~owner =
  match conn.Tcp.remote with
  | None -> invalid_arg "register_conn: no remote"
  | Some (rip, rport) ->
      Flowtab.add t.tcp_conns ~hi:rip
        ~lo:(pcb_lo ~rport ~lport:conn.Tcp.local_port) conn;
      (match owner with
       | Some o -> Hashtbl.replace t.conn_owner conn.Tcp.id o
       | None -> ());
      ignore (open_channel t (Tcp_conn conn))

let deregister_conn t conn =
  match conn.Tcp.remote with
  | None -> ()
  | Some (rip, rport) ->
      let lo = pcb_lo ~rport ~lport:conn.Tcp.local_port in
      let slot = Flowtab.find t.tcp_conns ~hi:rip ~lo in
      if slot >= 0 && (Flowtab.value t.tcp_conns slot).Tcp.id = conn.Tcp.id
      then ignore (Flowtab.remove t.tcp_conns ~hi:rip ~lo);
      close_conn_channel t conn

(* ------------------------------------------------------------------ *)
(* TCP environment                                                      *)
(* ------------------------------------------------------------------ *)

(* Engine-time expiry of an armed TCP timer: hand the expiry to the
   architecture's protocol-processing context.  The generation snapshot
   makes a stop/re-arm that happens while the posted work is still queued
   drop the stale delivery, exactly as the old per-arm record's [cancelled]
   flag did. *)
let fire_tcp_timer t tm =
  let gen = Tcp.timer_gen tm in
  match t.proto with
  | Eager ->
      (Cpu.cost_cell t.cpu).(0) <-
        t.c.Cost.soft_dispatch +. (t.c.Cost.eager_penalty *. t.c.Cost.tcp_in);
      Cpu.post_soft_job t.cpu ~label:"tcp-timer" ~tpkt:(-1) ~poll:false
        (jobs t).j_tcp_timer tm gen
  | Lazy -> app_post_timer t (Tcp.timer_conn tm) tm gen

(* Typed dispatcher for [Api.recvfrom_timeout] deadlines: registered once
   per kernel, so arming a timeout allocates a (socket, flag) pair instead
   of a capturing closure (the engine's typed fast path). *)
let recv_timeout_target t =
  match t.rcvto_tgt with
  | Some g -> g
  | None ->
      let g =
        Engine.target t.engine (fun (sock, expired) ->
            expired := true;
            wake_all t sock.Socket.recv_wait)
      in
      t.rcvto_tgt <- Some g;
      g

let timer_target t =
  match t.timer_tgt with
  | Some g -> g
  | None ->
      let g = Engine.target t.engine (fun tm -> fire_tcp_timer t tm) in
      t.timer_tgt <- Some g;
      g

(* Wake the chosen waiters of a connection's socket, if it still has one. *)
let wake_sock ?(send = false) ?(recv = false) ?(accept = false) t conn =
  match Hashtbl.find t.conn_sock conn.Tcp.id with
  | s ->
      if send then wake_all t s.Socket.send_wait;
      if recv then wake_all t s.Socket.recv_wait;
      if accept then wake_all t s.Socket.accept_wait
  | exception Not_found -> ()

let make_tcp_env t =
  { Tcp.now = (fun () -> Engine.now t.engine);
    emit = (fun pkt -> ip_output t pkt);
    start_timer =
      (fun tm delay ->
        tm.Tcp.cookie <-
          Engine.schedule_to_after t.engine ~delay (timer_target t) tm);
    stop_timer = (fun tm -> Engine.cancel t.engine tm.Tcp.cookie);
    on_readable = (fun conn -> wake_sock t conn ~recv:true);
    on_writable = (fun conn -> wake_sock t conn ~send:true);
    on_established = (fun conn -> wake_sock t conn ~send:true ~recv:true);
    on_accept_ready = (fun listener _child -> wake_sock t listener ~accept:true);
    on_syn_received =
      (fun listener child ->
        let owner = Hashtbl.find_opt t.conn_owner listener.Tcp.id in
        register_conn t child ~owner);
    on_connect_failed = (fun conn -> wake_sock t conn ~send:true ~recv:true);
    on_reset =
      (fun conn -> wake_sock t conn ~send:true ~recv:true ~accept:true);
    on_time_wait =
      (fun conn ->
        (* Channels that live on the NI are deallocated on entry to
           TIME_WAIT so that NI channel slots scale to busy servers
           (section 4.2). *)
        match t.demux with
        | Nic -> close_conn_channel t conn
        | Softirq | Hardirq -> ());
    on_closed =
      (fun conn ->
        deregister_conn t conn;
        Hashtbl.remove t.conn_owner conn.Tcp.id;
        wake_sock t conn ~send:true ~recv:true;
        (* The connection is gone for good: drop its socket mapping, which
           [Api] added at listen / accept / connect. *)
        Hashtbl.remove t.conn_sock conn.Tcp.id);
    mss = t.cfg.mss;
    time_wait_duration = t.cfg.time_wait;
    initial_rto = t.cfg.initial_rto;
    max_syn_retries = t.cfg.max_syn_retries;
    totals = Tcp.new_totals () }

(* ------------------------------------------------------------------ *)
(* Shared delivery helpers                                              *)
(* ------------------------------------------------------------------ *)

(* Connected-UDP semantics: a socket with a default peer only accepts
   datagrams from that peer. *)
let peer_accepts t (sock : Socket.t) (pkt : Packet.t) sport =
  match sock.Socket.remote with
  | Some (ip, port) when ip <> pkt.Packet.ip.Packet.src || port <> sport ->
      t.stats.rx_wrong_peer <- t.stats.rx_wrong_peer + 1;
      false
  | Some _ | None -> true

(* Deposit a processed datagram on its socket queue and wake a receiver.
   The datagram record is built only once the queue has room; overflow
   (the BSD drop point) releases the packet's mbufs instead. *)
let deposit t (sock : Socket.t) (pkt : Packet.t) payload sport ~mh bytes =
  let ident = pkt.Packet.ip.Packet.ident in
  if Socket.has_room sock then begin
    Socket.deposit_udp sock payload ~src:pkt.Packet.ip.Packet.src ~sport ~ident
      ~mh;
    Trace.sock_enqueue t.tracer ~pkt:ident ~sock:sock.Socket.id;
    t.stats.udp_delivered <- t.stats.udp_delivered + 1;
    wake_one t sock.Socket.recv_wait
  end
  else begin
    sock.Socket.stats.Socket.rx_sockq_drops <-
      sock.Socket.stats.Socket.rx_sockq_drops + 1;
    Trace.sock_drop t.tracer ~pkt:ident ~sock:sock.Socket.id;
    free_rx_pkt t ~mh bytes
  end

(* One copy of a multicast datagram per member socket (section 3.1).
   Under the mbuf-based kernels each deposited copy gets its own
   duplicate chain, so each receiver's copyout frees exactly one. *)
let rec deposit_members t (pkt : Packet.t) payload sport bytes = function
  | [] -> ()
  | sock :: rest ->
      if peer_accepts t sock pkt sport then begin
        let dup_h =
          match t.proto with
          | Eager -> rx_reserve t pkt
          | Lazy -> Mbuf.no_handle
        in
        if dup_h <> no_mbufs then deposit t sock pkt payload sport ~mh:dup_h bytes
      end;
      deposit_members t pkt payload sport bytes rest

let deliver_udp_ready t ~mh (pkt : Packet.t) =
  let bytes = Packet.wire_bytes pkt in
  if not (csum_ok t pkt) then free_rx_pkt t ~mh bytes
  else
  match pkt.Packet.body with
  | Packet.Udp (u, payload) ->
      let sport = u.Packet.usrc_port in
      if Packet.is_multicast pkt then begin
        (* The original chain is released; members get duplicates. *)
        free_rx_pkt t ~mh bytes;
        match Hashtbl.find t.mcast_members u.Packet.udst_port with
        | exception Not_found ->
            t.stats.no_port_drops <- t.stats.no_port_drops + 1
        | members -> deposit_members t pkt payload sport bytes !members
      end
      else
        (match Hashtbl.find t.udp_ports u.Packet.udst_port with
         | exception Not_found ->
             t.stats.no_port_drops <- t.stats.no_port_drops + 1;
             free_rx_pkt t ~mh bytes
         | sock ->
             if peer_accepts t sock pkt sport then
               deposit t sock pkt payload sport ~mh bytes
             else free_rx_pkt t ~mh bytes)
  | Packet.Tcp _ | Packet.Icmp _ | Packet.Fragment _ -> ()

let icmp_reply t (pkt : Packet.t) =
  if not (csum_ok t pkt) then ()
  else
  match pkt.Packet.body with
  | Packet.Icmp (Packet.Echo_request, payload) ->
      ip_output t
        (Packet.icmp ~src:t.ip_addr ~dst:pkt.Packet.ip.Packet.src
           Packet.Echo_reply payload)
  | Packet.Icmp _ | Packet.Udp _ | Packet.Tcp _ | Packet.Fragment _ -> ()

(* The eager PCB lookup, ports straight off the header: deliver to the
   connection's own PCB, else to the port's listener; [false] when no
   endpoint matches. *)
let deliver_tcp t (pkt : Packet.t) ~ctx =
  match pkt.Packet.body with
  | Packet.Tcp (h, _) ->
      let slot =
        Flowtab.find t.tcp_conns ~hi:pkt.Packet.ip.Packet.src
          ~lo:(pcb_lo ~rport:h.Packet.tsrc_port ~lport:h.Packet.tdst_port)
      in
      if slot >= 0 then begin
        tcp_deliver t (Flowtab.value t.tcp_conns slot) pkt ~ctx;
        true
      end
      else (
        match Hashtbl.find t.tcp_listeners h.Packet.tdst_port with
        | listener ->
            tcp_deliver t listener pkt ~ctx;
            true
        | exception Not_found -> false)
  | Packet.Udp _ | Packet.Icmp _ | Packet.Fragment _ -> false

(* Transport-level processing of a complete (reassembled) datagram; runs in
   softint context under BSD / Early-Demux. *)
let bsd_transport_input t ~mh (pkt : Packet.t) =
  match pkt.Packet.body with
  | Packet.Udp _ ->
      Trace.proto_deliver t.tracer ~pkt:pkt.Packet.ip.Packet.ident ~conn:(-1)
        ~in_proc:false;
      deliver_udp_ready t ~mh pkt
  | Packet.Tcp _ ->
      free_rx_pkt t ~mh (Packet.wire_bytes pkt);
      (* No endpoint: answer with a RST, unless the segment is garbage. *)
      if (not (deliver_tcp t pkt ~ctx:`Soft)) && csum_ok t pkt then begin
        t.stats.rsts_sent <- t.stats.rsts_sent + 1;
        Tcp.send_rst_for pkt ~emit:(tcp_env_exn t).Tcp.emit
      end
  | Packet.Icmp _ ->
      free_rx_pkt t ~mh (Packet.wire_bytes pkt);
      icmp_reply t pkt
  | Packet.Fragment _ -> assert false

(* Cost of eager transport processing for a complete datagram. *)
let[@inline] transport_cost t (pkt : Packet.t) ~skip_pcb =
  let pcb = if skip_pcb then 0. else t.c.Cost.pcb_lookup in
  let base =
    match pkt.Packet.body with
    | Packet.Udp _ -> t.c.Cost.udp_in +. pcb
    | Packet.Tcp _ -> t.c.Cost.tcp_in +. pcb
    | Packet.Icmp _ -> t.c.Cost.udp_in
    | Packet.Fragment _ -> 0.
  in
  t.c.Cost.eager_penalty *. base

(* ------------------------------------------------------------------ *)
(* BSD receive path                                                     *)
(* ------------------------------------------------------------------ *)

(* Inlined (as is [transport_cost]) so the per-packet float result is not
   boxed on its way into the CPU's cost cell. *)
let[@inline] bsd_soft_cost t (pkt : Packet.t) =
  if is_transit t pkt then
    (* Transit packet: IP forwarding (or discard) in softint context. *)
    t.c.Cost.soft_dispatch +. t.c.Cost.ipq_op
    +. (t.c.Cost.eager_penalty *. (t.c.Cost.ip_in +. t.c.Cost.ip_forward))
  else
  let frag_extra =
    if Packet.is_fragment pkt then t.c.Cost.eager_penalty *. t.c.Cost.reasm_per_frag
    else 0.
  in
  let transport =
    if Packet.is_fragment pkt then 0.
    else transport_cost t pkt ~skip_pcb:false
  in
  t.c.Cost.soft_dispatch +. t.c.Cost.ipq_op
  +. (t.c.Cost.eager_penalty *. t.c.Cost.ip_in)
  +. frag_extra +. transport +. t.c.Cost.sockbuf_append

(* Transport processing of a datagram whose reassembly completed while a
   fragment was being processed: a separate softint activation.  The
   whole is freed by bytes, as its pieces were allocated. *)
let post_reasm_complete t (whole : Packet.t) ~skip_pcb =
  (Cpu.cost_cell t.cpu).(0) <- transport_cost t whole ~skip_pcb;
  Cpu.post_soft_job t.cpu ~label:"ip-reasm-complete"
    ~tpkt:whole.Packet.ip.Packet.ident ~poll:false (jobs t).j_reasm whole 0

(* A fragment in softint context goes through the reassembler; an
   incomplete datagram's fragments wait there. *)
let ip_input_frag t (pkt : Packet.t) ~skip_pcb =
  match Ip.Reasm.insert t.reasm ~now:(now t) pkt with
  | None -> ()
  | Some whole -> post_reasm_complete t whole ~skip_pcb

(* IP input of a local datagram in softint context: straight to transport
   processing, or through the reassembler for fragments (which arrive
   without a handle, [mh = no_handle]). *)
let ip_input_local t ~mh (pkt : Packet.t) ~skip_pcb =
  if Packet.is_fragment pkt then ip_input_frag t pkt ~skip_pcb
  else bsd_transport_input t ~mh pkt

(* Softint-context IP input of a received packet, run by BSD's softnet
   and by the NAPI poll loop: forward (or drop) a transit packet, process
   a local one. *)
let ip_input t ~mh pkt =
  if is_transit t pkt then begin
    free_rx_pkt t ~mh (Packet.wire_bytes pkt);
    if t.cfg.forwarding then begin
      t.stats.forwarded <- t.stats.forwarded + 1;
      ip_output t pkt
    end
    else t.stats.fwd_drops <- t.stats.fwd_drops + 1
  end
  else ip_input_local t ~mh pkt ~skip_pcb:false

let bsd_driver_rx t pkt =
  let mh = rx_reserve t pkt in
  if mh = no_mbufs then ()
  else if t.ipq_len >= t.cfg.ip_queue_limit then begin
    (* The shared IP queue is full: the drop point that couples unrelated
       sockets under BSD (section 2.2). *)
    t.stats.ipq_drops <- t.stats.ipq_drops + 1;
    Trace.ipq_drop t.tracer ~pkt:pkt.Packet.ip.Packet.ident ~qlen:t.ipq_len;
    free_rx_pkt t ~mh (Packet.wire_bytes pkt)
  end
  else begin
    t.ipq_len <- t.ipq_len + 1;
    if t.ipq_len > t.stats.ipq_hwm then t.stats.ipq_hwm <- t.ipq_len;
    Trace.ipq_enqueue t.tracer ~pkt:pkt.Packet.ip.Packet.ident
      ~qlen:t.ipq_len;
    (Cpu.cost_cell t.cpu).(0) <- bsd_soft_cost t pkt;
    Cpu.post_soft_job t.cpu ~label:"softnet" ~tpkt:pkt.Packet.ip.Packet.ident
      ~poll:false (jobs t).j_softnet pkt mh
  end

(* ------------------------------------------------------------------ *)
(* NAPI receive path (Napi / Napi_gro / Rss)                            *)
(* ------------------------------------------------------------------ *)

(* RSS steering: hash the packed flow key — the same [hi]/[lo] integer
   packing the Flowtab demux probe uses, so steering allocates nothing
   and performs no structural hashing — onto a queue index.  A pure
   function of packet fields, so queue placement is seed-stable and
   shard-count independent.  Fragments (including the first) steer by IP
   ident so every piece of one datagram lands on the same ring. *)
let rss_steer pkt ~queues =
  let sp, dp =
    match pkt.Packet.body with
    | Packet.Fragment _ -> (pkt.Packet.ip.Packet.ident land 0xffff, 0)
    | Packet.Udp (u, _) -> (u.Packet.usrc_port, u.Packet.udst_port)
    | Packet.Tcp (h, _) -> (h.Packet.tsrc_port, h.Packet.tdst_port)
    | Packet.Icmp _ -> (0, 0)
  in
  let hi = (Packet.src pkt lsl 2) lxor Packet.dst pkt in
  let lo = (sp lsl 16) lor (dp land 0xffff) in
  let h = hi lxor (lo * 0x9E37_79B1) in
  let h = h lxor (h lsr 16) in
  (h land max_int) mod queues

(* Protocol-processing cost of one polled packet: the BSD softint work
   minus the parts the poll loop does not repeat per packet (softirq
   dispatch, shared-IP-queue churn).  The per-packet ring dequeue is
   charged separately ([poll_dequeue]). *)
let[@inline] napi_proto_cost t pkt =
  bsd_soft_cost t pkt -. t.c.Cost.soft_dispatch -. t.c.Cost.ipq_op

(* GRO merges only what aggregation cannot change for the shared protocol
   code: local unicast, checksum already verified (GRO runs after
   hardware checksum validation), not a fragment.  TCP segments must
   also carry data and no connection-state flags. *)
let gro_candidate t pkt =
  (not (Packet.is_fragment pkt))
  && (not (Packet.is_multicast pkt))
  && is_local_addr t (Packet.dst pkt)
  && Packet.verify pkt

let tcp_mergeable t pkt =
  gro_candidate t pkt
  && (match pkt.Packet.body with
      | Packet.Tcp (h, pl) ->
          Payload.length pl > 0
          && not
               (h.Packet.flags.Packet.syn || h.Packet.flags.Packet.fin
              || h.Packet.flags.Packet.rst)
      | Packet.Udp _ | Packet.Icmp _ | Packet.Fragment _ -> false)

let udp_mergeable t pkt =
  gro_candidate t pkt
  && (match pkt.Packet.body with
      | Packet.Udp _ -> true
      | Packet.Tcp _ | Packet.Icmp _ | Packet.Fragment _ -> false)

let same_flow a b =
  Packet.src a = Packet.src b
  && Packet.dst a = Packet.dst b
  &&
  match a.Packet.body with
  | Packet.Tcp (x, _) -> (
      match b.Packet.body with
      | Packet.Tcp (y, _) ->
          x.Packet.tsrc_port = y.Packet.tsrc_port
          && x.Packet.tdst_port = y.Packet.tdst_port
      | Packet.Udp _ | Packet.Icmp _ | Packet.Fragment _ -> false)
  | Packet.Udp (x, _) -> (
      match b.Packet.body with
      | Packet.Udp (y, _) ->
          x.Packet.usrc_port = y.Packet.usrc_port
          && x.Packet.udst_port = y.Packet.udst_port
      | Packet.Tcp _ | Packet.Icmp _ | Packet.Fragment _ -> false)
  | Packet.Icmp _ | Packet.Fragment _ -> false

(* Append a packet and its mbuf reservation to the batch.  A round
   yields at most one batch entry per frame served, and serves at most
   [napi_budget] frames from a ring of [rx_ring] slots that nothing refills
   while it is being drained, so [min budget ring] rows always suffice. *)
let batch_add n pkt mh =
  n.b_pkts.(n.b_len) <- pkt;
  n.b_mhs.(n.b_len) <- mh;
  n.b_len <- n.b_len + 1

(* Admit one packet the BSD way: reserve its mbufs (drop on pool
   exhaustion) and charge full eager protocol processing. *)
let napi_admit t n pkt =
  let mh = rx_reserve t pkt in
  if mh <> no_mbufs then begin
    n.nf.(nf_cost) <- n.nf.(nf_cost) +. napi_proto_cost t pkt;
    batch_add n pkt mh
  end

(* Merge the held TCP train into one super-segment: head's ident and seq,
   last segment's ack/window (and PSH), payloads glued, content checksum
   recomputed so the merged segment still verifies.  The merged segment
   enters protocol processing once; its wire footprint differs from any
   single reservation, so it stays on byte accounting.  Builds a new
   packet by design. *)
let gro_merge_tcp t n hid =
  let len = n.train_len in
  let head = n.train.(0) and last = n.train.(len - 1) in
  let merged =
    match head.Packet.body, last.Packet.body with
    | Packet.Tcp (th, _), Packet.Tcp (tl, _) ->
        let payload =
          Payload.concat
            (List.init len (fun i ->
                 match n.train.(i).Packet.body with
                 | Packet.Tcp (_, pl) -> pl
                 | _ -> assert false))
        in
        let hdr =
          { th with
            Packet.ack_no = tl.Packet.ack_no;
            window = tl.Packet.window;
            flags =
              { th.Packet.flags with Packet.psh = tl.Packet.flags.Packet.psh } }
        in
        let merged =
          { Packet.ip = head.Packet.ip; body = Packet.Tcp (hdr, payload) }
        in
        { merged with
          Packet.ip =
            { merged.Packet.ip with Packet.csum = Packet.checksum merged } }
    | _ -> assert false
  in
  let bytes = Packet.wire_bytes merged in
  if not (Mbuf.alloc t.mbufs ~bytes) then mbuf_drop t hid
  else begin
    n.nf.(nf_cost) <-
      n.nf.(nf_cost) +. napi_proto_cost t merged
      +. (float_of_int (len - 1) *. t.c.Cost.gro_merge);
    batch_add n merged Mbuf.no_handle
  end

(* Hand the held train to the batch.  A train of one is admitted as is;
   a longer UDP train (fraglist-style receive offload) shares one IP/UDP
   protocol pass — the head pays full cost, absorbed datagrams pay merge
   plus deposit, and each is still deposited individually; a TCP train
   becomes one super-segment.  A train never survives the poll round. *)
let gro_flush t n =
  let len = n.train_len in
  if len = 1 then napi_admit t n n.train.(0)
  else if len > 1 then begin
    let head = n.train.(0) in
    let hid = head.Packet.ip.Packet.ident in
    for i = 1 to len - 1 do
      Trace.gro_merge t.tracer ~pkt:n.train.(i).Packet.ip.Packet.ident ~into:hid
    done;
    if n.train_udp then begin
      napi_admit t n head;
      for i = 1 to len - 1 do
        let p = n.train.(i) in
        let mh = rx_reserve t p in
        if mh <> no_mbufs then begin
          n.nf.(nf_cost) <-
            n.nf.(nf_cost) +. t.c.Cost.gro_merge +. t.c.Cost.sockbuf_append;
          batch_add n p mh
        end
      done
    end
    else gro_merge_tcp t n hid;
    Trace.gro_flush t.tracer ~pkt:hid ~segs:len
  end;
  Array.fill n.train 0 len Packet.null;
  n.train_len <- 0

(* Append to the held train (starting one if none is held). *)
let gro_push t n pkt ~udp =
  if n.train_len = 0 then n.train_udp <- udp;
  n.train.(n.train_len) <- pkt;
  n.train_len <- n.train_len + 1;
  match pkt.Packet.body with
  | Packet.Tcp (h, pl) ->
      n.train_next_seq <- h.Packet.seq + Payload.length pl;
      (* PSH marks an application-visible boundary: merge, then flush, as
         Linux GRO does. *)
      if h.Packet.flags.Packet.psh || n.train_len >= gro_max_segs then
        gro_flush t n
  | Packet.Udp _ | Packet.Icmp _ | Packet.Fragment _ ->
      if n.train_len >= gro_max_segs then gro_flush t n

(* Receive-offload aggregation of one dequeued frame: extend the held
   train, or flush it and start over. *)
let rec gro_consider t n pkt =
  if n.train_len = 0 then begin
    if tcp_mergeable t pkt then gro_push t n pkt ~udp:false
    else if udp_mergeable t pkt then gro_push t n pkt ~udp:true
    else napi_admit t n pkt
  end
  else if
    if n.train_udp then udp_mergeable t pkt && same_flow n.train.(0) pkt
    else
      tcp_mergeable t pkt
      && same_flow n.train.(0) pkt
      && (match pkt.Packet.body with
          | Packet.Tcp (h, _) -> h.Packet.seq = n.train_next_seq
          | Packet.Udp _ | Packet.Icmp _ | Packet.Fragment _ -> false)
  then gro_push t n pkt ~udp:n.train_udp
  else begin
    gro_flush t n;
    gro_consider t n pkt
  end

let rec napi_pull t n ~gro =
  if n.served < t.cfg.napi_budget then begin
    let pkt = Nic.rxq_pop t.nic n.nq in
    if pkt != Packet.null then begin
      n.served <- n.served + 1;
      n.nf.(nf_cost) <- n.nf.(nf_cost) +. t.c.Cost.poll_dequeue;
      if gro then gro_consider t n pkt else napi_admit t n pkt;
      napi_pull t n ~gro
    end
  end

(* Pull up to [napi_budget] frames off [n]'s ring, reserve their mbufs,
   and — under [Poll_gro] — run receive-offload aggregation.  Leaves the
   batch in [n]'s columns, its CPU cost in [nf.(nf_cost)], and the number
   of frames served (the poll loop's "work done" that is compared against
   the budget) in [served]. *)
let napi_collect t n =
  n.b_len <- 0;
  n.served <- 0;
  n.nf.(nf_cost) <- 0.;
  let gro = t.rx_mode = Poll_gro in
  napi_pull t n ~gro;
  if gro then gro_flush t n

(* Deliver the batch — the BSD softint path minus the shared IP queue —
   and empty it. *)
let napi_deliver_batch t n =
  for i = 0 to n.b_len - 1 do
    let pkt = n.b_pkts.(i) in
    n.b_pkts.(i) <- Packet.null;
    ip_input t ~mh:n.b_mhs.(i) pkt
  done;
  n.b_len <- 0

(* The softirq poll chain.  Each round is two softirq work items: a fixed
   [poll_loop] charge whose action dequeues the batch (so the batch
   reflects the ring at dequeue time), then a batch-sized charge whose
   action runs protocol processing and decides how to continue:

   - ring empty -> this polling episode is over: unmask the interrupt
     (frames that slipped in while masked re-raise it immediately; the
     re-enable race is closed in the NIC);
   - episode served >= budget with backlog -> the softirq level has done
     its fair quantum of work: hand polling to ksoftirqd;
   - otherwise -> another softirq round.

   Unmasking only on a {e truly} empty ring is what prevents the
   interrupt storm: a "served < budget" test would re-enable while
   arrivals during delivery still sit in the ring, and sustained load
   would then be serviced entirely at interrupt priority. *)
let napi_post_poll t n =
  (Cpu.cost_cell t.cpu).(0) <- t.c.Cost.poll_loop;
  Cpu.post_soft_job t.cpu ~label:"napi-poll" ~tpkt:(-1) ~poll:true
    (jobs t).j_napi_poll n 0

let napi_softirq_round t n =
  Trace.poll_begin t.tracer ~q:n.nq ~pending:(Nic.rxq_len t.nic n.nq);
  napi_collect t n;
  (Cpu.cost_cell t.cpu).(0) <- n.nf.(nf_cost);
  Cpu.post_soft_job t.cpu ~label:"napi-poll" ~tpkt:(-1) ~poll:true
    (jobs t).j_napi_deliver n 0

let napi_round_done t n =
  napi_deliver_batch t n;
  Trace.poll_end t.tracer ~q:n.nq ~served:n.served;
  n.episode <- n.episode + n.served;
  n.nf.(nf_last_poll) <- (Engine.clock_cell t.engine).(0);
  if n.episode >= t.cfg.napi_budget then begin
    n.in_ksoftirqd <- true;
    wake_one t n.ksoftirqd_wq
  end
  else if Nic.rxq_len t.nic n.nq = 0 then begin
    (* Ring drained with budget to spare: unmask.  [episode] is kept — if
       the next kick lands within [napi_storm_gap] it continues this
       episode, so a sustained flood still reaches the budget and defers
       to ksoftirqd. *)
    n.poll_on <- false;
    Nic.rxq_enable_intr t.nic n.nq
  end
  else napi_post_poll t n

(* The mitigated interrupt: ack, mask the queue, schedule the poll —
   constant cost, no per-packet work (the NAPI contract). *)
let napi_irq t qi =
  Nic.rxq_disable_intr t.nic qi;
  let n = t.napi.(qi) in
  if not n.poll_on then begin
    n.poll_on <- true;
    (* A quiet spell since the last poll round ends the episode; a kick
       inside the storm gap continues it (and its budget). *)
    let now = (Engine.clock_cell t.engine).(0) in
    if now -. n.nf.(nf_last_poll) > napi_storm_gap then n.episode <- 0;
    napi_post_poll t n
  end

let napi_kick t qi =
  (Cpu.cost_cell t.cpu).(0) <- t.c.Cost.napi_irq;
  Cpu.post_hard_job t.cpu ~label:"napi-irq" ~tpkt:(-1) (jobs t).j_napi_irq () qi

(* Process-context polling: once a softirq chain defers, the queue's
   ksoftirqd repolls under the fair scheduler — poll cycles now compete
   with application processes instead of preempting them, and the ledger
   attributes them to {!Ledger.Poll} via {!Cpu.compute_poll}.

   An empty ring does not immediately end the hand-off: the interrupt
   stays masked and the next poll is deferred by half the storm gap
   (Linux's [napi_defer_hard_irqs]/[gro_flush_timeout] IRQ deferral).
   Without the grace poll, a flood whose interarrival time exceeds one
   poll cycle would momentarily drain the ring, bounce straight back to
   interrupt mode, and re-earn the deferral 64 packets later — spending
   most of its life back at softirq priority. *)
let ksoftirqd_loop t n =
  let rec wait () =
    if not n.in_ksoftirqd then begin
      Proc.block n.ksoftirqd_wq;
      wait ()
    end
    else poll 0

  and poll quiet =
    Trace.poll_begin t.tracer ~q:n.nq ~pending:(Nic.rxq_len t.nic n.nq);
    charge_poll t t.c.Cost.poll_loop;
    napi_collect t n;
    charge_poll t n.nf.(nf_cost);
    napi_deliver_batch t n;
    Trace.poll_end t.tracer ~q:n.nq ~served:n.served;
    if n.served > 0 || Nic.rxq_len t.nic n.nq > 0 then poll 0
    else if quiet >= 1 then begin
      (* Two consecutive quiet polls: back to interrupt mode. *)
      n.in_ksoftirqd <- false;
      n.poll_on <- false;
      n.episode <- 0;
      Nic.rxq_enable_intr t.nic n.nq;
      wait ()
    end
    else begin
      (* IRQ deferral: hold the interrupt masked, sleep [napi_repoll],
         grace poll.  Only this timer targets the waitq while
         [in_ksoftirqd] is set, so the wake below cannot be stolen. *)
      napi_grace_rearm t n;
      Proc.block n.ksoftirqd_wq;
      poll (quiet + 1)
    end
  in
  wait ()

(* ------------------------------------------------------------------ *)
(* LRP receive path (shared by SOFT-LRP and NI-LRP)                     *)
(* ------------------------------------------------------------------ *)

(* Waking a consumer from demux context.  Demultiplexing in the hardware
   interrupt wakes immediately; on the NI, the interface must raise a
   (cheap) host interrupt to do it: [ni_intr] posts the wakeup as a typed
   job, so a per-packet wakeup allocates nothing. *)
let ni_intr t j x =
  (Cpu.cost_cell t.cpu).(0) <- t.c.Cost.ni_wakeup_intr;
  Cpu.post_hard_job t.cpu ~label:"ni-intr" ~tpkt:(-1) j x 0

let ni_wake_one t wq =
  match t.demux with
  | Nic -> ni_intr t (jobs t).j_wake wq
  | Softirq | Hardirq -> wake_one t wq

let rec wake_members t = function
  | [] -> ()
  | (m : Socket.t) :: rest ->
      wake_one t m.Socket.recv_wait;
      wake_members t rest

let lrp_classify_rx t pkt =
  if is_transit t pkt then begin
    (* Transit packet: demultiplexed straight onto the IP-forwarding
       daemon's channel (section 3.5), or discarded if this host is not a
       gateway. *)
    if t.cfg.forwarding then begin
      if Channel.enqueue_code (Chantab.fwd_channel t.chantab) pkt
         = Channel.queued_was_empty
      then ni_wake_one t t.fwd_wq
    end
    else t.stats.fwd_drops <- t.stats.fwd_drops + 1
  end
  else
  (* Classification runs without materialising the [Demux.flow] variant:
     [resolve_slot] does the packed-key probe straight off the packet
     fields and answers with an int slot code, and the
     constant-constructor class drives the wake logic — the whole demux
     decision allocates nothing. *)
  let cls = Demux.class_of_packet pkt in
  let slot = Chantab.resolve_slot t.chantab pkt in
  if slot = Chantab.slot_none then begin
      Trace.demux t.tracer ~pkt:pkt.Packet.ip.Packet.ident ~chan:(-1)
        ~flow:(Demux.flow_id_of_packet pkt);
      (match cls with
       | Demux.Tcp_class ->
           (* No endpoint: the protocol-proxy daemon answers with an RST on
              its own time (section 3.5). *)
           if Channel.enqueue_code (Chantab.icmp_channel t.chantab) pkt
              = Channel.queued_was_empty
              && t.cfg.udp_helper
           then ni_wake_one t t.helper_wq
       | Demux.Udp_class | Demux.Frag_class | Demux.Icmp_class ->
           t.stats.demux_drops <- t.stats.demux_drops + 1)
  end
  else
      let ch = Chantab.channel_of_slot t.chantab slot in
      Trace.demux t.tracer ~pkt:pkt.Packet.ip.Packet.ident
        ~chan:(Channel.id ch) ~flow:(Demux.flow_id_of_packet pkt);
      let code = Channel.enqueue_code ch pkt in
      (if code = Channel.discarded_code then
         (* Early packet discard, counted per channel. *)
         Trace.early_discard t.tracer ~pkt:pkt.Packet.ip.Packet.ident
           ~chan:(Channel.id ch)
       else
         let was_empty = code = Channel.queued_was_empty in
         (match cls with
            | Demux.Udp_class ->
                let dst_port_of_flow = Demux.udp_dst_port_of_packet pkt in
                if Channel.interrupt_requested ch then begin
                  Channel.clear_interrupt_request ch;
                  match Hashtbl.find t.mcast_members dst_port_of_flow with
                  | members ->
                      (match t.demux with
                       | Nic -> ni_intr t (jobs t).j_wake_members members
                       | Softirq | Hardirq -> wake_members t !members)
                  | exception Not_found ->
                      (match Hashtbl.find t.chan_sock (Channel.id ch) with
                       | sock -> ni_wake_one t sock.Socket.recv_wait
                       | exception Not_found -> ())
                end
                else if t.cfg.udp_helper && was_empty then
                  (* Nobody is waiting: let the minimal-priority protocol
                     thread pick it up if the CPU is otherwise idle
                     (section 3.3). *)
                  ni_wake_one t t.helper_wq
            | Demux.Tcp_class ->
                (* Guarded: a disabled [notef] still builds its closures. *)
                if Trace.enabled t.tracer then
                  Trace.notef t.tracer "rx tcp chan %d len=%d trans=%s"
                    (Channel.id ch) (Channel.length ch)
                    (if was_empty then "empty" else "ne");
                (* The APP thread drains until empty, so only the
                   empty-to-non-empty transition needs a notification —
                   under NI demux that keeps host interrupts rare. *)
                if was_empty then
                  (match Hashtbl.find t.chan_conn (Channel.id ch) with
                   | conn ->
                       (match t.demux with
                        | Nic -> ni_intr t (jobs t).j_app_chan ch
                        | Softirq | Hardirq -> app_post_chan t conn ch)
                   | exception Not_found ->
                       if Trace.enabled t.tracer then
                         Trace.notef t.tracer "rx tcp chan %d: NO CONN"
                           (Channel.id ch))
            | Demux.Frag_class | Demux.Icmp_class ->
                (* Fragments needing reassembly and ICMP: the helper
                   handles them if no receiver does first. *)
                if t.cfg.udp_helper && was_empty then ni_wake_one t t.helper_wq))

(* ------------------------------------------------------------------ *)
(* Early-Demux receive path                                             *)
(* ------------------------------------------------------------------ *)

let edemux_drop t (pkt : Packet.t) =
  t.stats.edemux_early_drops <- t.stats.edemux_early_drops + 1;
  Trace.early_discard t.tracer ~pkt:pkt.Packet.ip.Packet.ident ~chan:(-1)

(* Eager protocol processing, BSD-style, as a softint job carrying the
   packet's mbuf handle. *)
let edemux_eager t (pkt : Packet.t) =
  let is_frag = Packet.is_fragment pkt in
  let mh = rx_reserve t pkt in
  if mh <> no_mbufs then begin
    let frag_extra =
      if is_frag then t.c.Cost.eager_penalty *. t.c.Cost.reasm_per_frag else 0.
    in
    let transport =
      if is_frag then 0. else transport_cost t pkt ~skip_pcb:true
    in
    (Cpu.cost_cell t.cpu).(0) <-
      t.c.Cost.soft_dispatch
      +. (t.c.Cost.eager_penalty *. t.c.Cost.ip_in)
      +. frag_extra +. transport +. t.c.Cost.sockbuf_append;
    Cpu.post_soft_job t.cpu ~label:"softnet" ~tpkt:pkt.Packet.ip.Packet.ident
      ~poll:false (jobs t).j_edemux_soft pkt mh
  end

(* Early discard on a full receiver queue — but processing stays eager.
   A group datagram is discarded only when no member's queue has room. *)
let edemux_udp t pkt ~dst_port =
  match Hashtbl.find t.udp_ports dst_port with
  | sock ->
      if Socket.has_room sock then edemux_eager t pkt else edemux_drop t pkt
  | exception Not_found ->
      (match Hashtbl.find t.mcast_members dst_port with
       | members when Packet.is_multicast pkt ->
           if List.exists Socket.has_room !members then edemux_eager t pkt
           else edemux_drop t pkt
       | _ | (exception Not_found) -> edemux_drop t pkt)

(* Early discard on a full receive buffer or backlog, probing the PCBs
   with the ports straight off the (first-fragment-aware) header. *)
let edemux_tcp t pkt =
  let h =
    match pkt.Packet.body with
    | Packet.Tcp (h, _)
    | Packet.Fragment { Packet.whole = { Packet.body = Packet.Tcp (h, _); _ }; _ } -> h
    | Packet.Udp _ | Packet.Icmp _ | Packet.Fragment _ -> assert false
  in
  let slot =
    Flowtab.find t.tcp_conns ~hi:(Packet.src pkt)
      ~lo:(pcb_lo ~rport:h.Packet.tsrc_port ~lport:h.Packet.tdst_port)
  in
  if slot >= 0 then begin
    let conn = Flowtab.value t.tcp_conns slot in
    if conn.Tcp.rcvq_bytes >= conn.Tcp.rcv_buf_limit then edemux_drop t pkt
    else edemux_eager t pkt
  end
  else if h.Packet.flags.Packet.syn && not h.Packet.flags.Packet.ack then
    match Hashtbl.find t.tcp_listeners h.Packet.tdst_port with
    | l -> if backlog_full l then edemux_drop t pkt else edemux_eager t pkt
    | exception Not_found ->
        (* No endpoint: process eagerly so TCP answers with an RST, as the
           BSD code this kernel is derived from does. *)
        edemux_eager t pkt
  else edemux_eager t pkt

let edemux_rx t pkt =
  if is_transit t pkt then begin
    if t.cfg.forwarding then begin
      (Cpu.cost_cell t.cpu).(0) <-
        t.c.Cost.soft_dispatch
        +. (t.c.Cost.eager_penalty *. (t.c.Cost.ip_in +. t.c.Cost.ip_forward));
      Cpu.post_soft_job t.cpu ~label:"ip-forward" ~tpkt:(-1) ~poll:false
        (jobs t).j_forward pkt 0
    end
    else t.stats.fwd_drops <- t.stats.fwd_drops + 1
  end
  else begin
    (* The allocation-free classification (see [lrp_classify_rx]). *)
    Trace.demux t.tracer ~pkt:pkt.Packet.ip.Packet.ident ~chan:(-1)
      ~flow:(Demux.flow_id_of_packet pkt);
    match Demux.class_of_packet pkt with
    | Demux.Udp_class ->
        edemux_udp t pkt ~dst_port:(Demux.udp_dst_port_of_packet pkt)
    | Demux.Tcp_class -> edemux_tcp t pkt
    | Demux.Frag_class | Demux.Icmp_class -> edemux_eager t pkt
  end

(* ------------------------------------------------------------------ *)
(* NIC receive dispatch                                                 *)
(* ------------------------------------------------------------------ *)

let rx_dispatch t pkt =
  t.stats.rx_frames <- t.stats.rx_frames + 1;
  let tpkt = pkt.Packet.ip.Packet.ident in
  let cost = Cpu.cost_cell t.cpu in
  match t.demux with
  | Softirq ->
      (* Under polled RX only non-queued interfaces reach this handler
         (the primary NIC runs in queued-RX mode and hands frames to the
         poll loop without going through it); secondary interfaces of a
         multi-homed host fall back to the eager BSD path. *)
      cost.(0) <- t.c.Cost.hard_rx +. t.c.Cost.ipq_op;
      Cpu.post_hard_job t.cpu ~label:"rx-intr" ~tpkt (jobs t).j_driver_rx pkt 0
  | Hardirq ->
      (* Soft demux: classification runs in the hardware interrupt. *)
      cost.(0) <- t.c.Cost.hard_rx +. t.c.Cost.demux;
      Cpu.post_hard_job t.cpu ~label:"rx-demux" ~tpkt (jobs t).j_demux_rx pkt 0
  | Nic ->
      (* NI demux: classification runs on the interface's embedded
         processor — zero host CPU. *)
      lrp_classify_rx t pkt

(* ------------------------------------------------------------------ *)
(* Lazy UDP protocol processing (LRP receive path, section 3.3)         *)
(* ------------------------------------------------------------------ *)

(* Pull any queued fragments for pending reassemblies out of the special
   fragment channel and integrate them.  Completions are delivered to their
   socket queues.  Runs in process context; the caller charges per-fragment
   cost through [charge]. *)
let drain_frag_channel t ~charge =
  let frag_ch = Chantab.frag_channel t.chantab in
  let frags = Channel.extract frag_ch (fun _ -> true) in
  List.fold_left
    (fun completed pkt ->
      charge (t.c.Cost.reasm_per_frag +. t.c.Cost.ip_in);
      match Ip.Reasm.insert t.reasm ~now:(now t) pkt with
      | None -> completed
      | Some whole -> whole :: completed)
    [] frags

(* Deliver datagrams completed by lazy (receiver-context) processing;
   they carry no mbuf reservation. *)
let rec deliver_udp_all t = function
  | [] -> ()
  | pkt :: rest ->
      deliver_udp_ready t ~mh:Mbuf.no_handle pkt;
      deliver_udp_all t rest

(* Lazy protocol processing starts in the receiver's own context; the
   deposit that follows the charges closes the proc-proto stage.  The
   first charge is channel buffer management, plus the NI-memory access
   under NI demux.  Each charge is its own compute segment (a preemption
   point), ledgered as protocol work on channel [flow] — section 3.3's
   accounting claim made measurable. *)
let lrp_charge_rx t ~flow (pkt : Packet.t) =
  Trace.proto_deliver t.tracer ~pkt:pkt.Packet.ip.Packet.ident ~conn:(-1)
    ~in_proc:true;
  charge_proto t ~flow (t.c.Cost.sockq +. ni_access_cost t)

(* A whole datagram: IP and UDP processing charged, then deposited.
   Allocates nothing but the datagram handed to the application. *)
let lrp_recv_whole t ~flow pkt =
  lrp_charge_rx t ~flow pkt;
  charge_proto t ~flow (t.c.Cost.lazy_locality *. t.c.Cost.ip_in);
  charge_proto t ~flow (t.c.Cost.lazy_locality *. t.c.Cost.udp_in);
  deliver_udp_ready t ~mh:Mbuf.no_handle pkt

(* A fragment: integrate it, and on a miss check the special fragment
   channel (section 3.2).  Completions — zero or several — are charged
   their UDP processing, then delivered in order. *)
let lrp_recv_frag t ~flow pkt =
  lrp_charge_rx t ~flow pkt;
  charge_proto t ~flow
    (t.c.Cost.lazy_locality *. (t.c.Cost.ip_in +. t.c.Cost.reasm_per_frag));
  let completed =
    match Ip.Reasm.insert t.reasm ~now:(now t) pkt with
    | Some whole -> [ whole ]
    | None -> drain_frag_channel t ~charge:(fun d -> charge_proto t ~flow d)
  in
  List.iter
    (fun _ -> charge_proto t ~flow (t.c.Cost.lazy_locality *. t.c.Cost.udp_in))
    completed;
  deliver_udp_all t completed

let lrp_recv_one t ch =
  let pkt = Channel.pop ch in
  pkt != Packet.null
  && begin
       let flow = Channel.id ch in
       if Packet.is_fragment pkt then lrp_recv_frag t ~flow pkt
       else lrp_recv_whole t ~flow pkt;
       true
     end

(* ------------------------------------------------------------------ *)
(* LRP helper thread (minimal priority, section 3.3)                    *)
(* ------------------------------------------------------------------ *)

let helper_loop t =
  let charge d = charge_proto t ~flow:(-1) d in
  let rec pass () =
    let worked = ref false in
    (* Integrate any stray fragments. *)
    (match drain_frag_channel t ~charge with
     | [] -> ()
     | completed ->
         worked := true;
         List.iter
           (fun whole ->
             Trace.proto_deliver t.tracer ~pkt:whole.Packet.ip.Packet.ident
               ~conn:(-1) ~in_proc:true;
             charge (t.c.Cost.lazy_locality *. t.c.Cost.udp_in);
             deliver_udp_ready t ~mh:Mbuf.no_handle whole)
           completed);
    (* Process one packet from each backlogged UDP channel — but only while
       the destination socket queue has room.  A full socket queue means the
       receiver is not keeping up, and leaving packets in the channel is
       what lets it fill and shed further load at the NI instead of burning
       host CPU on datagrams that would be dropped anyway. *)
    List.iter
      (fun ch ->
        let room =
          match Hashtbl.find_opt t.chan_sock (Channel.id ch) with
          | Some sock -> Socket.has_room sock
          | None -> false
        in
        if room && lrp_recv_one t ch then worked := true)
      t.udp_channels;
    (* Protocol-proxy daemon duties: ICMP echo and RSTs for TCP segments
       with no endpoint (section 3.5). *)
    (let pkt = Channel.pop (Chantab.icmp_channel t.chantab) in
     if pkt != Packet.null then begin
       worked := true;
       charge (t.c.Cost.lazy_locality *. (t.c.Cost.ip_in +. t.c.Cost.udp_in));
       match pkt.Packet.body with
       | Packet.Tcp _ ->
           t.stats.rsts_sent <- t.stats.rsts_sent + 1;
           Tcp.send_rst_for pkt ~emit:(tcp_env_exn t).Tcp.emit
       | Packet.Udp _ | Packet.Icmp _ | Packet.Fragment _ ->
           (match Ip.Reasm.insert t.reasm ~now:(now t) pkt with
            | Some whole -> icmp_reply t whole
            | None -> ())
     end);
    if !worked then pass ()
    else begin
      Proc.block t.helper_wq;
      pass ()
    end
  in
  pass ()

(* ------------------------------------------------------------------ *)
(* IP-forwarding daemon (section 3.5)                                   *)
(* ------------------------------------------------------------------ *)

(* A proxy daemon owns the forwarding channel: transit packets are charged
   to it, and its scheduling priority bounds the resources the host spends
   on forwarding. *)
let fwd_daemon_loop t =
  let ch = Chantab.fwd_channel t.chantab in
  let rec loop () =
    let pkt = Channel.pop ch in
    if pkt != Packet.null then begin
      charge_proto t ~flow:(Channel.id ch)
        (t.c.Cost.lazy_locality *. (t.c.Cost.ip_in +. t.c.Cost.ip_forward));
      t.stats.forwarded <- t.stats.forwarded + 1;
      ip_output t pkt;
      loop ()
    end
    else begin
      Proc.block t.fwd_wq;
      loop ()
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Construction                                                         *)
(* ------------------------------------------------------------------ *)

let create engine fabric ~name ~ip cfg =
  let cpu =
    Cpu.create engine ~ctx_switch_cost:cfg.costs.Cost.ctx_switch ~name ()
  in
  let nic = Fabric.make_nic fabric ~name:(name ^ ".nic") ~ip () in
  (* Flight recorder: enabling tracing costs no per-event allocation (the
     timestamp is read straight from the engine's clock cell). *)
  let tracer = Trace.create ~name ~clock:(Engine.clock_cell engine) () in
  let parena = Parena.create () in
  let chantab = Chantab.create ~arena:parena () in
  let demux, proto, rx_mode = axes cfg.arch in
  let t =
    { kname = name; engine; cpu; nic; cfg; demux; proto; rx_mode;
      c = cfg.costs; ip_addr = ip;
      tracer;
      ipq_len = 0; mbufs = Mbuf.create ~capacity:cfg.mbuf_capacity ();
      parena;
      interfaces = [ (ip, 24, nic) ];
      udp_ports = Hashtbl.create 64;
      tcp_conns = Flowtab.create ~dummy:Tcp.null_conn ();
      tcp_listeners = Hashtbl.create 16; conn_sock = Hashtbl.create 256;
      conn_owner = Hashtbl.create 256; chantab;
      chan_sock = Hashtbl.create 64; mcast_members = Hashtbl.create 8;
      chan_conn = Hashtbl.create 256;
      conn_chan = Hashtbl.create 256;
      chans = Flowtab.create ~dummy:(Chantab.fwd_channel chantab) ();
      apps = Hashtbl.create 16;
      helper_wq = Proc.waitq "udp-helper"; helper_proc = None;
      fwd_wq = Proc.waitq "ipfwdd"; fwd_proc = None;
      udp_channels = []; napi = [||]; napi_grace_tgt = None; rxj = None;
      reasm = Ip.Reasm.create ();
      tcp_env = None; timer_tgt = None; rcvto_tgt = None;
      eph_port = 20_000;
      stats =
        { rx_frames = 0; ipq_drops = 0; mbuf_drops = 0; no_port_drops = 0;
          demux_drops = 0; edemux_early_drops = 0; udp_delivered = 0;
          tcp_delivered = 0;
          rx_wrong_peer = 0; forwarded = 0; fwd_drops = 0; rsts_sent = 0;
          csum_drops = 0; ipq_hwm = 0 } }
  in
  t.rxj <-
    Some
      { j_driver_rx = Cpu.job (fun pkt _ -> bsd_driver_rx t pkt);
        j_demux_rx =
          Cpu.job (fun pkt _ ->
              match t.proto with
              | Lazy -> lrp_classify_rx t pkt
              | Eager -> edemux_rx t pkt);
        j_softnet =
          Cpu.job (fun pkt mh ->
              t.ipq_len <- t.ipq_len - 1;
              ip_input t ~mh pkt);
        j_edemux_soft =
          Cpu.job (fun pkt mh -> ip_input_local t ~mh pkt ~skip_pcb:true);
        j_wake = Cpu.job (fun wq _ -> wake_one t wq);
        j_napi_irq = Cpu.job (fun () qi -> napi_irq t qi);
        j_napi_poll = Cpu.job (fun n _ -> napi_softirq_round t n);
        j_napi_deliver = Cpu.job (fun n _ -> napi_round_done t n);
        j_wake_members = Cpu.job (fun members _ -> wake_members t !members);
        j_app_chan =
          Cpu.job (fun ch _ ->
              match Hashtbl.find t.chan_conn (Channel.id ch) with
              | conn -> app_post_chan t conn ch
              | exception Not_found -> ());
        j_orphan = Cpu.job (fun ch _ -> orphan_drain t ch);
        j_tcp_timer = Cpu.job (fun tm gen -> Tcp.timer_fired tm ~gen);
        j_tcp_tx = Cpu.job (fun () _ -> ());
        j_reasm =
          Cpu.job (fun whole _ -> bsd_transport_input t ~mh:Mbuf.no_handle whole);
        j_forward =
          Cpu.job (fun pkt _ ->
              t.stats.forwarded <- t.stats.forwarded + 1;
              ip_output t pkt) };
  t.tcp_env <- Some (make_tcp_env t);
  Nic.set_rx_handler nic (fun pkt -> rx_dispatch t pkt);
  Cpu.set_tracer cpu tracer;
  Nic.set_tracer nic tracer;
  (* Periodic reassembly pruning (ip_slowtimo); re-arms its own event. *)
  let slowtimo_ev = ref Engine.none in
  slowtimo_ev :=
    Engine.schedule_after engine ~delay:(Time.sec 5.) (fun () ->
        ignore (Ip.Reasm.prune t.reasm ~now:(now t));
        Engine.reschedule_after engine !slowtimo_ev ~delay:(Time.sec 5.));
  if t.rx_mode <> Intr then begin
    let queues = max 1 cfg.rx_queues in
    (* [rx_frames] (the overload detector's offered-load numerator) is
       counted in the steer callback: under queued RX the NIC DMAs frames
       straight into its rings and the kernel's dispatch handler never
       sees them. *)
    let steer pkt =
      t.stats.rx_frames <- t.stats.rx_frames + 1;
      if queues = 1 then 0 else rss_steer pkt ~queues
    in
    t.napi <-
      Array.init queues (fun qi ->
          let cap = max 1 (min cfg.napi_budget cfg.rx_ring) in
          { nq = qi; poll_on = false; episode = 0; in_ksoftirqd = false;
            ksoftirqd_wq = Proc.waitq "ksoftirqd";
            ksoftirqd = None; b_pkts = Array.make cap Packet.null;
            b_mhs = Array.make cap Mbuf.no_handle; b_len = 0; served = 0;
            nf = [| 0.; neg_infinity |];
            train = Array.make gro_max_segs Packet.null; train_len = 0;
            train_udp = false; train_next_seq = 0 });
    Nic.configure_rx_queues nic ~queues ~ring:cfg.rx_ring
      ~coalesce_pkts:cfg.coalesce_pkts ~coalesce_us:cfg.coalesce_us ~steer
      ~kick:(fun qi -> napi_kick t qi);
    Array.iter
      (fun n ->
        let p =
          Cpu.spawn cpu ~name:(Printf.sprintf "%s.ksoftirqd/%d" name n.nq)
            (fun _self -> ksoftirqd_loop t n)
        in
        n.ksoftirqd <- Some p)
      t.napi
  end;
  if t.proto = Lazy && cfg.udp_helper then begin
    let p =
      Cpu.spawn cpu ~nice:20 ~name:(name ^ ".udp-helper") (fun _self ->
          helper_loop t)
    in
    t.helper_proc <- Some p
  end;
  if t.proto = Lazy && cfg.forwarding then begin
    let p =
      Cpu.spawn cpu ~nice:cfg.fwd_nice ~name:(name ^ ".ipfwdd") (fun _self ->
          fwd_daemon_loop t)
    in
    t.fwd_proc <- Some p
  end;
  t

(* Allocate an ephemeral port. *)
let fresh_port t =
  let rec try_port () =
    t.eph_port <- (if t.eph_port >= 65_000 then 20_000 else t.eph_port + 1);
    if Hashtbl.mem t.udp_ports t.eph_port
       || Hashtbl.mem t.tcp_listeners t.eph_port
       || Hashtbl.mem t.mcast_members t.eph_port
    then try_port ()
    else t.eph_port
  in
  try_port ()


(* [add_interface t fabric ~ip ~masklen] attaches an additional interface
   (multi-homed gateway).  The same receive architecture runs on every
   interface. *)
let add_interface t fabric ~ip ?(masklen = 24) () =
  let nic =
    Fabric.make_nic fabric ~name:(Printf.sprintf "%s.nic%d" t.kname
                                    (List.length t.interfaces)) ~ip ()
  in
  Nic.set_rx_handler nic (fun pkt -> rx_dispatch t pkt);
  Nic.set_tracer nic t.tracer;
  t.interfaces <- t.interfaces @ [ (ip, masklen, nic) ];
  nic
