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
module Itab = Lrp_det.Itab

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
   shared IP queue, poll ring and socket queue otherwise) and who pays
   for receive buffers (nobody under [Lazy]: its NI channels' rows are
   uncharged; the mbuf pool under [Eager]). *)
let axes = function
  | Bsd -> (Softirq, Eager, Intr)
  | Soft_lrp -> (Hardirq, Lazy, Intr)
  | Ni_lrp -> (Nic, Lazy, Intr)
  | Early_demux -> (Hardirq, Eager, Intr)
  | Napi | Rss -> (Softirq, Eager, Poll)
  | Napi_gro -> (Softirq, Eager, Poll_gro)

let is_lrp arch = match axes arch with _, Lazy, _ -> true | _, Eager, _ -> false

(* The paper's testbed constants no scenario varies. *)
let mtu = 9180                          (* ATM AAL5 *)
let ip_queue_limit = 50                 (* BSD shared IP queue, packets *)
let mbuf_capacity = 4096
let initial_rto = Lrp_engine.Time.sec 1.5
let max_syn_retries = 4
let rx_ring = 256                       (* slots per NAPI receive ring *)
let frag_limit = 64                     (* LRP fragment channel, packets *)
let icmp_limit = 32                     (* LRP proxy-daemon channel *)
let fwd_limit = 64                      (* LRP forwarding channel *)

type config = {
  arch : arch;
  costs : Cost.t;
  channel_limit : int;        (* LRP per-channel queue, packets *)
  mss : int;
  time_wait : float;
  udp_helper : bool;          (* LRP minimal-priority protocol thread *)
  forwarding : bool;          (* act as an IP gateway (section 3.5) *)
  fair_app_accounting : bool;
      (* charge APP-thread CPU to the owning process (section 3.4); turning
         this off is the accounting ablation: the APP thread is scheduled
         and charged as an independent thread, BSD-style *)
  (* --- NAPI-family knobs (Napi / Napi_gro / Rss only) --- *)
  napi_budget : int;          (* frames per poll round before deferring to
                                 ksoftirqd; a pathologically high budget
                                 keeps all polling at softirq level and
                                 reintroduces livelock *)
  coalesce_pkts : int;        (* interrupt after this many buffered frames *)
  coalesce_us : float;        (* ... or this long after the first one *)
}

let default_config ?(costs = Cost.default) arch =
  { arch; costs; channel_limit = 32; mss = 9140;
    time_wait = Lrp_engine.Time.sec 30.;
    udp_helper = true; forwarding = false;
    fair_app_accounting = true;
    napi_budget = 64; coalesce_pkts = 8; coalesce_us = 30. }

(* A snapshot built by [stats]: the drop fields are the tracer's totals
   ({!Trace.drops}), the rest the kernel's own counters. *)
type kstats = {
  rx_frames : int;          (* frames seen by the receive path *)
  ipq_drops : int;          (* [Ip_queue]: BSD shared IP queue overflow *)
  mbuf_drops : int;         (* [Mbuf_pool] *)
  no_port_drops : int;      (* [No_port]: no endpoint after processing *)
  demux_drops : int;        (* [Demux_miss]: no endpoint at LRP demux *)
  edemux_early_drops : int; (* [Edemux_discard]: interrupt-time discards *)
  udp_delivered : int;      (* datagrams deposited for applications *)
  tcp_delivered : int;      (* TCP segments fed to their connection *)
  rx_wrong_peer : int;      (* [Wrong_peer]: connected-UDP filtering *)
  forwarded : int;          (* packets forwarded to another network *)
  fwd_drops : int;          (* [Not_forwarding] *)
  rsts_sent : int;
  csum_drops : int;         (* [Checksum]: content-checksum mismatches *)
  ipq_hwm : int;            (* deepest shared-IP-queue depth seen *)
}

(* An endpoint (section 3.1): a bound datagram socket, a multicast group,
   a listener or a connection.  The one record that links what it holds:
   the sockets it wakes, the process its protocol work is charged to
   (section 3.4), its NI channel under lazy processing, and its PCB.  A
   packet reaches it through the demux table ([chantab]), a connection
   through [eps]; one path, [release_ep], lets it go.  A connection's
   endpoint and its channel then go back to the kernel's pools, and
   [ep_gen] counts its releases: whatever holds an endpoint across a
   release (an APP-thread row, a posted job, a drain loop that yields)
   compares the generation it read before using it. *)
type ep = {
  mutable ep_port : int;
  mutable ep_conn : Tcp.conn;  (* [Tcp.null_conn] for a datagram endpoint *)
  mutable ep_group : bool;  (* a multicast group: [ep_socks] are its members *)
  mutable ep_socks : Socket.t list;
      (* a datagram endpoint's bound socket or group members; [] on a
         connection *)
  mutable ep_sock : Socket.t;
      (* a connection's or listener's socket; [Socket.none] until it has
         one (an unaccepted child) *)
  mutable ep_owner : Proc.t;  (* [Proc.none]: nobody's *)
  mutable ep_chan : Channel.t option;
  mutable ep_gen : int;
}

(* What a lookup that finds no endpoint answers; never mutated. *)
let null_ep =
  { ep_port = -1; ep_conn = Tcp.null_conn; ep_group = false; ep_socks = [];
    ep_sock = Socket.none;
    ep_owner = Proc.none; ep_chan = None; ep_gen = 0 }

(* A free list of released records: a stack grown by doubling, [blank]
   in its empty slots.  [made] counts the records made for it, so
   [made - n] of them are live. *)
type 'a pool = {
  mutable items : 'a array;
  mutable n : int;
  mutable made : int;
  blank : 'a;
}

let new_pool blank = { items = [||]; n = 0; made = 0; blank }

(* The newest spare record, or [blank]: the caller then makes one and
   counts it in [made]. *)
let pool_take p =
  if p.n = 0 then p.blank
  else begin
    let i = p.n - 1 in
    let x = p.items.(i) in
    p.items.(i) <- p.blank;
    p.n <- i;
    x
  end

let pool_give p x =
  if p.n = Array.length p.items then begin
    let items = Array.make (Int.max 8 (2 * p.n)) p.blank in
    Array.blit p.items 0 items 0 p.n;
    p.items <- items
  end;
  p.items.(p.n) <- x;
  p.n <- p.n + 1

let ep_has_chan ep = Option.is_some ep.ep_chan

(* Is [ep] still at generation [gen], and [ch] still its channel? *)
let[@inline] current ep ch gen =
  ep.ep_gen = gen
  && match ep.ep_chan with Some c -> c == ch | None -> false

(* An APP thread and its posted work, a FIFO ring of flat columns: a row
   is an endpoint whose channel to drain, or a timer expiry, with the
   generation [aq_gen] the endpoint or timer had when the row was posted
   (a drain row's timer and a timer row's endpoint are the null ones).
   A stale row is skipped.  A channel whose drain is queued names the
   owner in {!Channel.job_owner}, so it is queued at most once per APP
   thread (a connection handed to a new owner may have a drain queued on
   both). *)
type app = {
  app_owner : Proc.t;
  app_wq : Proc.waitq;
  mutable aq_ep : ep array;
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
   [napi_collect] and emptied by [napi_deliver_batch]: the frames'
   rows in delivery order, the batch's CPU cost, the frames served, and
   the held GRO train.  One poller owns the queue at a time (the softirq
   chain, or ksoftirqd once it has been handed the queue), so a batch is
   never refilled before it is delivered. *)
type napi = {
  nq : int;                              (* receive-queue index *)
  mutable poll_on : bool;
  mutable episode : int;                 (* packets served this episode *)
  mutable in_ksoftirqd : bool;
  ksoftirqd_wq : Proc.waitq;
  b_rows : Parena.handle array;          (* the batch, in delivery order *)
  mutable b_len : int;
  mutable served : int;                  (* frames dequeued this round *)
  nf : float array;                      (* [nf_cost], [nf_last_poll] *)
  train : Parena.handle array;           (* held GRO train, [gro_max_segs] *)
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
   ring instead of allocating a closure per post.  A job on a frame
   carries the frame's row in the int. *)
type jobs = {
  j_driver_rx : unit Cpu.job;      (* BSD-style driver interrupt *)
  j_demux_rx : unit Cpu.job;       (* SOFT-LRP / Early-Demux demux interrupt *)
  j_softnet : unit Cpu.job;        (* BSD softnet *)
  j_edemux_soft : unit Cpu.job;    (* Early-Demux eager protocol softint *)
  j_wake : Proc.waitq Cpu.job;     (* NI-LRP host interrupt waking a waiter *)
  j_napi_irq : unit Cpu.job;       (* NAPI mitigated interrupt; queue in the int *)
  j_napi_poll : napi Cpu.job;      (* NAPI softirq poll round: collect *)
  j_napi_deliver : napi Cpu.job;   (* ... and deliver the batch *)
  j_wake_ep : ep Cpu.job;
      (* NI-LRP host interrupt waking a datagram endpoint's receivers *)
  j_app_chan : ep Cpu.job;
      (* NI-LRP host interrupt posting an APP job; the endpoint's
         generation in the int *)
  j_orphan : ep Cpu.job;    (* orphaned connection's softint drain, likewise *)
  j_tcp_timer : Tcp.timer Cpu.job; (* softint timer expiry; generation in the int *)
  j_tcp_tx : unit Cpu.job;         (* softint cost of extra TCP output *)
  j_reasm : unit Cpu.job;          (* transport input of a reassembled datagram *)
  j_forward : unit Cpu.job;        (* Early-Demux eager IP forwarding *)
  (* Engine event dispatchers ({!Engine.target}): an expiry carries its
     object instead of a capturing closure. *)
  g_tcp_timer : Tcp.timer Engine.target;
  g_rcvto : (Socket.t * bool ref) Engine.target;
      (* [Api.recvfrom_timeout]: the blocked socket and the caller's
         expiry flag *)
  g_napi_grace : Proc.waitq Engine.target;  (* NAPI grace poll *)
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
  chantab : ep Chantab.t;
      (* the demux table: every endpoint by port, four-tuple or listen
         port *)
  eps : ep Itab.t;  (* connections and listeners by conn id *)
  ep_pool : ep pool;  (* released connection endpoints *)
  chan_pool : Channel.t option pool;
      (* closed connection channels, in their [Some] cells *)
  stream_shared : Socket.shared;  (* what its stream sockets share *)
  (* --- LRP state --- *)
  parena : Parena.t;
      (* the cell's frame pool, shared with the NIC and the fabric: every
         frame this kernel holds is a row here — NI channel and receive
         rings, the IP queue, CPU jobs, the eager paths' frames (each row
         charged its mbufs), the reassembler's pending datagrams and the
         socket queues' datagrams *)
  frag_chan : Channel.t;  (* non-first fragments (section 3.2) *)
  icmp_chan : Channel.t;  (* the protocol-proxy daemon's (section 3.5) *)
  fwd_chan : Channel.t;  (* the IP-forwarding daemon's (section 3.5) *)
  apps : app Itab.t;  (* owner pid -> APP thread *)
  helper_wq : Proc.waitq;
  fwd_wq : Proc.waitq;
  mutable udp_eps : ep list;
      (* bound datagram sockets with a channel, newest first: the
         helper's scan *)
  (* --- NAPI state --- *)
  mutable napi : napi array;   (* one per RX queue; [||] unless NAPI-family *)
  mutable rxj : jobs option;  (* registered by [create] *)
  (* --- shared protocol state --- *)
  reasm : Ip.Reasm.t;
  mutable tcp_env : Tcp.env option;
  mutable eph_port : int;
  (* --- counters that are not drops (drops are the tracer's totals) --- *)
  mutable rx_frames : int;
  mutable udp_delivered : int;
  mutable tcp_delivered : int;
  mutable forwarded : int;
  mutable rsts_sent : int;
  mutable ipq_hwm : int;
  (* --- observability (per-kernel: parallel sweeps never share these) --- *)
  tracer : Trace.t;
}

let name t = t.kname
let cpu t = t.cpu
let engine t = t.engine
let nic t = t.nic
let costs t = t.c

let stats t : kstats =
  let d = Trace.drops t.tracer in
  { rx_frames = t.rx_frames; ipq_drops = d Trace.Ip_queue;
    mbuf_drops = d Trace.Mbuf_pool; no_port_drops = d Trace.No_port;
    demux_drops = d Trace.Demux_miss;
    edemux_early_drops = d Trace.Edemux_discard;
    udp_delivered = t.udp_delivered; tcp_delivered = t.tcp_delivered;
    rx_wrong_peer = d Trace.Wrong_peer; forwarded = t.forwarded;
    fwd_drops = d Trace.Not_forwarding; rsts_sent = t.rsts_sent;
    csum_drops = d Trace.Checksum; ipq_hwm = t.ipq_hwm }

let ip_address t = t.ip_addr
let chantab t = t.chantab
let mbufs t = t.mbufs
(* Newest first, then the fragment, ICMP and forwarding channels. *)
let channels t =
  let open_chans =
    List.concat_map
      (fun space ->
        List.filter_map (fun ep -> ep.ep_chan) (Chantab.bindings t.chantab space))
      Chantab.[ Udp_port; Tcp_flow; Listen_port ]
  in
  List.sort (fun a b -> Int.compare (Channel.id b) (Channel.id a)) open_chans
  @ [ t.frag_chan; t.icmp_chan; t.fwd_chan ]
let now t = Engine.now t.engine

(* Is [addr] one of this host's own addresses? *)
let rec mem_addr (addr : Packet.ip) = function
  | [] -> false
  | (ip, _, _) :: rest -> ip = addr || mem_addr addr rest

let is_local_addr t addr = mem_addr addr t.interfaces

(* Neither addressed to this host nor multicast: a frame in transit. *)
let[@inline] is_transit t row =
  let dst = Parena.dst t.parena row in
  not (is_local_addr t dst) && not (Packet.is_multicast_addr dst)

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

let early_discards t = Trace.drops t.tracer Trace.Ni_channel

let tracer t = t.tracer

let tcp_env_exn t =
  match t.tcp_env with Some e -> e | None -> assert false

let jobs t = match t.rxj with Some j -> j | None -> assert false

(* Every counter, read from component state at call time.  Components
   name their own rows under the prefix they are given. *)
let counters t =
  let i name v = (name, float_of_int v) in
  let s = stats t and e = Engine.timer_stats t.engine in
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
       i "reasm.timed_out" (Trace.drops t.tracer Trace.Reasm_timeout);
       i "reasm.pending" (Ip.Reasm.pending_count t.reasm) ]
    @ List.map (fun (k, v) -> i ("tcp." ^ k) v) (Tcp.counters (tcp_env_exn t))
    @ Cpu.counters t.cpu ~prefix:"cpu"
    @ List.concat (List.mapi nic t.interfaces))

let set_tracing t on = Trace.set_enabled t.tracer on

(* ------------------------------------------------------------------ *)
(* Output path                                                          *)
(* ------------------------------------------------------------------ *)

(* Hand a datagram's row to IP output: enqueue it on the interface,
   fragmented to the MTU if it does not fit.  Pure state manipulation;
   CPU cost is charged by the caller (process context for sends;
   interrupt/APP context for protocol-generated segments). *)
let rec transmit_all nic = function
  | [] -> ()
  | f :: rest ->
      ignore (Nic.transmit_row nic f);
      transmit_all nic rest

let ip_output_row t row =
  let nic = route t (Parena.dst t.parena row) in
  if Parena.wire_bytes t.parena row <= mtu then ignore (Nic.transmit_row nic row)
  else transmit_all nic (Ip.fragment t.parena row ~mtu)

(* Per-segment transmit cost (protocol output + driver). *)
let[@inline] seg_out_cost t = t.c.Cost.tcp_out +. t.c.Cost.ip_out +. t.c.Cost.driver_tx

(* Every drop is one [Trace.drop]: recorded when tracing, and counted in
   the reason's total, which is the kernel's drop counter ([stats]). *)
let[@inline] drop t reason row arg =
  Trace.drop t.tracer ~reason ~pkt:(Parena.ident t.parena row) ~arg

(* Give a frame's mbufs back to the pool, keeping the row. *)
let uncharge t h =
  Mbuf.give t.mbufs (Parena.charge t.parena h);
  Parena.set_charge t.parena h 0

(* Release a received frame's row and give its mbufs back to the pool. *)
let free_rx_pkt t h =
  Mbuf.give t.mbufs (Parena.charge t.parena h);
  Parena.release t.parena h

(* Admit a received frame at receive-interrupt time.  An eager kernel
   charges the row its mbufs; on pool exhaustion the drop is counted and
   traced, the row released and the answer [false].  A lazy kernel's row
   stays uncharged. *)
let rx_reserve t row =
  let charge =
    match t.proto with
    | Eager -> Mbuf.mbufs_for (Parena.wire_bytes t.parena row)
    | Lazy -> 0
  in
  if Mbuf.take t.mbufs charge then begin
    Parena.set_charge t.parena row charge;
    true
  end
  else begin
    drop t Trace.Mbuf_pool row (-1);
    Parena.release t.parena row;
    false
  end

(* Receiver-side content-checksum verification.  Corrupted packets die at
   the first transport-level touch: counted, traced, and never delivered,
   never answered (no RST / ICMP reply for garbage). *)
let csum_ok t row =
  Parena.verify t.parena row || (drop t Trace.Checksum row (-1); false)

(* ------------------------------------------------------------------ *)
(* Wakeup helpers                                                       *)
(* ------------------------------------------------------------------ *)

let wake_all t wq = ignore (Cpu.wakeup_all t.cpu wq)
let wake_one t wq = ignore (Cpu.wakeup_one t.cpu wq)

(* Process-context charges.  Inlined, so a computed cost is stored
   straight into the CPU's cell: passed to a function that is not
   inlined, a float is boxed at the call. *)
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
  (Engine.deadline_cell t.engine).(0) <-
    (Engine.clock_cell t.engine).(0) +. napi_repoll;
  ignore (Engine.schedule_to_staged t.engine (jobs t).g_napi_grace n.ksoftirqd_wq)

(* The endpoint of a connection or listener: one Itab probe; [null_ep]
   when there is none. *)
let conn_ep t (conn : Tcp.conn) =
  let slot = Itab.find t.eps conn.Tcp.id in
  if slot >= 0 then Itab.value t.eps slot else null_ep

(* LRP gates the listening socket's channel on the backlog: once exceeded,
   protocol processing is disabled and further SYNs die cheaply at the NI
   channel (section 3.4). *)
let listen_gate ep =
  match ep.ep_chan with
  | Some ch ->
      if Tcp.backlog_full ep.ep_conn then Channel.disable_processing ch
      else Channel.enable_processing ch
  | None -> ()

let update_listen_gate t listener = listen_gate (conn_ep t listener)

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
    let ep = app.aq_ep.(i) and tm = app.aq_timer.(i) and gen = app.aq_gen.(i) in
    app.aq_ep.(i) <- null_ep;
    app.aq_timer.(i) <- Tcp.null_conn.Tcp.rtx_timer;
    app.aq_head <- (i + 1) land (Array.length app.aq_gen - 1);
    app.aq_len <- app.aq_len - 1;
    if ep != null_ep then begin
      (* A closed channel released its frames when it closed; a released
         endpoint may already serve another connection. *)
      match ep.ep_chan with
      | Some ch when ep.ep_gen = gen ->
          if Channel.job_owner ch = app.app_owner.Proc.pid then
            Channel.set_job_owner ch (-1);
          (* Guarded: a disabled [notef] still builds its closures. *)
          if Trace.enabled t.tracer then
            Trace.notef t.tracer "app %s: drain chan %d (len=%d)"
              app.app_owner.Proc.name (Channel.id ch) (Channel.length ch);
          drain_tcp_channel t ep ch gen
      | Some _ | None -> ()
    end
    else begin
      charge_proto t ~flow:(-1) (t.c.Cost.lazy_locality *. t.c.Cost.tcp_in);
      Tcp.timer_fired tm ~gen
    end;
    app_loop t app
  end
  else if app.app_owner.Proc.exited then
    (* The APP thread dies with its process. *)
    Itab.remove t.apps app.app_owner.Proc.pid
  else begin
    if Trace.enabled t.tracer then
      Trace.notef t.tracer "app %s: block" app.app_owner.Proc.name;
    Proc.block app.app_wq;
    app_loop t app
  end

(* Drain the channel of endpoint [ep] at generation [gen].  Each charge
   and delivery may yield the CPU, and the connection may go meanwhile:
   its channel closed, its endpoint and channel perhaps reused.  So the
   endpoint is checked after each, and the loop ends once it is not the
   one it was (a closed channel's frames were released when it closed). *)
and drain_tcp_channel t ep ch gen =
  let row = Channel.pop_row ch in
  if row <> Parena.none then begin
    charge_proto t ~flow:(Channel.id ch)
      (ni_access_cost t
       +. (t.c.Cost.lazy_locality *. (t.c.Cost.ip_in +. t.c.Cost.tcp_in)));
    if current ep ch gen then begin
      tcp_deliver t ep.ep_conn row ~ctx:`Proc;
      if current ep ch gen && Tcp.state ep.ep_conn = Tcp.Listen then
        listen_gate ep
    end;
    free_rx_pkt t row;
    if current ep ch gen then drain_tcp_channel t ep ch gen
  end

(* Deliver a (non-fragment) TCP segment's row to its connection, charging
   for any extra segments the state machine emitted beyond the one
   emission already included in [tcp_in].  The caller keeps the row. *)
and tcp_deliver t conn row ~ctx =
  if csum_ok t row then begin
    Trace.proto_deliver t.tracer ~pkt:(Parena.ident t.parena row)
      ~conn:conn.Tcp.id
      ~in_proc:(match ctx with `Proc -> true | `Soft -> false);
    let before = Tcp.segs_sent conn in
    Tcp.input conn t.parena row;
    t.tcp_delivered <- t.tcp_delivered + 1;
    let extra = Tcp.segs_sent conn - before - 1 in
    if extra > 0 then begin
      let cost = float_of_int extra *. seg_out_cost t in
      match ctx with
      | `Proc ->
          charge_proto t ~flow:(-1) (t.c.Cost.lazy_locality *. cost)
      | `Soft ->
          (Cpu.cost_cell t.cpu).(0) <- cost;
          Cpu.post_soft_job t.cpu ~tpkt:(-1) ~poll:false (jobs t).j_tcp_tx () 0
    end
  end

and app_for t (owner : Proc.t) =
  let slot = Itab.find t.apps owner.Proc.pid in
  if slot >= 0 then Itab.value t.apps slot
  else begin
    (* The rest runs once per process; its ring grows on first post. *)
    let app =
      (* alloc: cold — once per process *)
      { app_owner = owner; app_wq = Proc.waitq "app";
        aq_ep = [||]; aq_timer = [||]; aq_gen = [||]; aq_head = 0;
        aq_len = 0 }
    in
    Itab.replace t.apps owner.Proc.pid app;
    (* alloc: cold — once per process *)
    let name = "app-" ^ owner.Proc.name in
    (* alloc: cold — once per process *)
    let proc = Cpu.spawn t.cpu ~name (fun _self -> app_loop t app) in
    (* Scheduled at the owner's priority; CPU usage charged to the owner
       (paper section 3.4).  The accounting ablation skips this. *)
    if t.cfg.fair_app_accounting then Cpu.set_account proc ~owner;
    app
  end

(* Double an APP thread's ring (8 rows at first), unrolling the live rows
   to index 0. *)
let app_grow app =
  let cap = Array.length app.aq_gen in
  let unroll a fill = (* alloc: cold — amortized growth *)
    let b = Array.make (max 8 (2 * cap)) fill in (* alloc: cold — amortized growth *)
    for i = 0 to cap - 1 do
      b.(i) <- a.((app.aq_head + i) land (cap - 1))
    done;
    b
  in
  app.aq_ep <- unroll app.aq_ep null_ep;
  app.aq_timer <- unroll app.aq_timer Tcp.null_conn.Tcp.rtx_timer;
  app.aq_gen <- unroll app.aq_gen 0;
  app.aq_head <- 0

(* Queue a row on [app]'s ring and wake its thread. *)
let app_post t app ep tm gen =
  if app.aq_len = Array.length app.aq_gen then app_grow app;
  let i = (app.aq_head + app.aq_len) land (Array.length app.aq_gen - 1) in
  app.aq_ep.(i) <- ep;
  app.aq_timer.(i) <- tm;
  app.aq_gen.(i) <- gen;
  app.aq_len <- app.aq_len + 1;
  wake_one t app.app_wq

(* Orphaned connections (the owning process exited with the connection
   still draining — a normal close-behind-exit) have no APP thread left, so
   their protocol processing falls back to software-interrupt level, as in
   the paper's prototype where a kernel process owns TCP processing. *)
let orphan_post t ep =
  (Cpu.cost_cell t.cpu).(0) <-
    t.c.Cost.soft_dispatch
    +. (t.c.Cost.eager_penalty *. (t.c.Cost.ip_in +. t.c.Cost.tcp_in));
  Cpu.post_soft_job t.cpu ~tpkt:(-1) ~poll:false (jobs t).j_orphan ep
    ep.ep_gen

(* The job carries the endpoint's generation at posting. *)
let orphan_drain t ep gen =
  match ep.ep_chan with
  | Some ch when ep.ep_gen = gen ->
      let row = Channel.pop_row ch in
      if row <> Parena.none then begin
        tcp_deliver t ep.ep_conn row ~ctx:`Soft;
        free_rx_pkt t row;
        if current ep ch gen && not (Channel.is_empty ch) then orphan_post t ep
      end
  | Some _ | None -> ()

(* Post a drain of the endpoint's channel [ch]. *)
let app_post_chan t ep ch =
  match ep.ep_owner with
  | owner when owner != Proc.none && not owner.Proc.exited ->
      let app = app_for t owner in
      if Channel.job_owner ch = owner.Proc.pid then wake_one t app.app_wq
      else begin
        Channel.set_job_owner ch owner.Proc.pid;
        if Trace.enabled t.tracer then
          Trace.notef t.tracer "post chan %d job for %s" (Channel.id ch)
            owner.Proc.name;
        app_post t app ep Tcp.null_conn.Tcp.rtx_timer ep.ep_gen
      end
  | _ -> orphan_post t ep

let app_post_timer t conn tm gen =
  match (conn_ep t conn).ep_owner with
  | owner when owner != Proc.none && not owner.Proc.exited ->
      app_post t (app_for t owner) null_ep tm gen
  | _ ->
      (* Orphaned connection (e.g. TIME_WAIT after exit): fall back to
         software-interrupt context so it still makes progress. *)
      (Cpu.cost_cell t.cpu).(0) <- t.c.Cost.soft_dispatch +. t.c.Cost.tcp_in;
      Cpu.post_soft_job t.cpu ~tpkt:(-1) ~poll:false
        (jobs t).j_tcp_timer tm gen

(* ------------------------------------------------------------------ *)
(* Endpoints: open, close, hand over                                    *)
(* ------------------------------------------------------------------ *)

(* A connection's channel: a spare one reopened, kept in its [Some] cell
   so reopening allocates nothing, or a new one.  Either way it draws
   the next channel id. *)
let open_chan t =
  let cell = pool_take t.chan_pool in
  match cell with
  | Some ch ->
      Channel.reopen ch;
      cell
  | None ->
      t.chan_pool.made <- t.chan_pool.made + 1;
      Some (Channel.create ~limit:t.cfg.channel_limit ())

(* A new endpoint, entered in the demux table.  A connection's comes from
   the pool; a datagram socket's or group's is made (the helper walks
   [udp_eps] across yields, so it keeps no generation to check).  Only
   lazy kernels receive into NI channels: there it gets its own. *)
let open_ep ?(group = false) t ~port ~conn ~socks ~owner =
  let ep =
    let spare = if conn == Tcp.null_conn then null_ep else pool_take t.ep_pool in
    if spare == null_ep then begin
      if conn != Tcp.null_conn then t.ep_pool.made <- t.ep_pool.made + 1;
      { ep_port = port; ep_conn = conn; ep_group = group; ep_socks = socks;
        ep_sock = Socket.none; ep_owner = owner; ep_chan = None; ep_gen = 0 }
    end
    else begin
      (* Released holding nothing: no socket, owner or channel. *)
      spare.ep_port <- port;
      spare.ep_conn <- conn;
      spare.ep_owner <- owner;
      spare
    end
  in
  if t.proto = Lazy then
    ep.ep_chan <-
      (if conn == Tcp.null_conn then
         Some (Channel.create ~limit:t.cfg.channel_limit ())
       else open_chan t);
  (if conn == Tcp.null_conn then Chantab.add_udp t.chantab ~port ep
   else if conn.Tcp.rport < 0 then Chantab.add_listen t.chantab ~port ep
   else
     Chantab.add_tcp t.chantab ~src:conn.Tcp.rip ~src_port:conn.Tcp.rport
       ~dst_port:port ep);
  ep

(* A frame a socket could not queue ([Sock_buf]), or still held when it
   closed ([Sock_close]): counted per socket too. *)
let sockq_drop t (sock : Socket.t) reason ident =
  let st = sock.Socket.stats in
  st.Socket.rx_sockq_drops <- st.Socket.rx_sockq_drops + 1;
  Trace.drop t.tracer ~reason ~pkt:ident ~arg:sock.Socket.id

let rec drop_queued t ch sock =
  let row = Channel.pop_row ch in
  if row <> Parena.none then begin
    sockq_drop t sock Trace.Sock_close (Parena.ident t.parena row);
    free_rx_pkt t row;
    drop_queued t ch sock
  end

let rec discard_queued t ch =
  let row = Channel.pop_row ch in
  if row <> Parena.none then begin
    free_rx_pkt t row;
    discard_queued t ch
  end

(* Close the endpoint's channel: the frames still queued on it are
   dropped at a datagram endpoint's (last) socket and discarded for a
   connection (an APP or orphan drain still queued for it finds it
   closed), and its ledger row is folded into the aggregate.  A
   connection's channel goes back to the pool. *)
let close_chan t ep =
  match ep.ep_chan with
  | Some ch as cell ->
      ep.ep_chan <- None;
      (match ep.ep_socks with
       | s :: _ when ep.ep_conn == Tcp.null_conn -> drop_queued t ch s
       | _ -> discard_queued t ch);
      Ledger.retire_flow (Cpu.ledger t.cpu) ~flow:(Channel.id ch);
      if ep.ep_conn != Tcp.null_conn then pool_give t.chan_pool cell
  | None -> ()

(* Release everything an endpoint holds: its demux-table entry (a
   four-tuple only while it still maps to this endpoint), its entry in
   [eps] and its channel.  Its generation moves on, and a connection's
   endpoint goes back to the pool holding nothing. *)
let release_ep t ep =
  let conn = ep.ep_conn and port = ep.ep_port in
  (if conn == Tcp.null_conn then begin
     Chantab.remove_udp t.chantab ~port;
     t.udp_eps <- List.filter (fun e -> e != ep) t.udp_eps
   end
   else begin
     (if conn.Tcp.rport < 0 then Chantab.remove_listen t.chantab ~port
      else
        Chantab.remove_tcp t.chantab ~src:conn.Tcp.rip
          ~src_port:conn.Tcp.rport ~dst_port:port ep);
     Itab.remove t.eps conn.Tcp.id
   end);
  close_chan t ep;
  ep.ep_gen <- ep.ep_gen + 1;
  if conn != Tcp.null_conn then begin
    ep.ep_conn <- Tcp.null_conn;
    ep.ep_sock <- Socket.none;
    ep.ep_owner <- Proc.none;
    pool_give t.ep_pool ep
  end

(* A connection's or listener's endpoint: its demux-table entry, its
   entry in [eps], its channel. *)
let register t conn ~owner =
  if Itab.mem t.eps conn.Tcp.id then
    invalid_arg "Kernel.register: duplicate connection id";
  let ep = open_ep t ~port:conn.Tcp.local_port ~conn ~socks:[] ~owner in
  Itab.replace t.eps conn.Tcp.id ep

let bind t (sock : Socket.t) ~owner ~port =
  if Chantab.find_udp t.chantab ~port != null_ep then
    invalid_arg "Kernel.bind: port in use";
  sock.Socket.port <- port;
  let ep =
    open_ep t ~port ~conn:Tcp.null_conn ~socks:[ sock ]
      ~owner:(Option.value owner ~default:Proc.none)
  in
  if Option.is_some ep.ep_chan then t.udp_eps <- ep :: t.udp_eps;
  sock.Socket.chan <- ep.ep_chan

(* The first member opens the group's endpoint; every member reads raw
   packets from its one channel (section 3.1). *)
let join_group t (sock : Socket.t) ~owner ~port =
  let ep =
    let ep = Chantab.find_udp t.chantab ~port in
    if ep == null_ep then
      open_ep ~group:true t ~port ~conn:Tcp.null_conn ~socks:[]
        ~owner:(Option.value owner ~default:Proc.none)
    else if ep.ep_group then ep
    else invalid_arg "Kernel.join_group: port bound by a unicast socket"
  in
  sock.Socket.port <- port;
  ep.ep_socks <- sock :: ep.ep_socks;
  sock.Socket.chan <- ep.ep_chan

(* The group's channel stays until its last member leaves. *)
let leave_group t (sock : Socket.t) ~port =
  let ep = Chantab.find_udp t.chantab ~port in
  if ep.ep_group then begin
    (match List.filter (fun s -> s.Socket.id <> sock.Socket.id) ep.ep_socks with
     | [] ->
         release_ep t ep;
         ep.ep_socks <- []
     | rest -> ep.ep_socks <- rest);
    sock.Socket.chan <- None
  end

(* Close a datagram socket: leave its group or release its endpoint, and
   free the datagrams left on its queue.  Every frame the socket still
   held counts once, as a socket-queue drop. *)
let close_dgram t (sock : Socket.t) =
  (let port = sock.Socket.port in
   if port >= 0 then begin
     let ep = Chantab.find_udp t.chantab ~port in
     if ep.ep_group then leave_group t sock ~port
     else if List.memq sock ep.ep_socks then release_ep t ep
   end);
  sock.Socket.chan <- None;
  let q = sock.Socket.udp_rcv in
  Queue.iter
    (fun row ->
      sockq_drop t sock Trace.Sock_close (Parena.ident t.parena row);
      free_rx_pkt t row)
    q;
  Queue.clear q

(* [sock] takes [conn]: it mirrors the connection's local port, the
   connection's events wake it, and [owner] is charged for its protocol
   work — at accept, and again when the socket changes hands.  Only what
   changed is written, so a hand-over stores the owner alone. *)
let attach t (sock : Socket.t) (conn : Tcp.conn) ~owner =
  sock.Socket.port <- conn.Tcp.local_port;
  if sock.Socket.tcp != conn then sock.Socket.tcp <- conn;
  sock.Socket.tcp_id <- conn.Tcp.id;
  (* A child with a socket is its listener's no more: only an unaccepted
     child reads [parent], so none points at a recycled listener. *)
  if conn.Tcp.parent != Tcp.null_conn then conn.Tcp.parent <- Tcp.null_conn;
  let ep = conn_ep t conn in
  if ep != null_ep then begin
    if ep.ep_sock != sock then ep.ep_sock <- sock;
    ep.ep_owner <- owner
  end

(* Open the endpoint of a listener or an actively opened connection. *)
let open_conn t sock (conn : Tcp.conn) ~owner =
  if conn.Tcp.rport < 0
     && Chantab.find_listen t.chantab ~port:conn.Tcp.local_port != null_ep
  then invalid_arg "Kernel.open_conn: port in use";
  register t conn ~owner;
  attach t sock conn ~owner

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
      Cpu.post_soft_job t.cpu ~tpkt:(-1) ~poll:false
        (jobs t).j_tcp_timer tm gen
  | Lazy -> app_post_timer t (Tcp.timer_conn tm) tm gen

let recv_timeout_target t = (jobs t).g_rcvto

(* Wake the chosen waiters of a connection's socket, if it has one. *)
let wake_sock ?(send = false) ?(recv = false) ?(accept = false) t
    (s : Socket.t) =
  if s != Socket.none then begin
    if send then wake_all t s.Socket.send_wait;
    if recv then wake_all t s.Socket.recv_wait;
    if accept then wake_all t s.Socket.accept_wait
  end

let wake_ep ?send ?recv ?accept t ep =
  wake_sock ?send ?recv ?accept t ep.ep_sock

(* Closing a listener aborts the connections it has not handed to a
   socket — the embryonic ones and those waiting on its accept queue —
   as 4.4BSD's [soclose] aborts [so_q0] and [so_q]: each sends an RST
   and, through [on_closed], releases its endpoint and goes back to the
   pool.  A queued child that was already closed (reset) was held by the
   queue alone: it goes back to the pool here. *)
let abort_unaccepted t (l : Tcp.conn) =
  let orphans =
    Lrp_det.Det.fold_sorted_int
      (fun _ ep acc ->
        if ep.ep_sock == Socket.none && ep.ep_conn.Tcp.parent == l then
          ep.ep_conn :: acc
        else acc)
      t.eps []
  in
  let rec unqueue () =
    let c = Tcp.accept_pop l in
    if c != Tcp.null_conn then begin
      if Tcp.state c = Tcp.Closed then Tcp.recycle c;
      unqueue ()
    end
  in
  unqueue ();
  List.iter Tcp.abort (List.rev orphans)

(* A connection TCP is done with goes back to the pool unless something
   still holds it: an open socket ([sock], read before its endpoint was
   released), or its listener's accept queue.  [close_stream] and
   [abort_unaccepted] recycle what those let go later. *)
let recycle_unheld (conn : Tcp.conn) (sock : Socket.t) =
  if sock == Socket.none then begin
    if conn.Tcp.link == Tcp.null_conn then Tcp.recycle conn
  end
  else if sock.Socket.closed then Tcp.recycle conn

(* A closed stream socket lets its connection go: back to the pool now
   if TCP is already done with it, else when [on_closed] runs. *)
let close_stream (sock : Socket.t) =
  let c = Socket.conn sock in
  if c != Tcp.null_conn && Tcp.state c = Tcp.Closed then Tcp.recycle c

let make_tcp_env t =
  { Tcp.clock = Engine.clock_cell t.engine;
    deadline = Engine.deadline_cell t.engine;
    pool = t.parena;
    emit = ip_output_row t;
    start_timer =
      (fun tm ->
        tm.Tcp.cookie <-
          Engine.schedule_to_staged t.engine (jobs t).g_tcp_timer tm);
    stop_timer = (fun tm -> Engine.cancel t.engine tm.Tcp.cookie);
    on_readable = (fun conn -> wake_ep t (conn_ep t conn) ~recv:true);
    on_writable = (fun conn -> wake_ep t (conn_ep t conn) ~send:true);
    on_established =
      (fun conn -> wake_ep t (conn_ep t conn) ~send:true ~recv:true);
    on_accept_ready = (fun l _child -> wake_ep t (conn_ep t l) ~accept:true);
    on_syn_received =
      (fun listener child ->
        register t child ~owner:(conn_ep t listener).ep_owner);
    on_connect_failed =
      (fun conn -> wake_ep t (conn_ep t conn) ~send:true ~recv:true);
    on_reset =
      (fun conn -> wake_ep t (conn_ep t conn) ~send:true ~recv:true ~accept:true);
    on_time_wait =
      (fun conn ->
        (* Channels that live on the NI are deallocated on entry to
           TIME_WAIT so that NI channel slots scale to busy servers
           (section 4.2). *)
        match t.demux with
        | Nic -> close_chan t (conn_ep t conn)
        | Softirq | Hardirq -> ());
    on_closed =
      (fun conn ->
        let ep = conn_ep t conn in
        let sock = ep.ep_sock in
        if ep != null_ep then release_ep t ep;
        if conn.Tcp.rport < 0 then abort_unaccepted t conn;
        wake_sock t sock ~send:true ~recv:true;
        if ep != null_ep then recycle_unheld conn sock);
    mss = t.cfg.mss;
    time_wait_duration = t.cfg.time_wait;
    initial_rto;
    max_syn_retries;
    totals = Tcp.new_totals ();
    rows = Tcp.new_rows ();
    spare = Tcp.new_spare () }

(* ------------------------------------------------------------------ *)
(* Shared delivery helpers                                              *)
(* ------------------------------------------------------------------ *)

(* Connected-UDP semantics: a socket with a default peer only accepts
   datagrams from that peer. *)
let peer_accepts t (sock : Socket.t) row sport =
  match sock.Socket.remote with
  | Some (ip, port) when ip <> Parena.src t.parena row || port <> sport ->
      drop t Trace.Wrong_peer row sock.Socket.id;
      false
  | Some _ | None -> true

(* Deposit a processed datagram's row on its socket queue and wake a
   receiver; overflow (the BSD drop point) releases the row instead. *)
let deposit t (sock : Socket.t) ~row =
  let ident = Parena.ident t.parena row in
  if Socket.has_room sock then begin
    Socket.deposit_udp sock row;
    Trace.sock_enqueue t.tracer ~pkt:ident ~sock:sock.Socket.id;
    t.udp_delivered <- t.udp_delivered + 1;
    wake_one t sock.Socket.recv_wait
  end
  else begin
    sockq_drop t sock Trace.Sock_buf ident;
    free_rx_pkt t row
  end

(* One copy of a multicast datagram per member socket (section 3.1), each
   in its own row, so each receiver's copyout releases exactly one; under
   the mbuf-based kernels each row is charged a duplicate chain. *)
let rec deposit_members t row sport = function
  | [] -> ()
  | sock :: rest ->
      if peer_accepts t sock row sport then begin
        let copy = Parena.copy t.parena row ~into:t.parena in
        if rx_reserve t copy then deposit t sock ~row:copy
      end;
      deposit_members t row sport rest

(* Transport delivery of a whole datagram held in [row]: the row goes to
   the socket queue, or is released here. *)
let deliver_udp_ready t ~row =
  let p = t.parena in
  if not (csum_ok t row) then free_rx_pkt t row
  else
  match Parena.proto p row with
  | Parena.Udp ->
      let sport = Parena.sport p row and dport = Parena.dport p row in
      if Packet.is_multicast_addr (Parena.dst p row) then begin
        (* The original chain is given back; members get duplicates. *)
        uncharge t row;
        (match Chantab.find_udp t.chantab ~port:dport with
         | { ep_group = true; ep_socks; _ } ->
             deposit_members t row sport ep_socks
         | _ -> drop t Trace.No_port row dport);
        Parena.release p row
      end
      else
        (match Chantab.find_udp t.chantab ~port:dport with
         | { ep_group = false; ep_socks = sock :: _; _ } ->
             if peer_accepts t sock row sport then deposit t sock ~row
             else free_rx_pkt t row
         | _ ->
             drop t Trace.No_port row dport;
             free_rx_pkt t row)
  | Parena.Tcp | Parena.Icmp -> free_rx_pkt t row

(* An echo request's reply; the caller keeps the request's row. *)
let icmp_reply t row =
  if csum_ok t row && Parena.is_echo_request t.parena row then
    ip_output_row t
      (Parena.icmp t.parena ~src:t.ip_addr ~dst:(Parena.src t.parena row)
         Packet.Echo_reply (Parena.payload t.parena row))

(* The eager PCB lookup, ports straight off the row: the connection's own
   entry, else the port's listener; [Tcp.null_conn] when there is none. *)
let pcb_lookup t row =
  let p = t.parena in
  (Chantab.find_tcp t.chantab ~src:(Parena.src p row)
     ~src_port:(Parena.sport p row) ~dst_port:(Parena.dport p row)).ep_conn

(* Hand a segment to its endpoint; [false] when none matches.  The caller
   keeps the row. *)
let deliver_tcp t row ~ctx =
  match Parena.proto t.parena row with
  | Parena.Tcp ->
      let conn = pcb_lookup t row in
      conn != Tcp.null_conn && (tcp_deliver t conn row ~ctx; true)
  | Parena.Udp | Parena.Icmp -> false

(* Transport-level processing of a complete (reassembled) datagram; runs in
   softint context under BSD / Early-Demux. *)
let bsd_transport_input t ~row =
  match Parena.proto t.parena row with
  | Parena.Udp ->
      Trace.proto_deliver t.tracer ~pkt:(Parena.ident t.parena row) ~conn:(-1)
        ~in_proc:false;
      deliver_udp_ready t ~row
  | Parena.Tcp ->
      (* No endpoint: answer with a RST, unless the segment is garbage. *)
      if (not (deliver_tcp t row ~ctx:`Soft)) && csum_ok t row then begin
        t.rsts_sent <- t.rsts_sent + 1;
        Tcp.send_rst_for t.parena row ~emit:(tcp_env_exn t).Tcp.emit
      end;
      free_rx_pkt t row
  | Parena.Icmp ->
      icmp_reply t row;
      free_rx_pkt t row

(* Cost of eager transport processing for a complete datagram. *)
let[@inline] transport_cost t row ~skip_pcb =
  let pcb = if skip_pcb then 0. else t.c.Cost.pcb_lookup in
  let base =
    match Parena.proto t.parena row with
    | Parena.Udp -> t.c.Cost.udp_in +. pcb
    | Parena.Tcp -> t.c.Cost.tcp_in +. pcb
    | Parena.Icmp -> t.c.Cost.udp_in
  in
  t.c.Cost.eager_penalty *. base

(* ------------------------------------------------------------------ *)
(* BSD receive path                                                     *)
(* ------------------------------------------------------------------ *)

(* The cost of one eager IP-input softint: dispatch, [ipq] for the
   shared IP queue's churn (0. where demux came first and there is no
   queue), then forwarding, or IP input, reassembly, transport and the
   socket-buffer append.  Inlined (as is [transport_cost]) so the
   per-packet float result is not boxed on its way into the CPU's cost
   cell. *)
let[@inline] eager_soft_cost t row ~ipq ~skip_pcb =
  if is_transit t row then
    (* Transit packet: IP forwarding (or discard) in softint context. *)
    t.c.Cost.soft_dispatch +. ipq
    +. (t.c.Cost.eager_penalty *. (t.c.Cost.ip_in +. t.c.Cost.ip_forward))
  else
  let frag = Parena.is_fragment t.parena row in
  let frag_extra =
    if frag then t.c.Cost.eager_penalty *. t.c.Cost.reasm_per_frag else 0.
  in
  let transport = if frag then 0. else transport_cost t row ~skip_pcb in
  t.c.Cost.soft_dispatch +. ipq
  +. (t.c.Cost.eager_penalty *. t.c.Cost.ip_in)
  +. frag_extra +. transport +. t.c.Cost.sockbuf_append

(* Transport processing of a datagram whose reassembly completed while a
   fragment was being processed: a separate softint activation, carrying
   the datagram's row. *)
let post_reasm_complete t ~row ~skip_pcb =
  (Cpu.cost_cell t.cpu).(0) <- transport_cost t row ~skip_pcb;
  Cpu.post_soft_job t.cpu ~tpkt:(Parena.ident t.parena row) ~poll:false
    (jobs t).j_reasm () row

(* A fragment in softint context goes through the reassembler; an
   incomplete datagram's fragments wait there, folded into one row. *)
let ip_input_frag t ~row ~skip_pcb =
  let whole = Ip.Reasm.insert t.reasm ~now:(now t) row in
  if whole <> Parena.none then post_reasm_complete t ~row:whole ~skip_pcb

(* IP input of a local datagram in softint context: straight to transport
   processing, or through the reassembler for fragments. *)
let ip_input_local t ~row ~skip_pcb =
  if Parena.is_fragment t.parena row then ip_input_frag t ~row ~skip_pcb
  else bsd_transport_input t ~row

(* Softint-context IP input of a received frame, run by BSD's softnet
   and by the NAPI poll loop: forward (or drop) a transit frame, process
   a local one.  A forwarded frame keeps its row, its mbufs given
   back. *)
let forward t row =
  t.forwarded <- t.forwarded + 1;
  ip_output_row t row

let ip_input t ~row =
  if is_transit t row then begin
    if t.cfg.forwarding then begin
      uncharge t row;
      forward t row
    end
    else begin
      drop t Trace.Not_forwarding row (-1);
      free_rx_pkt t row
    end
  end
  else ip_input_local t ~row ~skip_pcb:false

let bsd_driver_rx t row =
  if not (rx_reserve t row) then ()
  else if t.ipq_len >= ip_queue_limit then begin
    (* The shared IP queue is full: the drop point that couples unrelated
       sockets under BSD (section 2.2). *)
    drop t Trace.Ip_queue row t.ipq_len;
    free_rx_pkt t row
  end
  else begin
    t.ipq_len <- t.ipq_len + 1;
    if t.ipq_len > t.ipq_hwm then t.ipq_hwm <- t.ipq_len;
    let ident = Parena.ident t.parena row in
    Trace.ipq_enqueue t.tracer ~pkt:ident ~qlen:t.ipq_len;
    (Cpu.cost_cell t.cpu).(0) <-
      eager_soft_cost t row ~ipq:t.c.Cost.ipq_op ~skip_pcb:false;
    Cpu.post_soft_job t.cpu ~tpkt:ident ~poll:false (jobs t).j_softnet () row
  end

(* ------------------------------------------------------------------ *)
(* NAPI receive path (Napi / Napi_gro / Rss)                            *)
(* ------------------------------------------------------------------ *)

(* RSS steering: hash the packed flow key — the same [hi]/[lo] integer
   packing the Chantab demux probe uses, so steering allocates nothing
   and performs no structural hashing — onto a queue index.  A pure
   function of the frame's fields, so queue placement is seed-stable and
   shard-count independent.  Fragments (including the first) steer by IP
   ident so every piece of one datagram lands on the same ring. *)
let rss_steer p row ~queues =
  let frag = Parena.is_fragment p row in
  let ported = (not frag) && Parena.proto p row <> Parena.Icmp in
  let sp =
    if frag then Parena.ident p row land 0xffff
    else if ported then Parena.sport p row
    else 0
  in
  let dp = if ported then Parena.dport p row else 0 in
  let hi = (Parena.src p row lsl 2) lxor Parena.dst p row in
  let lo = (sp lsl 16) lor (dp land 0xffff) in
  let h = hi lxor (lo * 0x9E37_79B1) in
  let h = h lxor (h lsr 16) in
  (h land max_int) mod queues

(* Protocol-processing cost of one polled packet: the BSD softint work
   minus the parts the poll loop does not repeat per packet (softirq
   dispatch, shared-IP-queue churn).  The per-packet ring dequeue is
   charged separately ([poll_dequeue]). *)
let[@inline] napi_proto_cost t row =
  eager_soft_cost t row ~ipq:t.c.Cost.ipq_op ~skip_pcb:false
  -. t.c.Cost.soft_dispatch -. t.c.Cost.ipq_op

(* GRO merges only what aggregation cannot change for the shared protocol
   code: local unicast, checksum already verified (GRO runs after
   hardware checksum validation), not a fragment.  TCP segments must
   also carry data and no connection-state flags. *)
let gro_candidate t row =
  let p = t.parena in
  (not (Parena.is_fragment p row))
  && (not (Packet.is_multicast_addr (Parena.dst p row)))
  && is_local_addr t (Parena.dst p row)
  && Parena.verify p row

let tcp_mergeable t row =
  gro_candidate t row
  && Parena.proto t.parena row = Parena.Tcp
  && Parena.payload_len t.parena row > 0
  && Parena.flags t.parena row land (Packet.syn lor Packet.fin lor Packet.rst)
     = 0

let udp_mergeable t row =
  gro_candidate t row && Parena.proto t.parena row = Parena.Udp

(* Same addresses, protocol and ports; asked of mergeable rows only. *)
let same_flow p a b =
  Parena.src p a = Parena.src p b
  && Parena.dst p a = Parena.dst p b
  && Parena.proto p a = Parena.proto p b
  && Parena.sport p a = Parena.sport p b
  && Parena.dport p a = Parena.dport p b

(* Append an admitted frame's row to the batch.  A round yields at most
   one batch entry per frame served, and serves at most [napi_budget]
   frames from a ring of [rx_ring] slots that nothing refills while it is
   being drained, so [min budget ring] rows always suffice. *)
let batch_add n row =
  n.b_rows.(n.b_len) <- row;
  n.b_len <- n.b_len + 1

(* Admit one frame the BSD way: charge its row its mbufs (drop on pool
   exhaustion) and charge full eager protocol processing. *)
let napi_admit t n row =
  if rx_reserve t row then begin
    n.nf.(nf_cost) <- n.nf.(nf_cost) +. napi_proto_cost t row;
    batch_add n row
  end

(* Merge the held TCP train into one super-segment in the head's row:
   head's ident and seq, last segment's ack/window (and PSH), payloads
   glued, content checksum resealed so the merged segment still
   verifies.  The merged segment enters protocol processing once,
   charged for its own footprint; the other rows are released. *)
let gro_merge_tcp t n =
  let p = t.parena and len = n.train_len in
  let head = n.train.(0) in
  Parena.tcp_merge p n.train len;
  for i = 1 to len - 1 do
    Parena.release p n.train.(i)
  done;
  if rx_reserve t head then begin
    n.nf.(nf_cost) <-
      n.nf.(nf_cost) +. napi_proto_cost t head
      +. (float_of_int (len - 1) *. t.c.Cost.gro_merge);
    batch_add n head
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
    let hid = Parena.ident t.parena n.train.(0) in
    for i = 1 to len - 1 do
      Trace.gro_merge t.tracer ~pkt:(Parena.ident t.parena n.train.(i))
        ~into:hid
    done;
    if n.train_udp then begin
      napi_admit t n n.train.(0);
      for i = 1 to len - 1 do
        let row = n.train.(i) in
        if rx_reserve t row then begin
          n.nf.(nf_cost) <-
            n.nf.(nf_cost) +. t.c.Cost.gro_merge +. t.c.Cost.sockbuf_append;
          batch_add n row
        end
      done
    end
    else gro_merge_tcp t n;
    Trace.gro_flush t.tracer ~pkt:hid ~segs:len
  end;
  n.train_len <- 0

(* Append to the held train (starting one if none is held). *)
let gro_push t n row ~udp =
  if n.train_len = 0 then n.train_udp <- udp;
  n.train.(n.train_len) <- row;
  n.train_len <- n.train_len + 1;
  let p = t.parena in
  match Parena.proto p row with
  | Parena.Tcp ->
      n.train_next_seq <- Parena.seq p row + Parena.payload_len p row;
      (* PSH marks an application-visible boundary: merge, then flush, as
         Linux GRO does. *)
      if Parena.flags p row land Packet.psh <> 0 || n.train_len >= gro_max_segs
      then gro_flush t n
  | Parena.Udp | Parena.Icmp ->
      if n.train_len >= gro_max_segs then gro_flush t n

(* Receive-offload aggregation of one dequeued frame: extend the held
   train, or flush it and start over. *)
let rec gro_consider t n row =
  if n.train_len = 0 then begin
    if tcp_mergeable t row then gro_push t n row ~udp:false
    else if udp_mergeable t row then gro_push t n row ~udp:true
    else napi_admit t n row
  end
  else if
    if n.train_udp then udp_mergeable t row && same_flow t.parena n.train.(0) row
    else
      tcp_mergeable t row
      && same_flow t.parena n.train.(0) row
      && Parena.seq t.parena row = n.train_next_seq
  then gro_push t n row ~udp:n.train_udp
  else begin
    gro_flush t n;
    gro_consider t n row
  end

let rec napi_pull t n ~gro =
  if n.served < t.cfg.napi_budget then begin
    let row = Nic.rxq_pop t.nic n.nq in
    if row <> Parena.none then begin
      n.served <- n.served + 1;
      n.nf.(nf_cost) <- n.nf.(nf_cost) +. t.c.Cost.poll_dequeue;
      if gro then gro_consider t n row else napi_admit t n row;
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
    ip_input t ~row:n.b_rows.(i)
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
  Cpu.post_soft_job t.cpu ~tpkt:(-1) ~poll:true (jobs t).j_napi_poll n 0

let napi_softirq_round t n =
  Trace.poll_begin t.tracer ~q:n.nq ~pending:(Nic.rxq_len t.nic n.nq);
  napi_collect t n;
  (Cpu.cost_cell t.cpu).(0) <- n.nf.(nf_cost);
  Cpu.post_soft_job t.cpu ~tpkt:(-1) ~poll:true
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
  Cpu.post_hard_job t.cpu ~tpkt:(-1) (jobs t).j_napi_irq () qi

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
let ni_intr t j x arg =
  (Cpu.cost_cell t.cpu).(0) <- t.c.Cost.ni_wakeup_intr;
  Cpu.post_hard_job t.cpu ~tpkt:(-1) j x arg

let ni_wake_one t wq =
  match t.demux with
  | Nic -> ni_intr t (jobs t).j_wake wq 0
  | Softirq | Hardirq -> wake_one t wq

let rec wake_members t = function
  | [] -> ()
  | (m : Socket.t) :: rest ->
      wake_one t m.Socket.recv_wait;
      wake_members t rest

(* A [Demux] event, its row read only while tracing: with tracing off
   the reads would still run. *)
let[@inline] trace_demux t row ~chan =
  if Trace.enabled t.tracer then
    Trace.demux t.tracer ~pkt:(Parena.ident t.parena row) ~chan
      ~flow:(Demux.flow_id_of_row t.parena row)

(* Enqueue a frame's row on an NI channel; an early discard (full queue,
   or processing disabled) is a drop at the channel, which releases the
   row. *)
let[@inline] ni_enqueue t ch row =
  let code = Channel.enqueue_code ch row in
  if code = Channel.discarded_code then begin
    drop t Trace.Ni_channel row (Channel.id ch);
    Parena.release t.parena row
  end;
  code

let lrp_classify_rx t row =
  if is_transit t row then begin
    (* Transit packet: demultiplexed straight onto the IP-forwarding
       daemon's channel (section 3.5), or discarded if this host is not a
       gateway. *)
    if t.cfg.forwarding then begin
      if ni_enqueue t t.fwd_chan row = Channel.queued_was_empty then
        ni_wake_one t t.fwd_wq
    end
    else begin
      drop t Trace.Not_forwarding row (-1);
      Parena.release t.parena row
    end
  end
  else
  (* Classification runs without materialising a flow value:
     [resolve_slot] does the packed-key probe straight off the row's
     columns and answers with an int slot code, and the
     constant-constructor class of a queued or missed frame drives the
     wake logic — the whole demux decision allocates nothing. *)
  let slot = Chantab.resolve_slot t.chantab t.parena row in
  if slot = Chantab.slot_none then begin
      trace_demux t row ~chan:(-1);
      (match Demux.class_of_row t.parena row with
       | Demux.Tcp_class ->
           (* No endpoint: the protocol-proxy daemon answers with an RST on
              its own time (section 3.5). *)
           if ni_enqueue t t.icmp_chan row = Channel.queued_was_empty
              && t.cfg.udp_helper
           then ni_wake_one t t.helper_wq
       | Demux.Udp_class | Demux.Frag_class | Demux.Icmp_class ->
           drop t Trace.Demux_miss row (-1);
           Parena.release t.parena row)
  end
  else
      (* An endpoint's slot, or a dedicated channel's code.  An entry the
         probe returns always has its channel: it skips connections that
         lost theirs. *)
      let ep = if slot >= 0 then Chantab.value t.chantab slot else null_ep in
      let ch =
        match ep.ep_chan with
        | Some ch -> ch
        | None -> if slot = Chantab.slot_frag then t.frag_chan else t.icmp_chan
      in
      trace_demux t row ~chan:(Channel.id ch);
      let code = ni_enqueue t ch row in
      (if code <> Channel.discarded_code then
         let was_empty = code = Channel.queued_was_empty in
         (* The class follows from where the probe sent the frame. *)
         let cls =
           if slot >= 0 then
             if ep.ep_conn == Tcp.null_conn then Demux.Udp_class
             else Demux.Tcp_class
           else if slot = Chantab.slot_frag then Demux.Frag_class
           else Demux.Icmp_class
         in
         (match cls with
            | Demux.Udp_class ->
                if Channel.interrupt_requested ch then begin
                  Channel.clear_interrupt_request ch;
                  (* The bound socket's receiver, or every member's. *)
                  match t.demux with
                  | Nic -> ni_intr t (jobs t).j_wake_ep ep 0
                  | Softirq | Hardirq -> wake_members t ep.ep_socks
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
                  (match t.demux with
                   | Nic -> ni_intr t (jobs t).j_app_chan ep ep.ep_gen
                   | Softirq | Hardirq -> app_post_chan t ep ch)
            | Demux.Frag_class | Demux.Icmp_class ->
                (* Fragments needing reassembly and ICMP: the helper
                   handles them if no receiver does first. *)
                if t.cfg.udp_helper && was_empty then ni_wake_one t t.helper_wq))

(* ------------------------------------------------------------------ *)
(* Early-Demux receive path                                             *)
(* ------------------------------------------------------------------ *)

(* Eager protocol processing, BSD-style, as a softint job carrying the
   frame's row. *)
let edemux_eager t row =
  if rx_reserve t row then begin
    (Cpu.cost_cell t.cpu).(0) <- eager_soft_cost t row ~ipq:0. ~skip_pcb:true;
    Cpu.post_soft_job t.cpu ~tpkt:(Parena.ident t.parena row)
      ~poll:false (jobs t).j_edemux_soft () row
  end

(* An interrupt-time early discard: the row is released. *)
let edemux_discard t row =
  drop t Trace.Edemux_discard row (-1);
  Parena.release t.parena row

(* Early discard on a full receiver queue — but processing stays eager.
   A group datagram is discarded only when no member's queue has room. *)
let edemux_udp t row =
  let ep = Chantab.find_udp t.chantab ~port:(Parena.dport t.parena row) in
  if ep != null_ep
     && ((not ep.ep_group)
         || Packet.is_multicast_addr (Parena.dst t.parena row))
     && List.exists Socket.has_room ep.ep_socks
  then edemux_eager t row
  else edemux_discard t row

(* Early discard on a full receive buffer or, for a SYN, a full listen
   backlog, probing the PCBs with the ports straight off the
   (first-fragment-aware) row.  With no endpoint the segment is
   processed eagerly so TCP answers with an RST, as the BSD code this
   kernel is derived from does. *)
let edemux_tcp t row =
  let conn = pcb_lookup t row in
  let full =
    if conn == Tcp.null_conn then false
    else if Tcp.state conn = Tcp.Listen then
      Parena.flags t.parena row land (Packet.syn lor Packet.ack) = Packet.syn
      && Tcp.backlog_full conn
    else conn.Tcp.rcvq_bytes >= conn.Tcp.rcv_buf_limit
  in
  if full then edemux_discard t row else edemux_eager t row

let edemux_rx t row =
  if is_transit t row then begin
    if t.cfg.forwarding then begin
      (Cpu.cost_cell t.cpu).(0) <- eager_soft_cost t row ~ipq:0. ~skip_pcb:true;
      Cpu.post_soft_job t.cpu ~tpkt:(-1) ~poll:false (jobs t).j_forward () row
    end
    else begin
      drop t Trace.Not_forwarding row (-1);
      Parena.release t.parena row
    end
  end
  else begin
    (* The allocation-free classification (see [lrp_classify_rx]). *)
    trace_demux t row ~chan:(-1);
    match Demux.class_of_row t.parena row with
    | Demux.Udp_class -> edemux_udp t row
    | Demux.Tcp_class -> edemux_tcp t row
    | Demux.Frag_class | Demux.Icmp_class -> edemux_eager t row
  end

(* ------------------------------------------------------------------ *)
(* NIC receive dispatch                                                 *)
(* ------------------------------------------------------------------ *)

(* The NIC's receive handler, called last by the frame's arrival event:
   the hard-interrupt posts are tail entries ([Cpu.post_hard_job_tail]),
   so the CPU may run their segments ahead (DESIGN §17). *)
let rx_dispatch t row =
  t.rx_frames <- t.rx_frames + 1;
  let cost = Cpu.cost_cell t.cpu in
  match t.demux with
  | Softirq ->
      (* Under polled RX only non-queued interfaces reach this handler
         (the primary NIC runs in queued-RX mode and hands frames to the
         poll loop without going through it); secondary interfaces of a
         multi-homed host fall back to the eager BSD path. *)
      cost.(0) <- t.c.Cost.hard_rx +. t.c.Cost.ipq_op;
      Cpu.post_hard_job_tail t.cpu ~tpkt:(Parena.ident t.parena row)
        (jobs t).j_driver_rx () row
  | Hardirq ->
      (* Soft demux: classification runs in the hardware interrupt. *)
      cost.(0) <- t.c.Cost.hard_rx +. t.c.Cost.demux;
      Cpu.post_hard_job_tail t.cpu ~tpkt:(Parena.ident t.parena row)
        (jobs t).j_demux_rx () row
  | Nic ->
      (* NI demux: classification runs on the interface's embedded
         processor — zero host CPU. *)
      lrp_classify_rx t row

(* ------------------------------------------------------------------ *)
(* Lazy UDP protocol processing (LRP receive path, section 3.3)         *)
(* ------------------------------------------------------------------ *)

let rec pop_rows ch rows =
  let row = Channel.pop_row ch in
  if row = Parena.none then List.rev rows else pop_rows ch (row :: rows)

let rec integrate_frags t ~charge completed = function
  | [] -> completed
  | row :: rest ->
      charge (t.c.Cost.reasm_per_frag +. t.c.Cost.ip_in);
      let whole = Ip.Reasm.insert t.reasm ~now:(now t) row in
      integrate_frags t ~charge
        (if whole = Parena.none then completed else whole :: completed)
        rest

(* Pull every fragment queued on the special fragment channel, then
   integrate them one by one; fragments arriving meanwhile wait for the
   next drain.  Returns the rows of the datagrams they complete, newest
   first.  Runs in process context; the caller charges per-fragment cost
   through [charge]. *)
let drain_frag_channel t ~charge =
  integrate_frags t ~charge [] (pop_rows t.frag_chan [])

(* Deliver datagrams completed by lazy (receiver-context) processing. *)
let rec deliver_udp_all t = function
  | [] -> ()
  | row :: rest ->
      deliver_udp_ready t ~row;
      deliver_udp_all t rest

(* Lazy protocol processing starts in the receiver's own context; the
   deposit that follows the charges closes the proc-proto stage.  The
   first charge is channel buffer management, plus the NI-memory access
   under NI demux.  Each charge is its own compute segment (a preemption
   point), ledgered as protocol work on channel [flow] — section 3.3's
   accounting claim made measurable. *)
let lrp_charge_rx t ~flow row =
  Trace.proto_deliver t.tracer ~pkt:(Parena.ident t.parena row) ~conn:(-1)
    ~in_proc:true;
  charge_proto t ~flow (t.c.Cost.sockq +. ni_access_cost t)

(* A whole datagram: IP and UDP processing charged, then deposited.
   Allocates nothing but the datagram handed to the application. *)
let lrp_recv_whole t ~flow ~row =
  lrp_charge_rx t ~flow row;
  charge_proto t ~flow (t.c.Cost.lazy_locality *. t.c.Cost.ip_in);
  charge_proto t ~flow (t.c.Cost.lazy_locality *. t.c.Cost.udp_in);
  deliver_udp_ready t ~row

(* A fragment: integrate it, and on a miss check the special fragment
   channel (section 3.2).  Completions — zero or several — are charged
   their UDP processing, then delivered in order. *)
let lrp_recv_frag t ~flow ~row =
  lrp_charge_rx t ~flow row;
  charge_proto t ~flow
    (t.c.Cost.lazy_locality *. (t.c.Cost.ip_in +. t.c.Cost.reasm_per_frag));
  let completed =
    let whole = Ip.Reasm.insert t.reasm ~now:(now t) row in
    if whole <> Parena.none then [ whole ]
    else drain_frag_channel t ~charge:(fun d -> charge_proto t ~flow d)
  in
  List.iter
    (fun _ -> charge_proto t ~flow (t.c.Cost.lazy_locality *. t.c.Cost.udp_in))
    completed;
  deliver_udp_all t completed

(* The frame's channel row is carried through processing to the socket
   queue, and released at copyout. *)
let lrp_recv_one t ch =
  let row = Channel.pop_row ch in
  row <> Parena.none
  && begin
       let flow = Channel.id ch in
       if Parena.is_fragment t.parena row then lrp_recv_frag t ~flow ~row
       else lrp_recv_whole t ~flow ~row;
       true
     end

(* ------------------------------------------------------------------ *)
(* LRP helper thread (minimal priority, section 3.3)                    *)
(* ------------------------------------------------------------------ *)

(* One helper pass over the UDP endpoints: a packet from each backlogged
   channel whose socket has room.  A recursive function rather than a
   [List.iter] closure, which would be allocated on every pass together
   with the [worked] flag it captured. *)
let rec helper_udp_round t worked = function
  | [] -> worked
  | ep :: rest ->
      let got =
        match ep.ep_chan, ep.ep_socks with
        | Some ch, sock :: _ -> Socket.has_room sock && lrp_recv_one t ch
        | _, _ -> false
      in
      helper_udp_round t (got || worked) rest

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
           (fun row ->
             Trace.proto_deliver t.tracer ~pkt:(Parena.ident t.parena row)
               ~conn:(-1) ~in_proc:true;
             charge (t.c.Cost.lazy_locality *. t.c.Cost.udp_in);
             deliver_udp_ready t ~row)
           completed);
    (* Process one packet from each backlogged UDP channel — but only while
       the destination socket queue has room.  A full socket queue means the
       receiver is not keeping up, and leaving packets in the channel is
       what lets it fill and shed further load at the NI instead of burning
       host CPU on datagrams that would be dropped anyway. *)
    if helper_udp_round t false t.udp_eps then worked := true;
    (* Protocol-proxy daemon duties: ICMP echo and RSTs for TCP segments
       with no endpoint (section 3.5). *)
    (let row = Channel.pop_row t.icmp_chan in
     if row <> Parena.none then begin
       worked := true;
       charge (t.c.Cost.lazy_locality *. (t.c.Cost.ip_in +. t.c.Cost.udp_in));
       if Parena.proto t.parena row = Parena.Tcp
          && not (Parena.is_fragment t.parena row)
       then begin
         t.rsts_sent <- t.rsts_sent + 1;
         Tcp.send_rst_for t.parena row ~emit:(tcp_env_exn t).Tcp.emit;
         free_rx_pkt t row
       end
       else begin
         (* ICMP, or a fragment: reassembled first. *)
         let whole = Ip.Reasm.insert t.reasm ~now:(now t) row in
         if whole <> Parena.none then begin
           icmp_reply t whole;
           free_rx_pkt t whole
         end
       end
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
  let ch = t.fwd_chan in
  let rec loop () =
    let row = Channel.pop_row ch in
    if row <> Parena.none then begin
      charge_proto t ~flow:(Channel.id ch)
        (t.c.Cost.lazy_locality *. (t.c.Cost.ip_in +. t.c.Cost.ip_forward));
      forward t row;
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

(* An incomplete datagram the reassembler expired (ip_slowtimo). *)
let reasm_expire t row =
  drop t Trace.Reasm_timeout row (-1);
  free_rx_pkt t row

let create engine fabric ~name ~ip cfg =
  let cpu =
    Cpu.create engine ~ctx_switch_cost:cfg.costs.Cost.ctx_switch ()
  in
  let nic = Fabric.make_nic fabric ~ip () in
  (* Flight recorder: enabling tracing costs no per-event allocation (the
     timestamp is read straight from the engine's clock cell). *)
  let tracer = Trace.create ~name ~clock:(Engine.clock_cell engine) () in
  let parena = Nic.pool nic in
  let chan limit = Channel.create ~limit () in
  let frag_chan = chan frag_limit in
  let icmp_chan = chan icmp_limit in
  let fwd_chan = chan fwd_limit in
  let demux, proto, rx_mode = axes cfg.arch in
  let t =
    { kname = name; engine; cpu; nic; cfg; demux; proto; rx_mode;
      c = cfg.costs; ip_addr = ip;
      tracer;
      ipq_len = 0; mbufs = Mbuf.create ~capacity:mbuf_capacity ();
      parena;
      interfaces = [ (ip, 24, nic) ];
      chantab = Chantab.create ~dummy:null_ep ~has_chan:ep_has_chan ();
      eps = Itab.create 16; ep_pool = new_pool null_ep; chan_pool = new_pool None;
      stream_shared = Socket.shared ();
      frag_chan; icmp_chan; fwd_chan;
      apps = Itab.create 8;
      helper_wq = Proc.waitq "udp-helper"; fwd_wq = Proc.waitq "ipfwdd";
      udp_eps = []; napi = [||]; rxj = None;
      reasm = Ip.Reasm.create parena;
      tcp_env = None;
      eph_port = 20_000; rx_frames = 0; udp_delivered = 0; tcp_delivered = 0;
      forwarded = 0; rsts_sent = 0; ipq_hwm = 0 }
  in
  t.rxj <-
    Some
      { j_driver_rx =
          Cpu.job cpu ~label:"rx-intr" (fun () row -> bsd_driver_rx t row);
        j_demux_rx =
          Cpu.job cpu ~label:"rx-demux" (fun () row ->
              match t.proto with
              | Lazy -> lrp_classify_rx t row
              | Eager -> edemux_rx t row);
        j_softnet =
          Cpu.job cpu ~label:"softnet" (fun () row ->
              t.ipq_len <- t.ipq_len - 1;
              ip_input t ~row);
        j_edemux_soft =
          Cpu.job cpu ~label:"softnet" (fun () row ->
              ip_input_local t ~row ~skip_pcb:true);
        j_wake = Cpu.job cpu ~label:"ni-intr" (fun wq _ -> wake_one t wq);
        j_napi_irq = Cpu.job cpu ~label:"napi-irq" (fun () qi -> napi_irq t qi);
        j_napi_poll =
          Cpu.job cpu ~label:"napi-poll" (fun n _ -> napi_softirq_round t n);
        j_napi_deliver =
          Cpu.job cpu ~label:"napi-poll" (fun n _ -> napi_round_done t n);
        j_wake_ep =
          Cpu.job cpu ~label:"ni-intr" (fun ep _ -> wake_members t ep.ep_socks);
        j_app_chan =
          Cpu.job cpu ~label:"ni-intr" (fun ep gen ->
              match ep.ep_chan with
              | Some ch when ep.ep_gen = gen -> app_post_chan t ep ch
              | Some _ | None -> ());
        j_orphan =
          Cpu.job cpu ~label:"tcp-orphan" (fun ep gen -> orphan_drain t ep gen);
        j_tcp_timer =
          Cpu.job cpu ~label:"tcp-timer" (fun tm gen ->
              Tcp.timer_fired tm ~gen);
        j_tcp_tx = Cpu.job cpu ~label:"tcp-tx" (fun () _ -> ());
        j_reasm =
          Cpu.job cpu ~label:"ip-reasm-complete" (fun () row ->
              bsd_transport_input t ~row);
        j_forward =
          Cpu.job cpu ~label:"ip-forward" (fun () row -> forward t row);
        g_tcp_timer = Engine.target engine (fun tm -> fire_tcp_timer t tm);
        g_rcvto =
          Engine.target engine (fun (sock, expired) ->
              expired := true;
              wake_all t sock.Socket.recv_wait);
        g_napi_grace = Engine.target engine (fun wq -> wake_one t wq) };
  t.tcp_env <- Some (make_tcp_env t);
  Nic.set_rx_handler nic (fun row -> rx_dispatch t row);
  Cpu.set_tracer cpu tracer;
  Nic.set_tracer nic tracer;
  (* Periodic reassembly pruning (ip_slowtimo); re-arms its own event. *)
  let slowtimo_ev = ref Engine.none in
  slowtimo_ev :=
    Engine.schedule_after engine ~delay:(Time.sec 5.) (fun () ->
        ignore (Ip.Reasm.prune t.reasm ~now:(now t) ~release:(reasm_expire t));
        Engine.reschedule_after engine !slowtimo_ev ~delay:(Time.sec 5.));
  if t.rx_mode <> Intr then begin
    (* RSS steers across four receive rings; NAPI polls one. *)
    let queues = match cfg.arch with Rss -> 4 | _ -> 1 in
    (* [rx_frames] (the overload detector's offered-load numerator) is
       counted in the steer callback: under queued RX the NIC DMAs frames
       straight into its rings and the kernel's dispatch handler never
       sees them. *)
    let steer row =
      t.rx_frames <- t.rx_frames + 1;
      if queues = 1 then 0 else rss_steer parena row ~queues
    in
    t.napi <-
      Array.init queues (fun qi ->
          let cap = Int.max 1 (Int.min cfg.napi_budget rx_ring) in
          { nq = qi; poll_on = false; episode = 0; in_ksoftirqd = false;
            ksoftirqd_wq = Proc.waitq "ksoftirqd";
            b_rows = Array.make cap Parena.none; b_len = 0; served = 0;
            nf = [| 0.; neg_infinity |];
            train = Array.make gro_max_segs Parena.none; train_len = 0;
            train_udp = false; train_next_seq = 0 });
    Nic.configure_rx_queues nic ~queues ~ring:rx_ring
      ~coalesce_pkts:cfg.coalesce_pkts ~coalesce_us:cfg.coalesce_us ~steer
      ~kick:(fun qi -> napi_kick t qi);
    Array.iter
      (fun n ->
        ignore
          (Cpu.spawn cpu ~name:(Printf.sprintf "%s.ksoftirqd/%d" name n.nq)
             (fun _self -> ksoftirqd_loop t n)))
      t.napi
  end;
  if t.proto = Lazy && cfg.udp_helper then
    ignore
      (Cpu.spawn cpu ~nice:20 ~name:(name ^ ".udp-helper") (fun _self ->
           helper_loop t));
  if t.proto = Lazy && cfg.forwarding then
    ignore
      (Cpu.spawn cpu ~name:(name ^ ".ipfwdd") (fun _self ->
           fwd_daemon_loop t));
  t

(* Allocate an ephemeral port. *)
let fresh_port t =
  let rec try_port () =
    t.eph_port <- (if t.eph_port >= 65_000 then 20_000 else t.eph_port + 1);
    if Chantab.find_udp t.chantab ~port:t.eph_port != null_ep
       || Chantab.find_listen t.chantab ~port:t.eph_port != null_ep
    then try_port ()
    else t.eph_port
  in
  try_port ()

(* [add_interface t fabric ~ip] attaches an additional interface, a /24
   (multi-homed gateway).  The same receive architecture runs on every
   interface, and every interface draws from the kernel's frame pool: a
   second network of the same cell shares the first one's. *)
let add_interface t fabric ~ip () =
  if Fabric.pool fabric != t.parena then
    invalid_arg "Kernel.add_interface: the fabric has another frame pool";
  let nic = Fabric.make_nic fabric ~ip () in
  Nic.set_rx_handler nic (fun row -> rx_dispatch t row);
  Nic.set_tracer nic t.tracer;
  t.interfaces <- t.interfaces @ [ (ip, 24, nic) ];
  nic
