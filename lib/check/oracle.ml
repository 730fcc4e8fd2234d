(** Trace-driven invariant oracle.

    Consumes the packet-lifecycle event stream of one kernel's tracer and
    mechanically checks conservation and ordering invariants that must hold
    on every architecture, under any network weather the fabric's fault
    layer can produce — including duplication, so all per-packet bounds are
    stated against the number of times that packet actually {e arrived} at
    the NIC, not against 1.

    Invariants (per packet ident [p], socket [s]):

    - {b no over-delivery}: sock-enqueues of [(p, s)] <= NIC arrivals of [p]
      (a kernel may deliver a duplicated packet twice only if the network
      really presented it twice);
    - {b copyout bound}: copyouts of [(p, s)] <= sock-enqueues of [(p, s)];
    - {b demux bound}: demux events of [p] <= arrivals of [p];
    - {b drop accounting}: drops of [p] for a reason that ends a frame
      (NIC ring, mbuf pool, IP queue, NI channel, Early-Demux discard,
      checksum, no port, demux miss, not forwarding) <= arrivals, and
      IP-queue enqueues + IP-queue drops <= arrivals.  Socket-buffer,
      socket-close and wrong-peer drops are per member socket, and a
      reassembly timeout ends a datagram, not a frame: those are only
      checked for ghosts;
    - {b provenance}: every sock-enqueue of [p] is preceded by a
      proto-deliver of [p], and — on architectures that demultiplex
      ([require_demux]) — by a demux of [p];
    - {b GRO accounting}: every receive-offload merge absorbs a packet
      that arrived, at most once per arrival, and into a head segment
      that itself arrived — merged segments are terminal outcomes, so
      they still satisfy conservation;
    - {b no ghosts}: every post-arrival event concerns a packet that has
      actually arrived.

    A tracer whose ring wrapped ([Trace.dropped > 0]) lost the oldest
    events; the oracle then reports [ring_wrapped = true] and skips the
    checks rather than raise false alarms. *)

module Trace = Lrp_trace.Trace

type verdict = {
  ok : bool;
  ring_wrapped : bool;
  packets : int;         (* distinct packet idents seen arriving *)
  arrivals : int;        (* total NIC arrivals *)
  enqueued : int;        (* total socket enqueues *)
  violations : string list;  (* empty iff [ok] *)
}

let pp_verdict fmt v =
  if v.ring_wrapped then
    Format.fprintf fmt "oracle: inconclusive (trace ring wrapped)"
  else begin
    Format.fprintf fmt "oracle: %s — %d packets, %d arrivals, %d enqueued"
      (if v.ok then "ok" else "VIOLATED")
      v.packets v.arrivals v.enqueued;
    List.iter (fun s -> Format.fprintf fmt "@.  - %s" s) v.violations
  end

(* Counter table keyed by packet ident (or (ident, sock) pairs encoded by
   the caller). *)
let bump tbl key = Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))
let count tbl key = Option.value ~default:0 (Hashtbl.find_opt tbl key)

(* Drops that end the frame that arrived, so at most one per arrival. *)
let ends_frame = function
  | Trace.Nic_ring | Trace.Mbuf_pool | Trace.Ip_queue | Trace.Ni_channel
  | Trace.Edemux_discard | Trace.Checksum | Trace.No_port | Trace.Demux_miss
  | Trace.Not_forwarding -> true
  | Trace.Sock_buf | Trace.Sock_close | Trace.Wrong_peer
  | Trace.Reasm_timeout -> false

let check ?(require_demux = false) events =
  let violations = ref [] in
  let max_reported = 20 in
  let reported = ref 0 in
  let violate fmt =
    Printf.ksprintf
      (fun s ->
        incr reported;
        if !reported <= max_reported then violations := s :: !violations)
      fmt
  in
  let arrivals = Hashtbl.create 256 in
  let demuxes = Hashtbl.create 256 in
  let drops = Hashtbl.create 64 in     (* frame-ending drops per pkt *)
  let ipq = Hashtbl.create 256 in       (* IP-queue enqueues + drops per pkt *)
  let proto = Hashtbl.create 256 in
  let gro = Hashtbl.create 64 in        (* absorbed-by-merge per pkt *)
  let enq = Hashtbl.create 256 in       (* (pkt, sock) -> count *)
  let copied = Hashtbl.create 256 in    (* (pkt, sock) -> count *)
  let total_arrivals = ref 0 in
  let total_enqueued = ref 0 in
  let seen p = Hashtbl.mem arrivals p in
  let ghost name p =
    if not (seen p) then violate "%s of packet %d that never arrived" name p
  in
  List.iter
    (fun (_, _, ev) ->
      match ev with
      | Trace.Nic_rx { pkt; _ } ->
          incr total_arrivals;
          bump arrivals pkt
      | Trace.Demux { pkt; _ } ->
          ghost "demux" pkt;
          bump demuxes pkt
      | Trace.Ipq_enqueue { pkt; _ } ->
          ghost "ipq-enqueue" pkt;
          bump ipq pkt
      | Trace.Drop { pkt; reason; _ } ->
          ghost "drop" pkt;
          if ends_frame reason then bump drops pkt;
          if reason = Trace.Ip_queue then bump ipq pkt
      | Trace.Proto_deliver { pkt; _ } ->
          ghost "proto-deliver" pkt;
          bump proto pkt
      | Trace.Sock_enqueue { pkt; sock } ->
          ghost "sock-enqueue" pkt;
          if count proto pkt = 0 then
            violate "sock-enqueue of packet %d without a proto-deliver" pkt;
          if require_demux && count demuxes pkt = 0 then
            violate "sock-enqueue of packet %d without a demux" pkt;
          incr total_enqueued;
          bump enq (pkt, sock);
          if count enq (pkt, sock) > count arrivals pkt then
            violate
              "double delivery: packet %d enqueued %d times on socket %d \
               but arrived %d times"
              pkt
              (count enq (pkt, sock))
              sock (count arrivals pkt)
      | Trace.Syscall_copyout { pkt; sock; _ } ->
          bump copied (pkt, sock);
          if count copied (pkt, sock) > count enq (pkt, sock) then
            violate
              "copyout of packet %d on socket %d exceeds its %d enqueues"
              pkt sock
              (count enq (pkt, sock))
      | Trace.Gro_merge { pkt; into } ->
          ghost "gro-merge" pkt;
          if not (seen into) then
            violate "gro-merge of packet %d into head %d that never arrived"
              pkt into;
          bump gro pkt
      | Trace.Gro_flush { pkt; _ } -> ghost "gro-flush" pkt
      | Trace.Softint_begin _ | Trace.Softint_end _ | Trace.Intr_enter _
      | Trace.Intr_exit _ | Trace.Ctx_switch _ | Trace.Thread_state _
      | Trace.Note _ | Trace.Alarm _ | Trace.Poll_begin _ | Trace.Poll_end _
      | Trace.Coalesce_fire _ -> ())
    events;
  (* End-of-stream count bounds, in packet-id order so any violation list
     is reproducible. *)
  let bound what tbl =
    Lrp_det.Det.iter_sorted
      (fun pkt n ->
        if n > count arrivals pkt then
          violate "packet %d %s %d times but arrived %d times" pkt what n
            (count arrivals pkt))
      tbl
  in
  bound "demuxed" demuxes;
  bound "dropped" drops;
  bound "met the IP queue" ipq;
  bound "gro-merged" gro;
  let violations =
    let vs = List.rev !violations in
    if !reported > max_reported then
      vs @ [ Printf.sprintf "(%d further violations suppressed)" (!reported - max_reported) ]
    else vs
  in
  { ok = violations = []; ring_wrapped = false;
    packets = Hashtbl.length arrivals; arrivals = !total_arrivals;
    enqueued = !total_enqueued; violations }

let check_tracer ?require_demux tr =
  if Trace.dropped tr > 0 then
    { ok = true; ring_wrapped = true; packets = 0; arrivals = 0;
      enqueued = 0; violations = [] }
  else check ?require_demux (Trace.events tr)
