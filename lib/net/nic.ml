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

open Lrp_engine

type stats = {
  mutable tx_packets : int;
  mutable tx_bytes : int;
  mutable rx_packets : int;
  mutable tx_drops : int;  (* interface queue overflow *)
}

(* One receive queue of the (optional) queued-RX mode: a bounded ring the
   NIC DMAs frames into at zero host cost, with a maskable interrupt and
   packet-count/timer coalescing.  The host only pays CPU when the kernel's
   [rx_kick] raises an interrupt and when its poll loop dequeues. *)
type rxq = {
  q_id : int;
  ring : Parena.handle array;   (* bounded ring of frame rows *)
  mutable q_head : int;
  mutable q_count : int;
  mutable intr_on : bool;       (* interrupt unmasked (NAPI masks it) *)
  mutable timer : Lrp_engine.Engine.handle;
      (* armed coalesce timer; [Engine.none] when disarmed.  A bare
         handle, not an option: arming a timer per sub-threshold train
         must not allocate. *)
  mutable q_rx : int;           (* frames DMAed into this ring *)
  mutable q_drops : int;        (* ring-overflow drops (zero host cost) *)
  mutable q_kicks : int;        (* interrupts raised *)
  mutable q_hwm : int;          (* ring occupancy high-watermark *)
}

type t = {
  engine : Engine.t;
  ip : Packet.ip;
  bandwidth : float;        (* bytes per microsecond *)
  cellify : bool;           (* AAL5: pad to 48-byte cells, 53 on the wire *)
  ifq_limit : int;
  pool : Parena.t;  (* the cell's frame pool, shared with the fabric *)
  (* The interface queue: a ring of frame rows sized exactly [ifq_limit]
     (transmit drops at the limit, so it cannot overflow), with each
     frame's wire bytes cached at enqueue in an int column, so the drain
     loop computes serialisation time without re-reading the row.  A
     frame sent on an idle interface starts serialising at once and never
     enters the ring. *)
  ifq : Parena.handle array;
  ifq_wire : int array;
  mutable ifq_head : int;
  mutable ifq_count : int;
  mutable tx_busy : bool;
  mutable rx_handler : Parena.handle -> unit;
  mutable deliver : Parena.handle -> unit;  (* wired to the fabric *)
  mutable tx_done : Parena.handle Engine.target option;
      (* closure-free tx-complete event; registered by [create] *)
  mutable rxq_timer_tgt : rxq Engine.target option;
      (* closure-free coalesce-timer expiry; registered on first arm *)
  stats : stats;
  mutable tracer : Lrp_trace.Trace.t;  (* owning kernel's; disabled default *)
  (* queued-RX mode (NAPI-era back-ends); [||] = classic immediate mode *)
  mutable rxqs : rxq array;
  mutable rx_steer : Parena.handle -> int;  (* frame -> queue (RSS hash) *)
  mutable rx_kick : int -> unit;       (* raise the interrupt for a queue *)
  mutable coalesce_pkts : int;
  mutable coalesce_us : float;
}

let mbps_to_bytes_per_us mbps = mbps *. 1e6 /. 8. /. 1e6

(* A NIC made alone has a pool of its own; {!Fabric.make_nic} passes the
   fabric's.  Its link runs at 155 Mbit/s (the paper's ATM). *)
let create engine ?(pool = Parena.create ()) ~ip ?(cellify = true)
    ?(ifq_limit = 64) () =
  { engine; ip;
    bandwidth = mbps_to_bytes_per_us 155.; cellify; ifq_limit; pool;
    ifq = Array.make (max 1 ifq_limit) Parena.none;
    ifq_wire = Array.make (max 1 ifq_limit) 0;
    ifq_head = 0; ifq_count = 0; tx_busy = false;
    rx_handler = (fun _ -> ());
    deliver = (fun _ -> ());
    tx_done = None;
    rxq_timer_tgt = None;
    stats = { tx_packets = 0; tx_bytes = 0; rx_packets = 0; tx_drops = 0 };
    tracer = Lrp_trace.Trace.null ();
    rxqs = [||]; rx_steer = (fun _ -> 0); rx_kick = (fun _ -> ());
    coalesce_pkts = 1; coalesce_us = 0. }

let ip t = t.ip
let pool t = t.pool
let stats t = t.stats
let set_tracer t tr = t.tracer <- tr

let counters t ~prefix =
  let i name v = (prefix ^ name, float_of_int v) in
  let sum_rxq f = Array.fold_left (fun acc q -> acc + f q) 0 t.rxqs in
  [ i ".tx_packets" t.stats.tx_packets; i ".tx_bytes" t.stats.tx_bytes;
    i ".rx_packets" t.stats.rx_packets; i ".tx_drops" t.stats.tx_drops;
    i ".ifq_len" t.ifq_count; i ".rxq_drops" (sum_rxq (fun q -> q.q_drops));
    i ".rxq_kicks" (sum_rxq (fun q -> q.q_kicks)) ]

let set_rx_handler t f = t.rx_handler <- f

let set_deliver t f = t.deliver <- f

(* Wire footprint of a datagram: AAL5 packs the PDU (plus an 8-byte
   trailer) into 48-byte cells, each costing 53 bytes of line time. *)
let footprint_of_bytes t b =
  if t.cellify then
    let cells = (b + 8 + 47) / 48 in
    cells * 53
  else b

(* Start serialising frame [row], [bytes] long on the wire. *)
let rec start_tx t row bytes =
  t.tx_busy <- true;
  t.stats.tx_packets <- t.stats.tx_packets + 1;
  t.stats.tx_bytes <- t.stats.tx_bytes + bytes;
  (* Staged deadline: the serialisation delay is computed per frame, and
     passing it as a [~delay] argument would box it — the staging cell
     keeps the whole transmit cycle at 0.0 minor words. *)
  (Engine.deadline_cell t.engine).(0) <-
    (Engine.clock_cell t.engine).(0)
    +. (float_of_int (footprint_of_bytes t bytes) /. t.bandwidth);
  ignore (Engine.schedule_to_staged t.engine (tx_target t) row)

and drain t =
  if t.ifq_count = 0 then t.tx_busy <- false
  else begin
    let i = t.ifq_head in
    t.ifq_head <- (if i + 1 >= Array.length t.ifq then 0 else i + 1);
    t.ifq_count <- t.ifq_count - 1;
    start_tx t t.ifq.(i) t.ifq_wire.(i)
  end

(* Tx-complete dispatcher, registered on the first transmission: deliver
   the frame to the fabric and start the next one.  One registration per
   NIC; each subsequent tx-done event is closure-free. *)
and tx_target t =
  match t.tx_done with
  | Some g -> g
  | None ->
      let g =
        (* alloc: cold — one-time dispatcher registration *)
        Engine.target t.engine (fun row ->
            t.deliver row;
            drain t)
      in
      (* alloc: cold — one-time dispatcher registration *)
      t.tx_done <- Some g;
      g

(* Start the frame on an idle interface, else append it to the
   interface queue, which has room.  The queue is empty whenever the
   transmitter is idle ([drain] idles it only then). *)
let enqueue t row =
  let bytes = Parena.wire_bytes t.pool row in
  if not t.tx_busy then start_tx t row bytes
  else begin
    let cap = Array.length t.ifq in
    let tail = t.ifq_head + t.ifq_count in
    let tail = if tail >= cap then tail - cap else tail in
    t.ifq.(tail) <- row;
    t.ifq_wire.(tail) <- bytes;
    t.ifq_count <- t.ifq_count + 1
  end

(* [transmit_row t row] is the driver's if_output: start the frame on an
   idle interface, else append it to the interface queue.  On queue
   overflow the row is released and the result is [false]. *)
let transmit_row t row =
  if t.ifq_count >= t.ifq_limit then begin
    t.stats.tx_drops <- t.stats.tx_drops + 1;
    Parena.release t.pool row;
    false
  end
  else begin
    enqueue t row;
    true
  end

(* A datagram value enters the pool here (the benchmark's UDP source). *)
let transmit t pkt = transmit_row t (Parena.copy_in t.pool pkt)

let ifq_length t = t.ifq_count

(* --- queued RX (NAPI-era back-ends) ------------------------------------ *)

let rx_queues t = Array.length t.rxqs

let configure_rx_queues t ~queues ~ring ~coalesce_pkts ~coalesce_us ~steer
    ~kick =
  let queues = max 1 queues and ring = max 1 ring in
  t.rxqs <-
    Array.init queues (fun q_id ->
        { q_id; ring = Array.make ring Parena.none; q_head = 0; q_count = 0;
          intr_on = true; timer = Engine.none; q_rx = 0; q_drops = 0;
          q_kicks = 0; q_hwm = 0 });
  t.rx_steer <- steer;
  t.rx_kick <- kick;
  t.coalesce_pkts <- max 1 coalesce_pkts;
  t.coalesce_us <- coalesce_us

(* Raise the queue's interrupt: disarm any pending coalesce timer and hand
   the queue id to the kernel.  The kernel's kick is expected to mask the
   interrupt ([rxq_disable_intr]) and schedule a poll. *)
let rxq_fire t (q : rxq) =
  if q.timer != Engine.none then begin
    Engine.cancel t.engine q.timer;
    q.timer <- Engine.none
  end;
  Lrp_trace.Trace.coalesce_fire t.tracer ~q:q.q_id ~pending:q.q_count;
  q.q_kicks <- q.q_kicks + 1;
  t.rx_kick q.q_id

(* The coalesce timer's expiry, as a registered dispatcher so arming a
   timer passes the queue itself instead of building a thunk. *)
let rxq_timer_target t =
  match t.rxq_timer_tgt with
  | Some g -> g
  | None ->
      let g =
        (* alloc: cold — one-time dispatcher registration *)
        Engine.target t.engine (fun (q : rxq) ->
            q.timer <- Engine.none;
            if q.intr_on && q.q_count > 0 then rxq_fire t q)
      in
      (* alloc: cold — one-time dispatcher registration *)
      t.rxq_timer_tgt <- Some g;
      g

(* Coalescing decision, taken whenever the ring is non-empty with the
   interrupt unmasked: fire once [coalesce_pkts] frames are buffered (or
   coalescing is off), otherwise make sure the hold-off timer is armed so
   a sub-threshold train still gets delivered within [coalesce_us]. *)
let rxq_consider t (q : rxq) =
  if q.intr_on && q.q_count > 0 then begin
    if q.q_count >= t.coalesce_pkts || t.coalesce_us <= 0. then rxq_fire t q
    else if q.timer == Engine.none then begin
      (* Stage the deadline through the engine's float cell and pass the
         queue to the registered expiry dispatcher: arming the hold-off
         timer allocates nothing (the old thunk + handle option cost 7
         words per sub-threshold train). *)
      (Engine.deadline_cell t.engine).(0) <-
        (Engine.clock_cell t.engine).(0) +. t.coalesce_us;
      q.timer <- Engine.schedule_to_staged t.engine (rxq_timer_target t) q
    end
  end

let rxq_enable_intr t qi =
  let q = t.rxqs.(qi) in
  q.intr_on <- true;
  (* The NAPI race close: frames that arrived while the interrupt was
     masked must still raise one. *)
  rxq_consider t q

let rxq_disable_intr t qi = t.rxqs.(qi).intr_on <- false

let rxq_len t qi = t.rxqs.(qi).q_count

let rxq_pop t qi =
  let q = t.rxqs.(qi) in
  if q.q_count = 0 then Parena.none
  else begin
    let row = q.ring.(q.q_head) in
    let head' = q.q_head + 1 in
    q.q_head <- (if head' >= Array.length q.ring then 0 else head');
    q.q_count <- q.q_count - 1;
    row
  end

let rxq_stats t qi =
  let q = t.rxqs.(qi) in
  (q.q_rx, q.q_drops, q.q_kicks, q.q_hwm)

let rxq_receive t row =
  let nq = Array.length t.rxqs in
  let qi = t.rx_steer row in
  let qi = if qi < 0 || qi >= nq then 0 else qi in
  let q = t.rxqs.(qi) in
  let cap = Array.length q.ring in
  if q.q_count >= cap then begin
    (* Ring overflow: the NIC sheds the frame with zero host CPU — the
       property that keeps NAPI out of livelock. *)
    q.q_drops <- q.q_drops + 1;
    Lrp_trace.Trace.drop t.tracer ~reason:Lrp_trace.Trace.Nic_ring
      ~pkt:(Parena.ident t.pool row) ~arg:q.q_count;
    Parena.release t.pool row
  end
  else begin
    let tail = q.q_head + q.q_count in
    let tail = if tail >= cap then tail - cap else tail in
    q.ring.(tail) <- row;
    q.q_count <- q.q_count + 1;
    q.q_rx <- q.q_rx + 1;
    if q.q_count > q.q_hwm then q.q_hwm <- q.q_count;
    rxq_consider t q
  end

(* Called by the fabric when a frame reaches this NIC. *)
let receive t row =
  t.stats.rx_packets <- t.stats.rx_packets + 1;
  (* Guarded: the row reads would run with tracing off too. *)
  if Lrp_trace.Trace.enabled t.tracer then
    Lrp_trace.Trace.nic_rx t.tracer ~pkt:(Parena.ident t.pool row)
      ~bytes:(Parena.wire_bytes t.pool row);
  if Array.length t.rxqs > 0 then rxq_receive t row else t.rx_handler row
