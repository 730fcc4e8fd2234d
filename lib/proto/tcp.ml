(** TCP state machine.

    A from-scratch TCP sufficient for the paper's workloads: three-way
    handshake with a bounded listen backlog (the SYN-flood experiment,
    Figure 5, hinges on it), sliding-window flow control, slow start /
    congestion avoidance / fast retransmit, RTO estimation with Karn's rule
    and exponential backoff, FIN teardown and a configurable TIME_WAIT (the
    paper sets it to 500 ms for the HTTP experiment).

    The module is architecture-neutral: it reads segments from frame-pool
    rows, writes its own into rows and produces side effects through an
    {!env} of callbacks, and never consumes simulated CPU itself.  The
    *caller* charges protocol-processing cost in whatever context it runs
    — BSD charges it at software-interrupt level, LRP in the receiving
    process or its APP thread.  This split is exactly what lets the same
    protocol code run under every architecture, mirroring how the paper
    reused the 4.4BSD networking code in all kernels. *)

open Lrp_net

type state =
  | Closed
  | Listen
  | Syn_sent
  | Syn_received
  | Established
  | Fin_wait_1
  | Fin_wait_2
  | Close_wait
  | Last_ack
  | Closing
  | Time_wait

let state_name = function
  | Closed -> "CLOSED"
  | Listen -> "LISTEN"
  | Syn_sent -> "SYN_SENT"
  | Syn_received -> "SYN_RCVD"
  | Established -> "ESTABLISHED"
  | Fin_wait_1 -> "FIN_WAIT_1"
  | Fin_wait_2 -> "FIN_WAIT_2"
  | Close_wait -> "CLOSE_WAIT"
  | Last_ack -> "LAST_ACK"
  | Closing -> "CLOSING"
  | Time_wait -> "TIME_WAIT"

(* A connection's timers are persistent records, allocated once in
   [make_conn] and re-armed in place: re-arming writes three fields and
   schedules one engine event — no timer record, no closure.  The engine
   event is cancelled for real (engine-level, O(1) lazy) when the timer is
   stopped, so TCP's dominant pattern — a retransmit timer re-armed on
   every ACK and almost never firing — never reaches dispatch.

   [tgen] guards the window between the engine event firing and the
   kernel-posted protocol work actually running: a stop or re-arm in that
   window bumps the generation, and {!timer_fired} drops the stale expiry.
   [cookie] is kernel scratch (the engine event handle); TCP never reads
   it.  [tconn] is the owning connection, stored right after [make_conn]
   builds it ([null_conn] until then): a plain field, where an option
   would box it and a recursive definition would build the record
   twice. *)
type timer = {
  mutable armed : bool;
  mutable tgen : int;
  mutable cookie : Lrp_engine.Engine.handle;
  mutable on_fire : conn -> unit;
  mutable tconn : conn;
}

and env = {
  clock : float array;
      (** the engine's clock cell (read-only): [clock.(0)] is now *)
  deadline : float array;
      (** the engine's deadline cell: TCP stages a timer's absolute expiry
          in [deadline.(0)] just before calling [start_timer] *)
  pool : Parena.t;
      (** the frame pool segments are written into (the kernel's) *)
  emit : Parena.handle -> unit;
      (** transmit a segment's row (the caller routes it into IP output,
          which owns it from then on) *)
  start_timer : timer -> unit;
      (** arm [timer] to expire at the deadline staged in [deadline.(0)],
          in protocol-processing context ([timer]'s conn identifies whose
          APP thread — and whose CPU account — the work belongs to under
          LRP).  The kernel stores its event handle in [timer.cookie] and
          delivers the expiry through {!timer_fired} with the generation
          it read at arm time *)
  stop_timer : timer -> unit;
      (** cancel the engine event behind [timer.cookie]; called only while
          the timer is armed *)
  on_readable : conn -> unit;     (** receive buffer has data or EOF *)
  on_writable : conn -> unit;     (** send buffer gained space *)
  on_established : conn -> unit;  (** active open completed *)
  on_accept_ready : conn -> conn -> unit;  (** listener, new child ready *)
  on_syn_received : conn -> conn -> unit;
      (** listener created an embryonic child: the kernel registers it in
          its PCB / channel tables so later segments demultiplex to it *)
  on_connect_failed : conn -> unit;
  on_reset : conn -> unit;
  on_time_wait : conn -> unit;
      (** entered TIME_WAIT: NI-LRP uses this to deallocate the NI channel
          early so channels scale to many connections (section 4.2) *)
  on_closed : conn -> unit;       (** connection fully gone; deregister *)
  mss : int;
  time_wait_duration : float;
  initial_rto : float;
  max_syn_retries : int;
  totals : totals;  (** traffic of every connection sharing this env *)
  rows : rows;      (** the queue rows of every connection sharing it *)
  spare : spare;    (** its connection pool *)
}

(* Traffic counters summed over the env's connections since it was made,
   listeners and connections long closed included. *)
and totals = {
  mutable segs_sent : int;
  mutable segs_rcvd : int;
  mutable bytes_sent : int;
  mutable bytes_rcvd : int;
  mutable retransmits : int;
  mutable backlog_drops : int;
}

(* Queue rows: the send, retransmission and receive queues of every
   connection sharing an env are lists of rows of one pool, in
   flat columns — a (sequence number, payload) pair and a link.  A
   connection holds a queue as one row index, so it is made with no queue
   and queuing a segment allocates nothing once the pool has grown; a
   freed row goes on the free list with its payload cleared.  A FIFO
   queue is circular, named by its tail ([-1] when empty), its head the
   tail's [r_next]: appending stores the tail, and taking the only row
   only clears it. *)
and rows = {
  mutable r_seq : int array;
  mutable r_pay : Payload.t array;
  mutable r_next : int array;
  mutable r_free : int;  (* free-list head, -1 when empty *)
}

(* The connection pool of every env sharing it: recycled connections,
   linked through [link] ([null_conn] ends the list), and how many
   connections it has made that are not on the list. *)
and spare = {
  mutable free : conn;
  mutable nfree : int;
  mutable live : int;
}

(* A recycled connection keeps its floats and timers: every other field
   is written afresh by [init], so [env], the id, the addresses, the
   buffer limits and [listen] are mutable too. *)
and conn = {
  mutable env : env;
  mutable id : int;               (* -1 while on the free list *)
  mutable local_ip : Packet.ip;
  mutable local_port : int;
  mutable rip : Packet.ip;        (* remote address *)
  mutable rport : int;            (* remote port; -1 on a listener *)
  mutable state : state;
  (* --- send side --- *)
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable snd_wnd : int;          (* peer's advertised window *)
  fl : floats;                    (* congestion window and RTT state *)
  mutable dup_acks : int;
  mutable rtxq : int;
      (* the sent segments as (seq, payload) rows, oldest first; the
         head's bytes below [snd_una] are acknowledged *)
  mutable sndq : int;             (* app data not yet segmented *)
  mutable unsent_off : int;       (* bytes of [sndq]'s head already sent *)
  mutable unsent_bytes : int;
  mutable sndq_limit : int;
  mutable fin_queued : bool;
  mutable fin_seq : int;          (* sequence number the FIN occupies, -1 if unset *)
  (* --- receive side --- *)
  mutable rcv_nxt : int;
  mutable ooo : (int * Payload.t) list;  (* out-of-order segments *)
  mutable rcvq : int;             (* in-order data for the app *)
  mutable rcvq_bytes : int;
  mutable rcv_buf_limit : int;
  mutable fin_received : bool;
  mutable last_advertised_wnd : int;
  (* --- timers / rtt --- *)
  rtx_timer : timer;      (* retransmission; doubles as the TIME_WAIT clock *)
  persist_timer : timer;  (* zero-window probe *)
  mutable backoff : int;
  mutable timing_seq : int;       (* ack that samples the RTT, -1 if none *)
  mutable syn_retries : int;
  mutable listen : listen;  (* a listener's own; [no_listen] on the others *)
  mutable parent : conn;  (* a passive child's listener, else [null_conn] *)
  mutable link : conn;
      (* the next connection on its listener's accept queue or on the
         free list; [null_conn] on neither *)
}

(* A listener's state, out of every other connection.  The accept queue
   links its established children through [link]: circular, named by its
   tail ([null_conn] when empty), the tail's link being the head, so a
   live connection is on an accept queue exactly when its [link] is not
   [null_conn]. *)
and listen = {
  backlog : int;
  mutable aq_tail : conn;
  mutable aq_len : int;
  mutable syn_pending : int;      (* embryonic children of this listener *)
  mutable syn_drops_backlog : int;  (* SYNs this listener dropped *)
}

(* A connection's float state.  An all-float record is stored flat, so a
   write is an unboxed store; the same fields in [conn], a mixed record,
   would each point at a boxed float, and every write would allocate
   one. *)
and floats = {
  mutable cwnd : float;
  mutable ssthresh : float;
  mutable srtt : float;           (* smoothed rtt, us; <0 = no sample yet *)
  mutable rttvar : float;
  mutable rto : float;
  mutable timing_sent : float;    (* when the timed segment was sent *)
}

let new_totals () =
  { segs_sent = 0; segs_rcvd = 0; bytes_sent = 0; bytes_rcvd = 0;
    retransmits = 0; backlog_drops = 0 }

let new_rows () = { r_seq = [||]; r_pay = [||]; r_next = [||]; r_free = -1 }

(* A placeholder connection for table and ring slots that hold none, and
   the [parent] and [tconn] of those that have none: never in the data
   path, and it draws no connection id. *)
let rec null_conn =
  { env = null_env; id = -1; local_ip = 0; local_port = 0; rip = 0; rport = -1;
    state = Closed; snd_una = 0; snd_nxt = 0; snd_wnd = 0; dup_acks = 0;
    fl = { cwnd = 1.; ssthresh = 0.; srtt = -1.; rttvar = 0.; rto = 0.; timing_sent = 0. };
    rtxq = -1; sndq = -1; unsent_off = 0; unsent_bytes = 0; sndq_limit = 0;
    fin_queued = false; fin_seq = -1; rcv_nxt = 0; ooo = []; rcvq = -1; rcvq_bytes = 0;
    rcv_buf_limit = 0; fin_received = false; last_advertised_wnd = 0; backoff = 0;
    rtx_timer = null_timer; persist_timer = null_timer; timing_seq = -1;
    syn_retries = 0; listen = no_listen; parent = null_conn; link = null_conn }

(* Shared by every connection that is not a listener; never written. *)
and no_listen =
  { backlog = 0; aq_tail = null_conn; aq_len = 0; syn_pending = 0;
    syn_drops_backlog = 0 }

and null_timer =
  { armed = false; tgen = 0; cookie = Lrp_engine.Engine.none; on_fire = ignore;
    tconn = null_conn }

and null_env =
  { clock = [| 0. |]; deadline = [| 0. |]; pool = Parena.create (); emit = ignore;
    start_timer = ignore; stop_timer = ignore; on_readable = ignore;
    on_writable = ignore; on_established = ignore; on_accept_ready = (fun _ _ -> ());
    on_syn_received = (fun _ _ -> ()); on_connect_failed = ignore; on_reset = ignore;
    on_time_wait = ignore; on_closed = ignore; mss = 1; time_wait_duration = 0.;
    initial_rto = 0.; max_syn_retries = 0; totals = new_totals (); rows = new_rows ();
    spare = { free = null_conn; nfree = 0; live = 0 } }

let new_spare () = { free = null_conn; nfree = 0; live = 0 }

(* Connection ids come from the per-engine id space installed on this
   domain (Lrp_engine.Idspace): per-cell sequences, independent of other
   simulations or shards allocating concurrently. *)

let make_timer () =
  (* alloc: cold — the pool grows *)
  { armed = false; tgen = 0; cookie = Lrp_engine.Engine.none;
    on_fire = ignore; tconn = null_conn }

(* A connection for an empty free list, its state left to [init]. *)
let blank_conn () =
  let fl =
    (* alloc: cold — the pool grows *)
    { cwnd = 0.; ssthresh = 0.; srtt = 0.; rttvar = 0.; rto = 0.; timing_sent = 0. }
  in
  let c =
    (* alloc: cold — the pool grows *)
    { null_conn with fl; rtx_timer = make_timer (); persist_timer = make_timer () }
  in
  c.rtx_timer.tconn <- c;
  c.persist_timer.tconn <- c;
  c

(* A connection's opening state, with a fresh id.  Its queues, [ooo],
   [parent] and [link] are already empty ([recycle] and [blank_conn]
   leave them so).  Its timers keep their generations, so an expiry
   delivered late to a recycled connection is still stale. *)
let init c env ~local_ip ~local_port ~sndq_limit ~rcv_buf_limit ~listen ~state =
  let f = c.fl in
  if c.env != env then c.env <- env;
  c.id <- Lrp_engine.Idspace.next_conn_id ();
  c.local_ip <- local_ip;
  c.local_port <- local_port;
  c.rip <- 0;
  c.rport <- -1;
  c.state <- state;
  c.snd_una <- 0;
  c.snd_nxt <- 0;
  c.snd_wnd <- 0;
  f.cwnd <- float_of_int env.mss;
  f.ssthresh <- 65_535.;
  f.srtt <- -1.;
  f.rttvar <- 0.;
  f.rto <- env.initial_rto;
  f.timing_sent <- 0.;
  c.dup_acks <- 0;
  c.unsent_off <- 0;
  c.unsent_bytes <- 0;
  c.sndq_limit <- sndq_limit;
  c.fin_queued <- false;
  c.fin_seq <- -1;
  c.rcv_nxt <- 0;
  c.rcvq_bytes <- 0;
  c.rcv_buf_limit <- rcv_buf_limit;
  c.fin_received <- false;
  c.last_advertised_wnd <- rcv_buf_limit;
  c.backoff <- 0;
  c.timing_seq <- -1;
  c.syn_retries <- 0;
  if c.listen != listen then c.listen <- listen

(* Take a connection off the env's free list, or make one. *)
let make_conn env ~local_ip ~local_port ~sndq_limit ~rcv_buf_limit ~listen
    ~state =
  let sp = env.spare in
  let c =
    let c = sp.free in
    if c == null_conn then blank_conn ()
    else begin
      sp.free <- c.link;
      sp.nfree <- sp.nfree - 1;
      c.link <- null_conn;
      c
    end
  in
  sp.live <- sp.live + 1;
  init c env ~local_ip ~local_port ~sndq_limit ~rcv_buf_limit ~listen ~state;
  c

(* ------------------------------------------------------------------ *)
(* Queue rows                                                           *)
(* ------------------------------------------------------------------ *)

(* Double the pool (16 rows at first), threading the new rows onto the
   free list. *)
let rows_grow rs =
  let cap = Array.length rs.r_next in
  let n = Int.max 16 cap in
  (* alloc: cold — amortized growth *)
  rs.r_seq <- Array.append rs.r_seq (Array.make n 0);
  (* alloc: cold — amortized growth *)
  rs.r_pay <- Array.append rs.r_pay (Array.make n Packet.empty_payload);
  (* alloc: cold — amortized growth *)
  rs.r_next <- Array.append rs.r_next (Array.make n rs.r_free);
  for i = cap to cap + n - 2 do
    rs.r_next.(i) <- i + 1
  done;
  rs.r_free <- cap


let row_free rs r =
  if rs.r_pay.(r) != Packet.empty_payload then
    rs.r_pay.(r) <- Packet.empty_payload;
  rs.r_next.(r) <- rs.r_free;
  rs.r_free <- r

(* Append a row holding [seq] and [payload] to the queue whose tail is
   [tl]; the new tail. *)
let q_add rs tl seq payload =
  if rs.r_free < 0 then rows_grow rs;
  let r = rs.r_free in
  rs.r_free <- rs.r_next.(r);
  rs.r_seq.(r) <- seq;
  rs.r_pay.(r) <- payload;
  if tl < 0 then rs.r_next.(r) <- r
  else begin
    rs.r_next.(r) <- rs.r_next.(tl);
    rs.r_next.(tl) <- r
  end;
  r

(* Free the head of the non-empty queue whose tail is [tl]; the new
   tail. *)
let q_drop rs tl =
  let hd = rs.r_next.(tl) in
  let tl = if hd = tl then -1 else (rs.r_next.(tl) <- rs.r_next.(hd); tl) in
  row_free rs hd;
  tl

let rec q_clear rs tl = if tl < 0 then -1 else q_clear rs (q_drop rs tl)

(* A connection that is gone frees its send-side rows; its receive queue
   stays readable until the application closes it. *)
let free_send c =
  c.sndq <- q_clear c.env.rows c.sndq;
  c.rtxq <- q_clear c.env.rows c.rtxq

(* ------------------------------------------------------------------ *)
(* Accept queue and pool                                                *)
(* ------------------------------------------------------------------ *)

(* Append an established child to its listener's accept queue. *)
let accept_push l c =
  let q = l.listen in
  let tl = q.aq_tail in
  if tl == null_conn then c.link <- c
  else begin
    c.link <- tl.link;
    tl.link <- c
  end;
  q.aq_tail <- c;
  q.aq_len <- q.aq_len + 1

let accept_pop l =
  let q = l.listen in
  let tl = q.aq_tail in
  if tl == null_conn then null_conn
  else begin
    let hd = tl.link in
    if hd == tl then q.aq_tail <- null_conn else tl.link <- hd.link;
    hd.link <- null_conn;
    q.aq_len <- q.aq_len - 1;
    hd
  end

(* What a use of a recycled connection raises: one preallocated value. *)
let stale = Invalid_argument "Tcp: connection recycled or still in use"

(* ------------------------------------------------------------------ *)
(* Helpers                                                              *)
(* ------------------------------------------------------------------ *)

let advertised_window c = Int.max 0 (c.rcv_buf_limit - c.rcvq_bytes)

let count_retransmit c =
  c.env.totals.retransmits <- c.env.totals.retransmits + 1

let segs_sent c = c.env.totals.segs_sent

let segment c ~seq fl payload =
  if c.rport < 0 then
    invalid_arg "Tcp: connection has no remote endpoint"; (* alloc: cold — error path *)
  c.env.totals.segs_sent <- c.env.totals.segs_sent + 1;
  c.last_advertised_wnd <- advertised_window c;
  Parena.tcp c.env.pool ~src:c.local_ip ~dst:c.rip ~src_port:c.local_port
    ~dst_port:c.rport ~seq ~ack_no:c.rcv_nxt ~flags:fl
    ~window:(Int.min 65_535 c.last_advertised_wnd) payload

let send_ack c =
  c.env.emit (segment c ~seq:c.snd_nxt Packet.flags_ack Packet.empty_payload)

(* A received segment's flag, read from its row. *)
let[@inline] has p r bit = Parena.flags p r land bit <> 0

let send_rst_for p r ~emit =
  (* Standalone RST in response to a segment for a nonexistent connection. *)
  match Parena.proto p r with
  | Parena.Tcp when not (has p r Packet.rst) ->
      let seg_len =
        Parena.payload_len p r
        + (if has p r Packet.syn then 1 else 0)
        + if has p r Packet.fin then 1 else 0
      in
      emit
        (Parena.tcp p ~src:(Parena.dst p r) ~dst:(Parena.src p r)
           ~src_port:(Parena.dport p r) ~dst_port:(Parena.sport p r)
           ~seq:(if has p r Packet.ack then Parena.ack_no p r else 0)
           ~ack_no:(Parena.seq p r + seg_len)
           ~flags:Packet.flags_rst_ack ~window:0 Packet.empty_payload)
  | Parena.Tcp | Parena.Udp | Parena.Icmp -> ()

let timer_conn tm = tm.tconn

let timer_gen tm = tm.tgen

let timer_armed tm = tm.armed

(* Arm (or re-arm) a persistent timer: bump the generation so any expiry
   already in flight goes stale, cancel the superseded engine event, stage
   the new deadline in the engine's cell and schedule it.  Inlined, so a
   computed [delay] is never boxed: no allocation. *)
let[@inline] arm_timer c tm ~delay fire =
  tm.tgen <- tm.tgen + 1;
  if tm.armed then c.env.stop_timer tm;
  tm.armed <- true;
  tm.on_fire <- fire;
  c.env.deadline.(0) <- c.env.clock.(0) +. delay;
  c.env.start_timer tm

let halt_timer c tm =
  if tm.armed then begin
    tm.tgen <- tm.tgen + 1;
    tm.armed <- false;
    c.env.stop_timer tm
  end

(* Kernel entry point: deliver an expiry whose engine event fired at
   generation [gen].  A stop or re-arm since then makes it stale. *)
let timer_fired tm ~gen =
  if tm.armed && tm.tgen = gen then begin
    tm.armed <- false;
    tm.on_fire (timer_conn tm)
  end

let in_flight c = c.snd_nxt - c.snd_una

let send_window c = Int.min c.snd_wnd (int_of_float c.fl.cwnd)

(* ssthresh = max (2 MSS, in_flight / 2), spelled out: [Float.max]'s
   result would be boxed. *)
let halve_ssthresh c =
  let floor = float_of_int (2 * c.env.mss) and half = float_of_int (in_flight c) /. 2. in
  c.fl.ssthresh <- (if half > floor then half else floor)

(* ------------------------------------------------------------------ *)
(* Retransmission timer                                                 *)
(* ------------------------------------------------------------------ *)

let rec arm_rtx c =
  arm_timer c c.rtx_timer
    ~delay:(c.fl.rto *. float_of_int (1 lsl Int.min c.backoff 6))
    on_rtx_timeout

and disarm_rtx c = halt_timer c c.rtx_timer

and on_rtx_timeout c =
  match c.state with
  | Closed | Time_wait | Listen -> ()
  | Syn_sent ->
      if c.syn_retries >= c.env.max_syn_retries then begin
        enter_closed c;
        c.env.on_connect_failed c
      end
      else begin
        c.syn_retries <- c.syn_retries + 1;
        c.backoff <- c.backoff + 1;
        c.timing_seq <- -1 (* Karn: the SYN-ACK must not time the first SYN *);
        count_retransmit c;
        c.env.emit
          (segment c ~seq:c.snd_una Packet.flags_syn Packet.empty_payload);
        arm_rtx c
      end
  | Syn_received ->
      if c.syn_retries >= c.env.max_syn_retries then begin
        (* Give up on the embryonic connection. *)
        unpend c;
        enter_closed c
      end
      else begin
        c.syn_retries <- c.syn_retries + 1;
        c.backoff <- c.backoff + 1;
        count_retransmit c;
        c.env.emit
          (segment c ~seq:c.snd_una Packet.flags_syn_ack Packet.empty_payload);
        arm_rtx c
      end
  | Established | Fin_wait_1 | Fin_wait_2 | Close_wait | Last_ack | Closing ->
      (* Timeout: collapse the congestion window, retransmit the oldest
         outstanding segment, back off. *)
      c.timing_seq <- -1 (* Karn: do not sample retransmitted segments *);
      halve_ssthresh c;
      c.fl.cwnd <- float_of_int c.env.mss;
      c.dup_acks <- 0;
      c.backoff <- c.backoff + 1;
      retransmit_oldest c;
      arm_rtx c

and retransmit_oldest c =
  if c.rtxq >= 0 then begin
    let rs = c.env.rows in
    let hd = rs.r_next.(c.rtxq) in
    let seq = rs.r_seq.(hd) and payload = rs.r_pay.(hd) in
    count_retransmit c;
    (* Only the head's unacknowledged tail. *)
    let acked = Int.max 0 (c.snd_una - seq) in
    let payload =
      if acked = 0 then payload
      else Payload.sub payload acked (Payload.length payload - acked)
    in
    c.env.emit (segment c ~seq:(seq + acked) Packet.flags_ack payload)
  end
  else if c.fin_queued && c.fin_seq >= 0 && c.snd_una <= c.fin_seq then begin
    count_retransmit c;
    c.env.emit
      (segment c ~seq:c.fin_seq Packet.flags_fin_ack Packet.empty_payload)
  end

(* ------------------------------------------------------------------ *)
(* Output engine                                                        *)
(* ------------------------------------------------------------------ *)

and output c =
  (* Send as much queued data as the windows permit, then the FIN. *)
  let sent = send_more c false in
  if send_fin c || sent then begin
    c.backoff <- 0;
    arm_rtx c
  end;
  (* Zero-window persist: make sure we eventually probe. *)
  if c.unsent_bytes > 0 && send_window c <= 0 && in_flight c = 0
     && not (timer_armed c.persist_timer)
  then arm_timer c c.persist_timer ~delay:5_000_000. on_persist_timeout

(* Emit MSS segments while the windows permit; [true] once any went. *)
and send_more c progress =
  let can = send_window c - in_flight c in
  if can > 0 && c.unsent_bytes > 0 then begin
    let take = Int.min (Int.min can c.env.mss) c.unsent_bytes in
    let payload = take_unsent c take in
    let seq = c.snd_nxt in
    c.rtxq <- q_add c.env.rows c.rtxq seq payload;
    c.snd_nxt <- c.snd_nxt + take;
    c.env.totals.bytes_sent <- c.env.totals.bytes_sent + take;
    if c.timing_seq < 0 then begin
      c.timing_seq <- seq + take;
      c.fl.timing_sent <- c.env.clock.(0)
    end;
    (* PSH only on the segment that drains the send queue (BSD's
       TF_MORETOCOME sense): mid-buffer segments leave it clear, which
       is what lets a receive-offload engine aggregate them. *)
    let flags =
      if c.unsent_bytes = 0 then Packet.flags_ack_psh else Packet.flags_ack
    in
    c.env.emit (segment c ~seq flags payload);
    send_more c true
  end
  else progress

(* The FIN rides after all data has been sent; [true] if it went now. *)
and send_fin c =
  if c.fin_queued && c.unsent_bytes = 0 && c.fin_seq < 0 then begin
    c.fin_seq <- c.snd_nxt;
    c.snd_nxt <- c.snd_nxt + 1;
    c.env.emit
      (segment c ~seq:c.fin_seq Packet.flags_fin_ack Packet.empty_payload);
    true
  end
  else false

and on_persist_timeout c =
  if c.unsent_bytes > 0 && send_window c <= 0 && in_flight c = 0 then begin
    (* Probe with one byte. *)
    let payload = take_unsent c 1 in
    let seq = c.snd_nxt in
    c.rtxq <- q_add c.env.rows c.rtxq seq payload;
    c.snd_nxt <- c.snd_nxt + 1;
    c.env.emit (segment c ~seq Packet.flags_ack payload);
    arm_rtx c
  end

(* Remove exactly [n] bytes from the head of the unsent queue.  The usual
   case, a head that covers them, builds no list. *)
and take_unsent c n =
  c.unsent_bytes <- c.unsent_bytes - n;
  if Payload.length (unsent_head c) - c.unsent_off >= n then take_part c n
  else Payload.concat (take_parts c n [])

and unsent_head c = c.env.rows.r_pay.(c.env.rows.r_next.(c.sndq))

(* Take [n] bytes at [unsent_off] from the unsent head, dequeuing it when
   they are its last. *)
and take_part c n =
  let p = unsent_head c and off = c.unsent_off in
  if off + n = Payload.length p then begin
    c.sndq <- q_drop c.env.rows c.sndq;
    c.unsent_off <- 0;
    if off = 0 then p else Payload.sub p off n
  end
  else begin
    c.unsent_off <- off + n;
    Payload.sub p off n
  end

and take_parts c n acc =
  if n = 0 then List.rev acc (* alloc: cold — a segment spanning several writes *)
  else begin
    let k = Int.min n (Payload.length (unsent_head c) - c.unsent_off) in
    (* alloc: cold — a segment spanning several writes *)
    take_parts c (n - k) (take_part c k :: acc)
  end

(* ------------------------------------------------------------------ *)
(* State transitions                                                    *)
(* ------------------------------------------------------------------ *)

and enter_closed c =
  disarm_rtx c;
  halt_timer c c.persist_timer;
  free_send c;
  if c.state <> Closed then begin
    c.state <- Closed;
    c.env.on_closed c
  end

(* The retransmission timer is idle from here to the end of the
   connection's life, so TIME_WAIT reuses its record as the 2MSL clock. *)
and enter_time_wait c =
  c.state <- Time_wait;
  disarm_rtx c;
  c.env.on_time_wait c;
  arm_timer c c.rtx_timer ~delay:c.env.time_wait_duration on_time_wait_expire

and on_time_wait_expire c = if c.state = Time_wait then enter_closed c

(* ------------------------------------------------------------------ *)
(* RTT estimation (Jacobson/Karels; Karn: [timing_seq = -1])           *)
(* ------------------------------------------------------------------ *)

(* Sample the RTT of the timed segment, acknowledged now. *)
and rtt_sample c =
  let f = c.fl in
  let sample = c.env.clock.(0) -. f.timing_sent in
  if f.srtt < 0. then begin
    f.srtt <- sample;
    f.rttvar <- sample /. 2.
  end
  else begin
    let err = sample -. f.srtt in
    f.srtt <- f.srtt +. (err /. 8.);
    let dev = if err < 0. then -.err else err in
    f.rttvar <- f.rttvar +. ((dev -. f.rttvar) /. 4.)
  end;
  (* max and abs spelled out: [Float.max]'s and [Float.abs]'s results
     would be boxed *)
  let rto = f.srtt +. (4. *. f.rttvar) in
  f.rto <- (if rto > 200_000. then rto else 200_000.)

(* ------------------------------------------------------------------ *)
(* Input                                                                *)
(* ------------------------------------------------------------------ *)

(* Trim the fully acknowledged segments off the retransmission queue. *)
and trim_unacked c ack =
  let rs = c.env.rows in
  if c.rtxq >= 0 then begin
    let hd = rs.r_next.(c.rtxq) in
    if rs.r_seq.(hd) + Payload.length rs.r_pay.(hd) <= ack then begin
      c.rtxq <- q_drop rs c.rtxq;
      trim_unacked c ack
    end
  end

and process_ack c p r =
  let ack = Parena.ack_no p r in
  c.snd_wnd <- Parena.window p r;
  if ack > c.snd_una && ack <= c.snd_nxt then begin
    (* New data acknowledged. *)
    let acked = ack - c.snd_una in
    c.snd_una <- ack;
    c.dup_acks <- 0;
    c.backoff <- 0;
    (* RTT sample (Karn: only when the timed segment wasn't retransmitted). *)
    if c.timing_seq >= 0 && ack >= c.timing_seq then begin
      rtt_sample c;
      c.timing_seq <- -1
    end;
    trim_unacked c ack;
    (* Congestion window growth. *)
    let f = c.fl and fmss = float_of_int c.env.mss in
    if f.cwnd < f.ssthresh then f.cwnd <- f.cwnd +. float_of_int acked
    else f.cwnd <- f.cwnd +. (fmss *. fmss /. f.cwnd);
    if c.rtxq < 0
       && not (c.fin_queued && c.fin_seq >= 0 && ack <= c.fin_seq)
    then disarm_rtx c
    else arm_rtx c;
    c.env.on_writable c
  end
  else if ack = c.snd_una && in_flight c > 0 then begin
    c.dup_acks <- c.dup_acks + 1;
    if c.dup_acks = 3 then begin
      (* Fast retransmit / recovery (simplified: halve and resend). *)
      halve_ssthresh c;
      c.fl.cwnd <- c.fl.ssthresh;
      c.timing_seq <- -1;
      retransmit_oldest c
    end
  end

and deliver_data c p r =
  let len = Parena.payload_len p r in
  if len = 0 then ()
  else begin
    let payload = Parena.payload p r in
    let seq = Parena.seq p r in
    if seq = c.rcv_nxt then begin
      (* In-order: accept (respecting our buffer), then drain the
         out-of-order list. *)
      let room = advertised_window c in
      let take = Int.min len room in
      if take > 0 then accept_in_order c payload len take;
      drain_ooo c;
      c.env.on_readable c
    end
    else if seq > c.rcv_nxt then begin
      (* Out of order: stash (bounded by the receive buffer size). *)
      if not (List.mem_assoc seq c.ooo)
         && List.fold_left (fun a (_, p) -> a + Payload.length p) 0 c.ooo
            < c.rcv_buf_limit
      then c.ooo <- (seq, payload) :: c.ooo (* alloc: cold — out of order *)
    end;
    (* else: duplicate of already-received data; just re-ack *)
    send_ack c
  end

(* Queue the first [take] of [len] bytes of [payload] for the app.  Data
   that arrives after the app has closed is counted but kept in no row:
   nobody will read it. *)
and accept_in_order c payload len take =
  if not c.fin_queued then begin
    let part = if take = len then payload else Payload.sub payload 0 take in
    c.rcvq <- q_add c.env.rows c.rcvq 0 part
  end;
  c.rcvq_bytes <- c.rcvq_bytes + take;
  c.env.totals.bytes_rcvd <- c.env.totals.bytes_rcvd + take;
  c.rcv_nxt <- c.rcv_nxt + take

(* Move the out-of-order segments that now follow [rcv_nxt] in order. *)
and drain_ooo c =
  (* alloc: cold — out of order *)
  match List.assoc_opt c.rcv_nxt c.ooo with
  | Some p ->
      c.ooo <- List.remove_assoc c.rcv_nxt c.ooo;
      let len = Payload.length p in
      let take = Int.min len (advertised_window c) in
      if take > 0 then begin
        accept_in_order c p len take;
        if take = len then drain_ooo c
      end
  | None -> ()

and process_fin c p r =
  let fin_seq = Parena.seq p r + Parena.payload_len p r in
  if fin_seq = c.rcv_nxt then begin
    c.rcv_nxt <- c.rcv_nxt + 1;
    c.fin_received <- true;
    send_ack c;
    (match c.state with
     | Established ->
         c.state <- Close_wait;
         c.env.on_readable c (* EOF *)
     | Fin_wait_1 ->
         (* Our FIN not yet acked: simultaneous close. *)
         c.state <- Closing
     | Fin_wait_2 ->
         c.env.on_readable c;
         enter_time_wait c
     | Syn_received | Listen | Syn_sent | Close_wait | Last_ack | Closing
     | Time_wait | Closed -> ())
  end
  else send_ack c

and established_input c p r =
  process_ack c p r;
  (* Post-ACK state transitions for our own FIN. *)
  (match c.state with
   | Fin_wait_1 when c.fin_seq >= 0 && c.snd_una > c.fin_seq ->
       c.state <- Fin_wait_2
   | Closing when c.fin_seq >= 0 && c.snd_una > c.fin_seq -> enter_time_wait c
   | Last_ack when c.fin_seq >= 0 && c.snd_una > c.fin_seq -> enter_closed c
   | Established | Fin_wait_1 | Fin_wait_2 | Close_wait | Closing | Last_ack
   | Syn_received | Listen | Syn_sent | Time_wait | Closed -> ());
  deliver_data c p r;
  if has p r Packet.fin then process_fin c p r;
  output c

and input c p r =
  match Parena.proto p r with
  | Parena.Udp | Parena.Icmp ->
      invalid_arg "Tcp.input: not a TCP segment" (* alloc: cold — error path *)
  | Parena.Tcp ->
      c.env.totals.segs_rcvd <- c.env.totals.segs_rcvd + 1;
      if has p r Packet.rst then begin
        match c.state with
        | Closed | Listen | Time_wait -> ()
        | Syn_sent | Syn_received | Established | Fin_wait_1 | Fin_wait_2
        | Close_wait | Last_ack | Closing ->
            if c.state = Syn_received then unpend c;
            disarm_rtx c;
            halt_timer c c.persist_timer;
            free_send c;
            c.state <- Closed;
            c.env.on_reset c;
            c.env.on_closed c
      end
      else
        match c.state with
        | Closed -> send_rst_for p r ~emit:c.env.emit
        | Listen -> listener_input c p r
        | Syn_sent ->
            if has p r Packet.syn && has p r Packet.ack
               && Parena.ack_no p r = c.snd_nxt
            then begin
              c.snd_una <- Parena.ack_no p r;
              c.rcv_nxt <- Parena.seq p r + 1;
              c.snd_wnd <- Parena.window p r;
              c.state <- Established;
              disarm_rtx c;
              if c.timing_seq >= 0 then rtt_sample c;
              c.timing_seq <- -1;
              send_ack c;
              c.env.on_established c;
              output c
            end
            (* simultaneous open not modelled *)
        | Syn_received ->
            if has p r Packet.syn && not (has p r Packet.ack) then
              (* Duplicate SYN: re-send SYN-ACK. *)
              c.env.emit
                (segment c ~seq:c.snd_una Packet.flags_syn_ack
                   Packet.empty_payload)
            else if has p r Packet.ack && Parena.ack_no p r = c.snd_nxt
            then begin
              c.snd_una <- Parena.ack_no p r;
              c.snd_wnd <- Parena.window p r;
              c.state <- Established;
              disarm_rtx c;
              let l = c.parent in
              if l != null_conn then begin
                unpend c;
                accept_push l c;
                c.env.on_accept_ready l c
              end;
              (* The ACK may carry data. *)
              if Parena.payload_len p r > 0 || has p r Packet.fin then
                established_input c p r
            end
        | Established | Fin_wait_1 | Fin_wait_2 | Close_wait | Last_ack
        | Closing ->
            if has p r Packet.syn then
              (* Stray SYN on a synchronized connection: re-ack. *)
              send_ack c
            else established_input c p r
        | Time_wait ->
            (* Re-ack (e.g. retransmitted FIN). *)
            if has p r Packet.fin then send_ack c

(* An embryonic child leaves its listener's count. *)
and unpend c =
  let q = c.parent.listen in
  if c.parent != null_conn then q.syn_pending <- Int.max 0 (q.syn_pending - 1)

and listener_input l p r =
  let q = l.listen in
  if has p r Packet.syn && not (has p r Packet.ack) then begin
    if q.syn_pending + q.aq_len >= q.backlog then begin
      (* Backlog exceeded: BSD silently discards the SYN (after having paid
         for its processing — the crux of Figure 5). *)
      q.syn_drops_backlog <- q.syn_drops_backlog + 1;
      l.env.totals.backlog_drops <- l.env.totals.backlog_drops + 1
    end
    else begin
      let c =
        make_conn l.env ~local_ip:l.local_ip ~local_port:l.local_port
          ~sndq_limit:l.sndq_limit ~rcv_buf_limit:l.rcv_buf_limit
          ~listen:no_listen ~state:Syn_received
      in
      c.rip <- Parena.src p r;
      c.rport <- Parena.sport p r;
      c.parent <- l;
      c.rcv_nxt <- Parena.seq p r + 1;
      c.snd_wnd <- Parena.window p r;
      c.snd_una <- 0;
      c.snd_nxt <- 1 (* our SYN consumes sequence 0 *);
      q.syn_pending <- q.syn_pending + 1;
      l.env.on_syn_received l c;
      c.env.emit (segment c ~seq:0 Packet.flags_syn_ack Packet.empty_payload);
      arm_rtx c
    end
  end
  (* Anything else arriving at a listener that isn't for an existing child:
     ignore (the kernel demultiplexer sends RSTs for unknown segments). *)

(* ------------------------------------------------------------------ *)
(* API used by the socket layer                                         *)
(* ------------------------------------------------------------------ *)

let create_listener env ~local_ip ~local_port ?(sndq_limit = 32 * 1024)
    ?(rcv_buf_limit = 32 * 1024) ~backlog () =
  make_conn env ~local_ip ~local_port ~sndq_limit ~rcv_buf_limit
    ~listen:
      { backlog; aq_tail = null_conn; aq_len = 0; syn_pending = 0;
        syn_drops_backlog = 0 }
    ~state:Listen

let create_active env ~local_ip ~local_port ~remote:(rip, rport)
    ?(sndq_limit = 32 * 1024) ?(rcv_buf_limit = 32 * 1024) () =
  let c =
    make_conn env ~local_ip ~local_port ~sndq_limit ~rcv_buf_limit
      ~listen:no_listen ~state:Syn_sent
  in
  c.rip <- rip;
  c.rport <- rport;
  c.snd_una <- 0;
  c.snd_nxt <- 1;
  c.timing_seq <- 1;
  c.fl.timing_sent <- env.clock.(0);
  c.env.emit (segment c ~seq:0 Packet.flags_syn Packet.empty_payload);
  arm_rtx c;
  c

(* [send c payload] queues application data; returns the number of bytes
   accepted: 0 when the send buffer is full (the caller blocks), -1 when
   the connection cannot accept data. *)
let send c payload =
  match c.state with
  | Established | Close_wait ->
      let len = Payload.length payload in
      let queued = c.unsent_bytes + (c.snd_nxt - c.snd_una) in
      let room = c.sndq_limit - queued in
      if room <= 0 then 0
      else begin
        let take = Int.min room len in
        let part = if take = len then payload else Payload.sub payload 0 take in
        c.sndq <- q_add c.env.rows c.sndq 0 part;
        c.unsent_bytes <- c.unsent_bytes + take;
        output c;
        take
      end
  | Closed | Listen | Syn_sent | Syn_received | Fin_wait_1 | Fin_wait_2
  | Last_ack | Closing | Time_wait -> -1

(* Take the receive queue's head chunk, or its first [n] bytes. *)
let take_chunk c n =
  let rs = c.env.rows in
  let hd = rs.r_next.(c.rcvq) in
  let p = rs.r_pay.(hd) in
  let len = Payload.length p in
  c.rcvq_bytes <- c.rcvq_bytes - Int.min n len;
  if n >= len then begin
    c.rcvq <- q_drop rs c.rcvq;
    p
  end
  else begin
    rs.r_pay.(hd) <- Payload.sub p n (len - n);
    Payload.sub p 0 n
  end

let rec take_chunks c n =
  if n = 0 || c.rcvq < 0 then []
  else
    let p = take_chunk c n in
    p :: take_chunks c (n - Payload.length p) (* alloc: cold — several chunks *)

(* What {!recv} returns when nothing is buffered: a payload of its own,
   told apart by physical equality. *)
let no_data = Payload.Bytes (Bytes.create 0)

(* [recv c ~max] takes up to [max] buffered bytes as one payload: the
   head chunk itself when it holds them all or is all there is. *)
let recv c ~max:maxb =
  if c.rcvq < 0 then no_data
  else begin
    let p = take_chunk c maxb in
    let rest = maxb - Payload.length p in
    let payload =
      if rest = 0 || c.rcvq < 0 then p
      else Payload.concat (p :: take_chunks c rest) (* alloc: cold — several chunks *)
    in
    (* Window update: if our advertised window was closed (or nearly) and
       has now re-opened by an MSS, tell the sender. *)
    if advertised_window c - c.last_advertised_wnd >= c.env.mss then send_ack c;
    payload
  end

let at_eof c =
  c.fin_received
  || match c.state with
     | Closed | Time_wait | Last_ack | Closing -> true
     | Established | Listen | Syn_sent | Syn_received | Fin_wait_1 | Fin_wait_2
     | Close_wait -> false

let close c =
  (* The application reads no more: the rows of data it left unread go
     back to the pool.  [rcvq_bytes] keeps counting them, so the window
     advertised from here on is what it would have been. *)
  c.rcvq <- q_clear c.env.rows c.rcvq;
  match c.state with
  | Established ->
      c.state <- Fin_wait_1;
      c.fin_queued <- true;
      output c
  | Close_wait ->
      c.state <- Last_ack;
      c.fin_queued <- true;
      output c
  | Syn_sent | Syn_received ->
      if c.state = Syn_received then unpend c;
      enter_closed c
  | Listen -> enter_closed c
  | Closed | Fin_wait_1 | Fin_wait_2 | Last_ack | Closing | Time_wait -> ()

let abort c =
  (match c.state with
   | (Established | Syn_received | Fin_wait_1 | Fin_wait_2 | Close_wait
     | Closing | Last_ack) when c.rport >= 0 ->
       c.env.emit
         (segment c ~seq:c.snd_nxt Packet.flags_rst_ack Packet.empty_payload)
   | _ -> ());
  c.rcvq <- q_clear c.env.rows c.rcvq;
  enter_closed c

let accept_ready l = l.listen.aq_len > 0

let backlog_full l =
  let q = l.listen in
  q.syn_pending + q.aq_len >= q.backlog

(* Back to the env's free list: a connection TCP is done with and nothing
   else holds.  Its unread data, a reset connection's, goes back to the
   row pool. *)
let recycle c =
  if c.id < 0 || c.state <> Closed || c.link != null_conn then raise stale;
  let sp = c.env.spare in
  free_send c;
  c.rcvq <- q_clear c.env.rows c.rcvq;
  c.ooo <- [];
  c.id <- -1;
  if c.parent != null_conn then c.parent <- null_conn;
  if c.listen != no_listen then c.listen <- no_listen;
  c.link <- sp.free;
  sp.free <- c;
  sp.nfree <- sp.nfree + 1;
  sp.live <- sp.live - 1

let state c = c.state

let counters env =
  let t = env.totals in
  [ ("segs_sent", t.segs_sent); ("segs_rcvd", t.segs_rcvd);
    ("bytes_sent", t.bytes_sent); ("bytes_rcvd", t.bytes_rcvd);
    ("retransmits", t.retransmits); ("syn_drops_backlog", t.backlog_drops) ]
