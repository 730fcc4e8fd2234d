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

type state =
    Closed
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
(** A persistent, re-armable protocol timer (see the implementation notes:
    one record per connection per timer kind, zero-allocation re-arm,
    engine-level cancellation, generation-guarded expiry delivery). *)
type timer = {
  mutable armed : bool;
  mutable tgen : int;
  mutable cookie : Lrp_engine.Engine.handle;
      (** kernel scratch: the engine event backing the armed timer *)
  mutable on_fire : conn -> unit;
  mutable tconn : conn;  (** the owning connection *)
}
and env = {
  clock : float array;
      (** the engine's clock cell ({!Lrp_engine.Engine.clock_cell}),
          read-only: [clock.(0)] is now.  A cell, not a [unit -> float],
          whose every call would box its result *)
  deadline : float array;
      (** the engine's deadline cell ({!Lrp_engine.Engine.deadline_cell}):
          TCP writes a timer's absolute expiry [clock.(0) +. delay] into
          slot 0 immediately before calling [start_timer] *)
  pool : Lrp_net.Parena.t;
      (** the frame pool segments are written into (the kernel's) *)
  emit : Lrp_net.Parena.handle -> unit;
      (** transmit a segment's row: IP output owns it from then on *)
  start_timer : timer -> unit;
      (** arm the timer at the deadline staged in [deadline.(0)], in
          protocol-processing context (the kernel calls
          {!Lrp_engine.Engine.schedule_to_staged}); the kernel saves its
          event handle in [cookie] and must deliver the expiry via
          {!timer_fired} with the generation read at arm time *)
  stop_timer : timer -> unit;
      (** cancel the engine event behind [cookie] *)
  on_readable : conn -> unit;
  on_writable : conn -> unit;
  on_established : conn -> unit;
  on_accept_ready : conn -> conn -> unit;
  on_syn_received : conn -> conn -> unit;
  on_connect_failed : conn -> unit;
  on_reset : conn -> unit;
  on_time_wait : conn -> unit;
  on_closed : conn -> unit;
  mss : int;
  time_wait_duration : float;
  initial_rto : float;
  max_syn_retries : int;
  totals : totals;
  rows : rows;
  spare : spare;
}
and totals = {
  mutable segs_sent : int;
  mutable segs_rcvd : int;
  mutable bytes_sent : int;
  mutable bytes_rcvd : int;
  mutable retransmits : int;
  mutable backlog_drops : int;
}
(* [totals]: the traffic counters of every connection sharing an env since
   it was made, listeners and closed connections included (a kernel's
   [tcp.*] counters). *)
and rows
(* [rows]: the queue-row pool of every connection sharing an env — each
   connection's send, retransmission and receive queues are lists of its
   rows, named by one row index ([-1]: empty). *)
(* [spare]: the connection pool of every env sharing it — recycled
   connections linked through [link], and the connections it made that
   are not on that list. *)
and spare = {
  mutable free : conn;
  mutable nfree : int;  (** connections on the free list *)
  mutable live : int;  (** connections made and not recycled *)
}
and conn = {
  mutable env : env;
  mutable id : int;  (** -1 while on the free list *)
  mutable local_ip : Lrp_net.Packet.ip;
  mutable local_port : int;
  mutable rip : Lrp_net.Packet.ip;  (** remote address *)
  mutable rport : int;  (** remote port; -1 on a listener *)
  mutable state : state;
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable snd_wnd : int;
  fl : floats;
  mutable dup_acks : int;
  mutable rtxq : int;
      (** the sent segments, oldest first: a circular row queue named by
          its tail; the head's bytes below [snd_una] are acknowledged *)
  mutable sndq : int;  (** app data not yet segmented, likewise *)
  mutable unsent_off : int;  (** bytes of [sndq]'s head already sent *)
  mutable unsent_bytes : int;
  mutable sndq_limit : int;
  mutable fin_queued : bool;
  mutable fin_seq : int;
  mutable rcv_nxt : int;
  mutable ooo : (int * Lrp_net.Payload.t) list;  (** out-of-order segments *)
  mutable rcvq : int;  (** in-order data for the app, a row queue *)
  mutable rcvq_bytes : int;
  mutable rcv_buf_limit : int;
  mutable fin_received : bool;
  mutable last_advertised_wnd : int;
  rtx_timer : timer;
  persist_timer : timer;
  mutable backoff : int;
  mutable timing_seq : int;  (** ack that samples the RTT, or -1 *)
  mutable syn_retries : int;
  mutable listen : listen;  (** a listener's own; shared and empty on the others *)
  mutable parent : conn;  (** a passive child's listener, else {!null_conn} *)
  mutable link : conn;
      (** the next connection on its listener's accept queue or on the
          free list; {!null_conn} on neither *)
}
(* [listen]: the accept queue links the established children through
   [link], circular and named by its tail ({!null_conn} when empty), so
   a live connection is queued exactly when its [link] is not
   {!null_conn}. *)
and listen = {
  backlog : int;
  mutable aq_tail : conn;
  mutable aq_len : int;
  mutable syn_pending : int;
  mutable syn_drops_backlog : int;
}
(* [floats]: a connection's float state, in one all-float record: OCaml
   stores it flat, so writing a field does not box. *)
and floats = {
  mutable cwnd : float;
  mutable ssthresh : float;
  mutable srtt : float;  (** smoothed RTT in us; negative before a sample *)
  mutable rttvar : float;
  mutable rto : float;
  mutable timing_sent : float;  (** when the timed segment was sent *)
}

val state_name : state -> string

val new_totals : unit -> totals
(** Zeroed counters, for a new {!env}. *)

val new_rows : unit -> rows
(** An empty queue-row pool, for a new {!env}. *)

val new_spare : unit -> spare
(** An empty connection pool, for a new {!env}. *)

val null_conn : conn
(** A statically-allocated placeholder connection (id -1) for table and
    ring slots that hold none, and the [parent] of a connection that has
    none: never in the data path. *)

(** {1 Timer delivery (kernel side)} *)

val timer_conn : timer -> conn
(** The connection a timer belongs to (for LRP context routing). *)

val timer_gen : timer -> int
(** Current generation; the kernel reads it when the engine event fires and
    passes it back to {!timer_fired}. *)

val timer_armed : timer -> bool

val timer_fired : timer -> gen:int -> unit
(** Deliver an expiry, in protocol-processing context.  Dropped silently
    when the timer was stopped or re-armed after the engine event fired
    ([gen] no longer matches). *)


(** {1 Lifecycle} *)

val create_listener :
  env ->
  local_ip:Lrp_net.Packet.ip ->
  local_port:int ->
  ?sndq_limit:int -> ?rcv_buf_limit:int -> backlog:int -> unit -> conn
(** Passive open: a listening connection whose [backlog] bounds embryonic
    plus accepted-but-unclaimed children. *)

val create_active :
  env ->
  local_ip:Lrp_net.Packet.ip ->
  local_port:int ->
  remote:Lrp_net.Packet.ip * int ->
  ?sndq_limit:int -> ?rcv_buf_limit:int -> unit -> conn
(** Active open: emits the SYN and arms its retransmission timer. *)

(** {1 Input} *)

val input : conn -> Lrp_net.Parena.t -> Lrp_net.Parena.handle -> unit
(** Process one inbound segment, read from its row in the frame pool,
    for this connection (or listener); the caller keeps the row.  May
    emit segments, start timers and fire [env] callbacks.  Consumes no
    simulated CPU itself — the caller charges the cost in its own
    context (softint under BSD, APP thread or receive call under LRP).
    @raise Invalid_argument on a non-TCP packet. *)

val send_rst_for :
  Lrp_net.Parena.t -> Lrp_net.Parena.handle ->
  emit:(Lrp_net.Parena.handle -> unit) -> unit
(** Standalone RST in response to a segment (its row) that matches no
    connection, written into the segment's pool and handed to [emit]. *)

(** {1 Application side} *)

val send : conn -> Lrp_net.Payload.t -> int
(** Queue application data; the bytes accepted.  0 when the send buffer
    is full (callers loop / block), -1 if the connection cannot accept
    data. *)

val recv : conn -> max:int -> Lrp_net.Payload.t
(** Take up to [max] buffered stream bytes as one payload: the head
    chunk itself when it holds them or is all there is; {!no_data} when
    nothing is buffered.  Reading may emit a window update when the
    receive window re-opens by an MSS. *)

val no_data : Lrp_net.Payload.t
(** {!recv}'s "nothing buffered", told apart by physical equality. *)

val at_eof : conn -> bool
(** Nothing more will arrive: the peer's FIN is in, or the connection is
    past the states that receive.  Read it when {!recv} has no data. *)

val close : conn -> unit
(** Graceful close: queue a FIN after any pending data.  The application
    reads no more: unread data goes back to the row pool. *)

val abort : conn -> unit
(** Hard close: emit an RST and drop all state. *)

val backlog_full : conn -> bool
(** A listener's embryonic plus accepted-but-unclaimed children fill its
    backlog. *)

val accept_pop : conn -> conn
(** Dequeue an established child from a listener's accept queue;
    {!null_conn} when it is empty. *)

val accept_ready : conn -> bool

val state : conn -> state

(** {1 Pool} *)

val recycle : conn -> unit
(** Put a connection that nothing holds any more on its env's free list,
    where the next {!create_active}, {!create_listener} or passive open
    takes it with a fresh id.  Its unread data goes back to the row pool.
    @raise Invalid_argument ({!stale}) unless it is [Closed], on no
    accept queue and not already recycled. *)

val stale : exn
(** The one preallocated exception a use of a recycled connection
    raises. *)

val segs_sent : conn -> int
(** Segments sent by every connection of [conn]'s env: the difference
    across a call that acts on one connection counts its emissions. *)

val counters : env -> (string * int) list
(** The env's {!totals} as name/value pairs: segments and bytes in each
    direction, retransmits and backlog SYN drops. *)
