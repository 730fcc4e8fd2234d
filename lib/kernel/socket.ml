(** Socket objects.

    Pure state: behaviour lives in {!Kernel} and {!Api}.  A socket's receive
    plumbing depends on the architecture:

    - under BSD and Early-Demux, [udp_rcv] holds the frame-pool rows of
      fully-processed datagrams put there by software-interrupt protocol
      processing;
    - under LRP, raw packets sit in the socket's NI [chan] until a receiver
      processes them lazily; [udp_rcv] then only holds datagrams processed
      on its behalf by the minimal-priority helper thread (section 3.3);
    - TCP sockets delegate stream state to their {!Lrp_proto.Tcp.conn};
      reassembled stream data lives in the connection's receive buffer. *)

open Lrp_net
open Lrp_sim

type kind = Dgram | Stream

type stats = {
  mutable rx_delivered : int;   (* datagrams handed to the application *)
  mutable rx_sockq_drops : int; (* datagrams dropped at a full socket queue *)
  mutable tx_packets : int;
  mutable rx_hwm : int;         (* deepest socket-queue occupancy observed *)
}

type t = {
  mutable id : int;
  kind : kind;
  mutable port : int;  (* -1 until bound *)
  mutable remote : (Packet.ip * int) option;  (* connected-UDP peer *)
  udp_rcv : Parena.handle Queue.t;
      (* ready datagrams' rows, each held until copyout (charged the
         mbufs backing it under eager processing) *)
  recv_wait : Proc.waitq;
  send_wait : Proc.waitq;
  mutable accept_wait : Proc.waitq;  (* a listening socket's own *)
  mutable chan : Lrp_core.Channel.t option;  (* LRP architectures *)
  mutable tcp : Lrp_proto.Tcp.conn;  (* [Tcp.null_conn] until attached *)
  mutable tcp_id : int;  (* [tcp]'s id when it was attached *)
  mutable closed : bool;
  stats : stats;
  (* A stream socket's slot in its kernel's table and the generation it
     is open under, packed as its handle; -1 for the others. *)
  mutable handle : int;
  (* What holds its slot: the open descriptor until its close is done,
     and its connection's endpoint while that names it. *)
  mutable refs : int;
  (* The process that owns it, and its neighbours on that process's list
     of owned stream sockets ([none] at either end); -1 for nobody. *)
  mutable owner_pid : int;
  mutable own_prev : t;
  mutable own_next : t;
}

(* What the stream sockets of a kernel share and never write: a
   datagram queue, statistics, and an accept wait queue, which a socket
   keeps until it listens.  Only datagram sockets use the first two. *)
type shared = {
  sh_rcv : Parena.handle Queue.t;
  sh_accept : Proc.waitq;
  sh_stats : stats;
}

let new_stats () =
  { rx_delivered = 0; rx_sockq_drops = 0; tx_packets = 0; rx_hwm = 0 }

(* The socket of a connection that has none yet: never written, and it
   draws no socket id.  The ends of an owner's list link to it. *)
let rec none =
  { id = -1; kind = Stream; port = -1; remote = None;
    udp_rcv = Queue.create (); recv_wait = Proc.waitq "none";
    send_wait = Proc.waitq "none"; accept_wait = Proc.waitq "none";
    chan = None; tcp = Lrp_proto.Tcp.null_conn; tcp_id = -1; closed = false;
    stats = new_stats (); handle = -1; refs = 0; owner_pid = -1;
    own_prev = none; own_next = none }

let make ~id kind udp_rcv accept_wait stats ~closed ~handle =
  (* alloc: cold — once per datagram socket or pooled stream socket *)
  { id; kind; port = -1; remote = None; udp_rcv;
    recv_wait = Proc.waitq "recv"; send_wait = Proc.waitq "send";
    accept_wait; chan = None; tcp = Lrp_proto.Tcp.null_conn;
    tcp_id = Lrp_proto.Tcp.null_conn.Lrp_proto.Tcp.id; closed; stats;
    handle; refs = 0; owner_pid = -1; own_prev = none; own_next = none }

(* The socket a stale handle finds: closed, so every call on it answers
   as on a closed socket; never written. *)
let stale =
  make ~id:(-1) Stream (Queue.create ()) (Proc.waitq "stale") (new_stats ())
    ~closed:true ~handle:(-1)

(* Socket ids come from the per-engine id space installed on this domain
   (Lrp_engine.Idspace): per-cell sequences, independent of other
   simulations or shards allocating concurrently. *)

let dgram () =
  make ~id:(Lrp_engine.Idspace.next_sock_id ()) Dgram (Queue.create ())
    (Proc.waitq "accept") (new_stats ()) ~closed:false ~handle:(-1)

(* --- the stream-socket table ---------------------------------------- *)

type stream = int

(* A handle packs its slot in the low [slot_bits] and the slot's
   generation above them, as an engine handle does.  Freeing a slot moves
   its record's handle to the next generation, so every handle issued
   for it before stops matching. *)
let slot_bits = 24
let slot_mask = (1 lsl slot_bits) - 1

type table = {
  sh : shared;
  mutable socks : t array;  (* by slot *)
  mutable nslots : int;
  free : int Lrp_det.Pool.t;  (* free slots; -1 for none *)
}

let table () =
  { sh = { sh_rcv = Queue.create (); sh_accept = Proc.waitq "accept";
           sh_stats = new_stats () };
    socks = [||]; nslots = 0; free = Lrp_det.Pool.create (-1) }

(* A free slot's record made new, or a new slot; either way the socket
   draws the next socket id. *)
let open_stream tb =
  let id = Lrp_engine.Idspace.next_sock_id () in
  let slot = Lrp_det.Pool.take tb.free in
  if slot >= 0 then begin
    let s = tb.socks.(slot) in
    s.id <- id;
    s.port <- -1;
    s.accept_wait <- tb.sh.sh_accept;
    s.tcp <- Lrp_proto.Tcp.null_conn;
    s.tcp_id <- Lrp_proto.Tcp.null_conn.Lrp_proto.Tcp.id;
    s.closed <- false;
    s.refs <- 1;
    s.handle
  end
  else begin
    let slot = tb.nslots in
    if slot = Array.length tb.socks then begin
      (* alloc: cold — amortized growth *)
      let a = Array.make (Int.max 8 (2 * slot)) none in
      Array.blit tb.socks 0 a 0 slot;
      tb.socks <- a
    end;
    let s =
      make ~id Stream tb.sh.sh_rcv tb.sh.sh_accept tb.sh.sh_stats
        ~closed:false ~handle:slot
    in
    s.refs <- 1;
    tb.socks.(slot) <- s;
    tb.nslots <- slot + 1;
    slot
  end

let lookup tb (h : stream) =
  let slot = h land slot_mask in
  if slot < tb.nslots then begin
    let s = tb.socks.(slot) in
    if s.handle = h then s else stale
  end
  else stale

(* The last ref frees the slot: the record's handle moves to the next
   generation, so every handle issued for it before stops matching. *)
let unref tb s =
  s.refs <- s.refs - 1;
  if s.refs = 0 then begin
    Lrp_det.Pool.give tb.free (s.handle land slot_mask);
    s.handle <- s.handle + (1 lsl slot_bits)
  end

let census tb =
  let free = Lrp_det.Pool.spare tb.free in
  (tb.nslots - free, free)

(* A connection goes back to its pool only once its socket is closed, so
   an open socket's connection still has the id it was attached with.  A
   closed socket whose connection has been recycled answers as a closed
   connection does: with [Tcp.null_conn]. *)
let conn t =
  let c = t.tcp in
  if c.Lrp_proto.Tcp.id = t.tcp_id then c
  else if t.closed then Lrp_proto.Tcp.null_conn
  else raise Lrp_proto.Tcp.stale

(* The socket-queue limit, in datagrams. *)
let udp_rcv_limit = 32

(* The socket queue has room for another ready datagram. *)
let has_room t = Queue.length t.udp_rcv < udp_rcv_limit

(* Append a ready datagram's row to the socket queue (BSD softint path,
   NAPI poll, or LRP's lazy receive); the caller has checked [has_room].
   The queue cell is the one allocation the receive path keeps: copyout
   fills the caller's own datagram record ([Api.recvfrom]). *)
let deposit_udp t row =
  Queue.add row t.udp_rcv;
  let depth = Queue.length t.udp_rcv in
  if depth > t.stats.rx_hwm then t.stats.rx_hwm <- depth
