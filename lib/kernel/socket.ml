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
  id : int;
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
   draws no socket id. *)
let none =
  { id = -1; kind = Stream; port = -1; remote = None; udp_rcv = Queue.create ();
    recv_wait = Proc.waitq "none"; send_wait = Proc.waitq "none";
    accept_wait = Proc.waitq "none"; chan = None; tcp = Lrp_proto.Tcp.null_conn;
    tcp_id = -1; closed = false; stats = new_stats () }

let shared () =
  { sh_rcv = Queue.create (); sh_accept = Proc.waitq "accept";
    sh_stats = new_stats () }

(* Socket ids come from the per-engine id space installed on this domain
   (Lrp_engine.Idspace): per-cell sequences, independent of other
   simulations or shards allocating concurrently. *)

let create kind udp_rcv accept_wait stats =
  let id = Lrp_engine.Idspace.next_sock_id () in
  { id; kind; port = -1; remote = None; udp_rcv;
    recv_wait = Proc.waitq "recv"; send_wait = Proc.waitq "send";
    accept_wait; chan = None; tcp = Lrp_proto.Tcp.null_conn;
    tcp_id = Lrp_proto.Tcp.null_conn.Lrp_proto.Tcp.id; closed = false;
    stats }

let dgram () = create Dgram (Queue.create ()) (Proc.waitq "accept") (new_stats ())

let stream sh = create Stream sh.sh_rcv sh.sh_accept sh.sh_stats

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
