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

type kind = Dgram | Stream

type stats = {
  mutable rx_delivered : int;
  mutable rx_sockq_drops : int;
  mutable tx_packets : int;
  mutable rx_hwm : int;  (** deepest socket-queue occupancy observed *)
}
type t = {
  id : int;
  kind : kind;
  mutable port : int;  (** -1 until bound *)
  mutable remote : (Lrp_net.Packet.ip * int) option;
  udp_rcv : Lrp_net.Parena.handle Queue.t;
      (** ready datagrams' rows in the kernel's frame pool, each held
          until copyout (charged the mbufs backing it under eager
          processing) *)
  recv_wait : Lrp_sim.Proc.waitq;
  send_wait : Lrp_sim.Proc.waitq;
  mutable accept_wait : Lrp_sim.Proc.waitq;  (** a listening socket's own *)
  mutable chan : Lrp_core.Channel.t option;
  mutable tcp : Lrp_proto.Tcp.conn;
      (** {!Lrp_proto.Tcp.null_conn} until a connection is attached;
          read it through {!conn} *)
  mutable tcp_id : int;  (** [tcp]'s id when it was attached *)
  mutable closed : bool;
  stats : stats;
}
type shared
(** What the stream sockets of a kernel share and never write: a
    datagram queue, statistics, and an accept wait queue, which a socket
    keeps until it listens. *)

val none : t
(** The socket of a connection that has none yet: never written. *)

val shared : unit -> shared
(** One kernel's. *)

val dgram : unit -> t
(** A datagram socket, with a queue, statistics and an accept wait queue
    of its own. *)

val stream : shared -> t
(** A stream socket: its [udp_rcv], [stats] and [accept_wait] are the
    kernel's [shared] ones, never written. *)

val conn : t -> Lrp_proto.Tcp.conn
(** The socket's connection, checked against the id it was attached
    with.  A connection is recycled only after its socket closes, so a
    closed socket whose connection was recycled gets
    {!Lrp_proto.Tcp.null_conn}, which answers as a closed connection.
    @raise Invalid_argument ({!Lrp_proto.Tcp.stale}) if an open socket's
    connection was recycled. *)

val has_room : t -> bool
(** The socket queue holds fewer than 32 datagrams. *)

val deposit_udp : t -> Lrp_net.Parena.handle -> unit
(** Append a ready datagram's row to the socket queue, which must have
    room ({!has_room}); tracks the high watermark. *)
