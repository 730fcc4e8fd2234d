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
  mutable id : int;
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
  mutable handle : int;
      (** a stream socket's {!stream} handle while it is open; -1 for a
          datagram socket *)
  mutable refs : int;
      (** what holds a stream socket's slot: the open descriptor until
          its close is done, and its connection's endpoint while that
          names it ([Kernel.ep.ep_sock]) *)
  mutable owner_pid : int;  (** the owning process, or -1 *)
  mutable own_prev : t;
  mutable own_next : t;
      (** its neighbours on its owner's list of stream sockets, {!none}
          at either end *)
}
val none : t
(** The socket of a connection that has none yet: never written. *)

val dgram : unit -> t
(** A datagram socket, with a queue, statistics and an accept wait queue
    of its own. *)

(** {1 Stream sockets}

    A stream socket is an int handle into its kernel's table, packing a
    slot and the slot's generation.  Its record's [udp_rcv], [stats] and
    (until it listens) [accept_wait] are shared by the table's sockets,
    never written.  A slot goes back to the table once its socket's
    close is done and its connection's endpoint has let it go ([refs]);
    the next socket reuses the record under a new handle, and a stale
    handle finds {!stale}. *)

type stream = private int

type table

val table : unit -> table
(** One kernel's. *)

val open_stream : table -> stream
(** A new, unconnected stream socket; it draws the next socket id. *)

val lookup : table -> stream -> t
(** The handle's socket, or {!stale} once the handle is stale. *)

val stale : t
(** What a stale handle finds: a closed socket with no connection, never
    written. *)

val unref : table -> t -> unit
(** Drop one of the socket's [refs]; the last frees its slot. *)

val census : table -> int * int
(** The table's slots, as (live, free). *)

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
