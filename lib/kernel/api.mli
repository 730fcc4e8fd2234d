(** Socket system calls.

    Every function here runs in simulated process context (inside a
    {!Lrp_sim.Proc} coroutine) and charges CPU through {!Lrp_sim.Cpu.compute}.
    This is where the architectural difference on the receive path is most
    visible:

    - under BSD / Early-Demux, [recvfrom] finds fully-processed datagrams on
      the socket queue (deposited by software interrupts) and merely copies
      them out;
    - under LRP, [recvfrom] takes {e raw packets} off the socket's NI
      channel and performs IP and UDP processing right here, in the
      receiving process's context, at its priority, charged to it —
      the "lazy receiver processing" the paper is named after
      (section 3.3). *)

type dgram = {
  mutable dg_payload : Lrp_net.Payload.t;
  mutable dg_src : Lrp_net.Packet.ip;  (** source address *)
  mutable dg_sport : int;  (** source port *)
  mutable dg_pkt : int;  (** originating packet's IP ident, for tracing *)
}
(** A caller-owned receive buffer: each receive into it overwrites every
    field with the datagram copied out, so a receive loop allocates no
    datagram of its own (the application buffer of the paper's §3). *)

val dgram : unit -> dgram
(** A fresh, empty receive buffer. *)

exception Socket_closed
(** Raised by blocking calls when the socket is closed underneath them. *)

(** {1 Socket lifecycle} *)

val socket_dgram : unit -> Socket.t
(** Create an (unbound) UDP socket. *)

val socket_stream : Kernel.t -> Socket.t
(** Create an (unconnected) TCP socket.  Its datagram queue and
    statistics are the kernel's shared, never-written ones, and so is its
    accept wait queue until it listens. *)

val bind :
  Kernel.t -> Socket.t -> owner:Lrp_sim.Proc.t option -> port:int -> unit
(** Bind a datagram socket to a local port.  Under LRP this creates the
    socket's NI channel (section 3.1).
    @raise Invalid_argument if the port is in use. *)

val bind_ephemeral :
  Kernel.t -> Socket.t -> owner:Lrp_sim.Proc.t option -> int
(** Bind to a fresh ephemeral port and return it. *)

val join_group :
  Kernel.t -> Socket.t -> owner:Lrp_sim.Proc.t option ->
  group:Lrp_net.Packet.ip -> port:int -> unit
(** Subscribe a datagram socket to a multicast group.  All members of the
    group on this host share a single NI channel (section 3.1); the first
    joiner creates it.
    @raise Invalid_argument if [group] is not a class-D address. *)

val leave_group : Kernel.t -> Socket.t -> port:int -> unit
(** Drop group membership; the last member's departure deallocates the
    shared channel. *)

val close : Kernel.t -> Socket.t -> unit
(** Close a socket: releases ports/channels, initiates TCP teardown, and
    wakes any blocked callers (they observe {!Socket_closed} or EOF). *)

(** {1 UDP} *)

val sendto :
  Kernel.t -> self:Lrp_sim.Proc.t -> Socket.t ->
  dst:Lrp_net.Packet.ip * Lrp_net.Packet.port -> Lrp_net.Payload.t -> unit
(** Transmit a datagram (auto-binding an ephemeral source port if needed).
    Charged: syscall + copy + UDP/IP output + driver, per fragment. *)

val udp_connect : Socket.t -> remote:Lrp_net.Packet.ip * int -> unit
(** Set the default destination and enable peer filtering: datagrams from
    any other source are silently discarded (BSD connected-UDP
    semantics). *)

val recvfrom : Kernel.t -> Socket.t -> dgram -> unit
(** Block until a datagram is available and copy it out into the buffer.
    Under LRP this is where protocol processing happens: raw packets are
    taken off the NI channel and run through IP/UDP in the caller's
    context. *)

val recvfrom_timeout : Kernel.t -> Socket.t -> dgram -> timeout:float -> bool
(** [recvfrom] with a deadline; [false], with the buffer untouched, if
    nothing arrived in time. *)

val try_recvfrom : Kernel.t -> Socket.t -> dgram -> bool
(** Non-blocking receive: [false], with the buffer untouched, when nothing
    is available right now. *)

(** {1 TCP} *)

val tcp_listen :
  Kernel.t -> self:Lrp_sim.Proc.t -> Socket.t -> port:int -> backlog:int ->
  unit
(** Passive open.  [backlog] bounds embryonic + accepted-but-unclaimed
    connections; under LRP, exceeding it disables the listen channel so
    further SYNs die at the NI (section 3.4). *)

val tcp_accept : Kernel.t -> self:Lrp_sim.Proc.t -> Socket.t -> Socket.t
(** Block until an established connection is available; returns a fresh
    socket owned by [self] (APP work for it is charged to [self]). *)

val tcp_connect :
  Kernel.t -> self:Lrp_sim.Proc.t -> Socket.t ->
  remote:Lrp_net.Packet.ip * int -> [> `Ok | `Refused ]
(** Active open; blocks until established ([`Ok]) or refused / timed out
    after the SYN retry budget ([`Refused]). *)

val tcp_send :
  Kernel.t -> Socket.t -> Lrp_net.Payload.t -> [> `Closed | `Ok ]
(** Queue the whole payload, blocking while the send buffer is full.
    [`Closed] if the connection dies first. *)

val tcp_recv :
  Kernel.t -> Socket.t -> max:int -> [> `Data of Lrp_net.Payload.t | `Eof ]
(** Block for stream data (at most [max] bytes); [`Eof] after the peer's
    FIN once the buffer is drained.  Reading may emit a window update. *)

val set_owner : Kernel.t -> Socket.t -> owner:Lrp_sim.Proc.t -> unit
(** Hand a connected socket to another process (e.g. an HTTP child after
    fork): subsequent APP work is scheduled at — and charged to — the new
    owner. *)
