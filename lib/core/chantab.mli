(** Demux table: maps a packet's flow to its endpoint.

    The kernel's one endpoint table, under every receive architecture:
    every bound datagram socket, multicast group, listener and connection
    is one entry.  The kernels differ only in where the lookup runs and so
    in the probe policy they read it with:

    - the LRP probe ({!resolve_slot}), run by the NI or the interrupt
      handler, classifies a packet onto an endpoint's NI channel: the
      socket bound to a UDP destination port; a connection's exact
      four-tuple if it still has a channel, else the listening socket for
      a connection-establishment request (SYN without ACK) only;
      non-first IP fragments and ICMP to the kernel's dedicated fragment
      (section 3.2) and proxy-daemon (section 3.5) channels;
    - the eager probes ({!find_udp}, {!find_tcp}), the PCB lookup after IP
      processing: a UDP port; the exact four-tuple, else the port's
      listener, for any segment.

    Entries live in one open-addressing table over packed keys: a flow
    key is [(namespace lsl 32) lor src-ip] /
    [(src-port lsl 16) lor dst-port], so a probe is one integer-keyed
    robin-hood lookup — no tuple allocation, no structural hashing.  The
    layout, and so every slot code, is a pure function of the insert and
    remove sequence. *)

type 'a t
(** A table of endpoints of type ['a]. *)

type space = Udp_port | Tcp_flow | Listen_port
(** The three namespaces: UDP ports, TCP four-tuples, listen ports. *)

val create : dummy:'a -> has_chan:('a -> bool) -> unit -> 'a t
(** [dummy] is what the eager probes answer on a miss (and fills empty
    slots); [has_chan] tells the LRP probe whether a connection's entry
    still has its NI channel. *)

val add_udp : 'a t -> port:int -> 'a -> unit
(** @raise Invalid_argument if the port is already bound. *)

val remove_udp : 'a t -> port:int -> unit

val add_listen : 'a t -> port:int -> 'a -> unit
(** @raise Invalid_argument if the port is already listened on. *)

val remove_listen : 'a t -> port:int -> unit

val add_tcp :
  'a t -> src:Lrp_net.Packet.ip -> src_port:int -> dst_port:int -> 'a -> unit
(** Bind a connection's four-tuple (remote address and port, local port),
    replacing any previous binding. *)

val remove_tcp :
  'a t -> src:Lrp_net.Packet.ip -> src_port:int -> dst_port:int -> 'a -> unit
(** Unbind the four-tuple if it still maps to this endpoint (physical
    equality): a newer connection that took the four-tuple over keeps
    it. *)

(** {2 Eager probes}

    Allocation-free, and counting nothing. *)

val find_udp : 'a t -> port:int -> 'a
(** The endpoint bound to the port, or [dummy]. *)

val find_listen : 'a t -> port:int -> 'a
(** The listener on the port, or [dummy]. *)

val find_tcp :
  'a t -> src:Lrp_net.Packet.ip -> src_port:int -> dst_port:int -> 'a
(** The connection on the exact four-tuple, else the port's listener, or
    [dummy]. *)

(** {2 LRP probe}

    [resolve_slot] returns an int slot code instead of an option, so the
    probe allocates nothing at all: non-negative codes are entry slots
    (valid until the next table mutation), negative codes name the
    dedicated channels or a miss. *)

val slot_none : int
(** No endpoint matched; counted in {!unmatched}. *)

val slot_frag : int
(** A non-first IP fragment: the fragment channel. *)

val slot_icmp : int
(** ICMP: the proxy daemon's channel. *)

val resolve_slot : 'a t -> Lrp_net.Parena.t -> Lrp_net.Parena.handle -> int
(** Classify a frame's row and probe in one pass, returning a slot
    code. *)

val value : 'a t -> int -> 'a
(** The endpoint in a non-negative slot returned by {!resolve_slot}. *)

val unmatched : 'a t -> int
(** Packets the LRP probe matched to no endpoint. *)

(** {2 Census} *)

val bindings : 'a t -> space -> 'a list
(** A namespace's endpoints in key order: by port for UDP and listen
    entries, by remote address and ports for four-tuples. *)

val max_probe : 'a t -> int
(** Largest probe distance in the table (1 = at its home slot; 0 =
    empty): the robin-hood clustering bound, for tests. *)
