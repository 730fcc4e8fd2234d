(** Early packet demultiplexing (paper section 3.2).

    The classifier extracts a {!flow} from a packet: everything the NI (or
    the host interrupt handler, for soft demux) needs to find the
    destination NI channel.  It is self-contained, non-blocking, performs no
    allocation beyond the returned value, and handles every packet in the
    TCP/IP family — including IP fragments, where a fragment that does not
    carry the transport header cannot be demultiplexed and goes to a special
    reassembly channel.

    Two implementations are provided: [flow_of_packet] over the simulator's
    structured packets and [flow_of_bytes] over the wire format produced by
    {!Lrp_net.Codec} (faithful to what NI firmware would run).  A property
    test asserts they agree.  Neither is on the receive hot path, which
    classifies with {!class_of_packet} and probes with
    [Chantab.resolve_slot]: [flow_of_packet] is the reference the demux
    equivalence tests compare those against. *)

type flow =
    Udp_flow of { src : Lrp_net.Packet.ip; src_port : int; dst_port : int; }
  | Tcp_flow of { src : Lrp_net.Packet.ip; src_port : int; dst_port : int;
      syn_only : bool;
    }
  | Frag_flow of { src : Lrp_net.Packet.ip; ident : int; }
  | Icmp_flow
  | Other_flow of int
val flow_of_packet : Lrp_net.Packet.t -> flow
(** Structural classifier, allocating the {!flow}: the reference
    implementation the allocation-free hot path ({!class_of_packet},
    [Chantab.resolve_slot]) is tested against. *)

val flow_of_bytes : bytes -> flow
(** Byte-level classifier over the wire format — what the adaptor's
    embedded CPU would run.  Never raises: malformed input classifies as
    [Other_flow]. *)

val equal_flow : flow -> flow -> bool

(** {2 Allocation-free classification}

    The receive hot path needs a packet's protocol class, trace id, and
    (for UDP) destination port — but not the boxed {!flow} value.  These
    agree with [flow_of_packet] by construction; the demux equivalence
    property test pins the agreement. *)

type flow_class = Udp_class | Tcp_class | Frag_class | Icmp_class

val class_of_packet : Lrp_net.Packet.t -> flow_class
(** Protocol class, first-fragment aware.  Constant constructors only —
    allocates nothing. *)

val flow_id_of_packet : Lrp_net.Packet.t -> int
(** Compact identifier for trace events; flows of different protocols land
    in disjoint integer ranges (UDP: destination port, TCP: 100000+port,
    fragments: 200000+ident, ICMP: 300000). *)

val udp_dst_port_of_packet : Lrp_net.Packet.t -> int
(** Destination port of a UDP-classified packet (first-fragment aware);
    [-1] otherwise. *)
