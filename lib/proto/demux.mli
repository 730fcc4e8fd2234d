(** Early packet demultiplexing (paper section 3.2).

    The classifier extracts from a frame's row everything the NI (or the
    host interrupt handler, for soft demux) needs to find the destination
    NI channel.  It is self-contained, non-blocking, allocates nothing,
    and handles every packet in the TCP/IP family — including IP
    fragments, where a fragment that does not carry the transport header
    cannot be demultiplexed and goes to a special reassembly channel.  The
    test suite keeps the reference model the hot path ({!class_of_row}
    and [Chantab.resolve_slot]) is compared against. *)

type flow_class = Udp_class | Tcp_class | Frag_class | Icmp_class

val class_of_row : Lrp_net.Parena.t -> Lrp_net.Parena.handle -> flow_class
(** Protocol class, first-fragment aware.  Constant constructors only —
    allocates nothing. *)

val flow_id_of_row : Lrp_net.Parena.t -> Lrp_net.Parena.handle -> int
(** Compact identifier for trace events; flows of different protocols land
    in disjoint integer ranges (UDP: destination port, TCP: 100000+port,
    fragments: 200000+ident, ICMP: 300000). *)
