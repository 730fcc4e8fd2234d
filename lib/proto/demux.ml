(** Early packet demultiplexing (paper section 3.2).

    The classifier extracts from a frame's row everything the NI (or the
    host interrupt handler, for soft demux) needs to find the destination
    NI channel.  It is self-contained, non-blocking, allocates nothing,
    and handles every packet in the TCP/IP family — including IP
    fragments, where a fragment that does not carry the transport header
    cannot be demultiplexed and goes to a special reassembly channel.

    The receive hot path classifies with {!class_of_row} and probes with
    [Chantab.resolve_slot].  The test suite keeps the reference model
    they are compared against: a structural classifier into a boxed flow
    value and a resolver over the PCB rules. *)

open Lrp_net

(* The receive hot path needs a frame's protocol class and its trace id
   (a UDP port it reads off the row), but not a boxed flow value.  A
   property test pins the class against the structural reference
   classifier; all constructors below are constant, so classification
   allocates nothing.  A first fragment ([foff = 0]) carries the
   transport header and classifies as its whole datagram. *)

type flow_class = Udp_class | Tcp_class | Frag_class | Icmp_class

let class_of_row pool row =
  if Parena.foff pool row <> 0 then Frag_class
  else
    match Parena.proto pool row with
    | Parena.Udp -> Udp_class
    | Parena.Tcp -> Tcp_class
    | Parena.Icmp -> Icmp_class

(* Compact identifier for trace events: flows of different protocols land
   in disjoint ranges so a trace line is unambiguous without the full
   structured value. *)
let flow_id_of_row pool row =
  if Parena.foff pool row <> 0 then 200_000 + Parena.ident pool row
  else
    match Parena.proto pool row with
    | Parena.Udp -> Parena.dport pool row
    | Parena.Tcp -> 100_000 + Parena.dport pool row
    | Parena.Icmp -> 300_000
