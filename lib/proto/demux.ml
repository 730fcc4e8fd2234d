(** Early packet demultiplexing (paper section 3.2).

    The classifier extracts from a packet everything the NI (or the host
    interrupt handler, for soft demux) needs to find the destination NI
    channel.  It is self-contained, non-blocking, allocates nothing, and
    handles every packet in the TCP/IP family — including IP fragments,
    where a fragment that does not carry the transport header cannot be
    demultiplexed and goes to a special reassembly channel.

    The receive hot path classifies with {!class_of_packet} and probes
    with [Chantab.resolve_slot].  The test suite keeps the reference
    model they are compared against: a structural classifier into a
    boxed flow value and a resolver over the PCB rules. *)

open Lrp_net

(* --- Allocation-free classification --------------------------------- *)

(* The receive hot path needs three facts about a packet — its protocol
   class, its trace id, and (for UDP) its destination port — but not a
   boxed flow value.  A property test pins their agreement with the
   structural reference classifier; all constructors below are constant,
   so classification allocates nothing. *)

type flow_class = Udp_class | Tcp_class | Frag_class | Icmp_class

let[@inline] class_of_body = function
  | Packet.Udp _ -> Udp_class
  | Packet.Tcp _ -> Tcp_class
  | Packet.Icmp _ -> Icmp_class
  | Packet.Fragment _ -> Frag_class

let class_of_packet (pkt : Packet.t) =
  match pkt.Packet.body with
  | Packet.Fragment f when f.Packet.foff = 0 -> (
      (* first fragment: classified as the whole datagram *)
      match class_of_body f.Packet.whole.Packet.body with
      | Frag_class -> Frag_class (* degenerate nesting stays a fragment *)
      | c -> c)
  | body -> class_of_body body

(* Compact identifier for trace events: flows of different protocols land
   in disjoint ranges so a trace line is unambiguous without the full
   structured value. *)
let flow_id_of_packet (pkt : Packet.t) =
  let id_of_body ~ident = function
    | Packet.Udp (u, _) -> u.Packet.udst_port
    | Packet.Tcp (h, _) -> 100_000 + h.Packet.tdst_port
    | Packet.Icmp _ -> 300_000
    | Packet.Fragment _ -> 200_000 + ident
  in
  let ident = pkt.Packet.ip.Packet.ident in
  match pkt.Packet.body with
  | Packet.Fragment f when f.Packet.foff = 0 ->
      id_of_body ~ident f.Packet.whole.Packet.body
  | body -> id_of_body ~ident body

(* Destination port of a UDP packet (first-fragment aware); -1 when the
   packet is not UDP-classified. *)
let udp_dst_port_of_packet (pkt : Packet.t) =
  match pkt.Packet.body with
  | Packet.Udp (u, _) -> u.Packet.udst_port
  | Packet.Fragment f when f.Packet.foff = 0 -> (
      match f.Packet.whole.Packet.body with
      | Packet.Udp (u, _) -> u.Packet.udst_port
      | _ -> -1)
  | _ -> -1
