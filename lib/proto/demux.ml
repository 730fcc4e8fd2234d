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

open Lrp_net

type flow =
  | Udp_flow of { src : Packet.ip; src_port : int; dst_port : int }
  | Tcp_flow of { src : Packet.ip; src_port : int; dst_port : int;
                  syn_only : bool }
      (** [syn_only] marks a connection-establishment request (SYN without
          ACK), which matches only listening sockets. *)
  | Frag_flow of { src : Packet.ip; ident : int }
      (** Non-first fragment: no transport header, cannot be demultiplexed
          to an endpoint. *)
  | Icmp_flow
  | Other_flow of int  (* unknown IP protocol *)

let flow_of_packet (pkt : Packet.t) =
  match pkt.Packet.body with
  | Packet.Udp (u, _) ->
      Udp_flow
        { src = pkt.Packet.ip.Packet.src; src_port = u.Packet.usrc_port;
          dst_port = u.Packet.udst_port }
  | Packet.Tcp (h, _) ->
      Tcp_flow
        { src = pkt.Packet.ip.Packet.src; src_port = h.Packet.tsrc_port;
          dst_port = h.Packet.tdst_port;
          syn_only = h.Packet.flags.Packet.syn && not h.Packet.flags.Packet.ack }
  | Packet.Icmp _ -> Icmp_flow
  | Packet.Fragment f ->
      if f.Packet.foff <> 0 then
        Frag_flow { src = pkt.Packet.ip.Packet.src; ident = pkt.Packet.ip.Packet.ident }
      else begin
        (* First fragment: the transport header is present, demultiplex as
           the whole datagram would. *)
        match f.Packet.whole.Packet.body with
        | Packet.Udp (u, _) ->
            Udp_flow
              { src = pkt.Packet.ip.Packet.src; src_port = u.Packet.usrc_port;
                dst_port = u.Packet.udst_port }
        | Packet.Tcp (h, _) ->
            Tcp_flow
              { src = pkt.Packet.ip.Packet.src; src_port = h.Packet.tsrc_port;
                dst_port = h.Packet.tdst_port;
                syn_only =
                  h.Packet.flags.Packet.syn && not h.Packet.flags.Packet.ack }
        | Packet.Icmp _ -> Icmp_flow
        | Packet.Fragment _ -> Frag_flow { src = pkt.Packet.ip.Packet.src; ident = pkt.Packet.ip.Packet.ident }
      end

(* --- Allocation-free classification --------------------------------- *)

(* The receive hot path needs three facts about a packet — its protocol
   class, its trace id, and (for UDP) its destination port — but not the
   boxed {!flow} value.  These mirror [flow_of_packet] exactly (the demux
   equivalence property test pins the agreement); all constructors below
   are constant, so classification allocates nothing. *)

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

(* Byte-level classifier: mirrors what would run on the adaptor's embedded
   CPU.  Raises nothing: malformed packets classify as [Other_flow]. *)
let flow_of_bytes b =
  let open Codec in
  match decode b with
  | exception Bad_packet _ -> Other_flow (-1)
  | d ->
      if d.d_frag_off <> 0 then Frag_flow { src = d.d_src; ident = d.d_ident }
      else if d.d_proto = ipproto_udp then
        (match (d.d_src_port, d.d_dst_port) with
         | Some sp, Some dp -> Udp_flow { src = d.d_src; src_port = sp; dst_port = dp }
         | _, _ -> Other_flow d.d_proto)
      else if d.d_proto = ipproto_tcp then
        (match (d.d_src_port, d.d_dst_port, d.d_tcp_flags) with
         | Some sp, Some dp, Some fl ->
             Tcp_flow
               { src = d.d_src; src_port = sp; dst_port = dp;
                 syn_only = fl.Packet.syn && not fl.Packet.ack }
         | _, _, _ -> Other_flow d.d_proto)
      else if d.d_proto = ipproto_icmp then Icmp_flow
      else Other_flow d.d_proto

let equal_flow (a : flow) (b : flow) = a = b
