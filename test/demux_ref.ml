(* The reference model the demux hot path is tested against: a
   structural classifier into a boxed flow value, and a resolver that
   applies the PCB rules to that flow over plain association lists.
   [Demux.class_of_packet] and [Chantab.resolve_slot] must agree with it
   on every packet shape. *)

open Lrp_net
open Lrp_core

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

let flow_of_packet (pkt : Packet.t) =
  let src = pkt.Packet.ip.Packet.src in
  let of_body = function
    | Packet.Udp (u, _) ->
        Udp_flow
          { src; src_port = u.Packet.usrc_port; dst_port = u.Packet.udst_port }
    | Packet.Tcp (h, _) ->
        let f = h.Packet.flags in
        Tcp_flow
          { src; src_port = h.Packet.tsrc_port; dst_port = h.Packet.tdst_port;
            syn_only = f.Packet.syn && not f.Packet.ack }
    | Packet.Icmp _ -> Icmp_flow
    | Packet.Fragment _ ->
        Frag_flow { src; ident = pkt.Packet.ip.Packet.ident }
  in
  match pkt.Packet.body with
  | Packet.Fragment f when f.Packet.foff = 0 ->
      (* First fragment: the transport header is present, demultiplex as
         the whole datagram would. *)
      of_body f.Packet.whole.Packet.body
  | body -> of_body body

(* The endpoints a channel table holds. *)
type binds = {
  udp : (int * Channel.t) list;  (* destination port *)
  tcp : ((Packet.ip * int * int) * Channel.t) list;  (* src, sport, dport *)
  listen : (int * Channel.t) list;  (* listening port *)
  frag : Channel.t;
  icmp : Channel.t;
}

(* The PCB rules: UDP by destination port; TCP by exact four-tuple, then
   the listener for a connection request only; non-first fragments and
   ICMP to their dedicated channels. *)
let resolve b = function
  | Udp_flow { dst_port; _ } -> List.assoc_opt dst_port b.udp
  | Tcp_flow { src; src_port; dst_port; syn_only } -> (
      match List.assoc_opt (src, src_port, dst_port) b.tcp with
      | Some _ as c -> c
      | None -> if syn_only then List.assoc_opt dst_port b.listen else None)
  | Frag_flow _ -> Some b.frag
  | Icmp_flow -> Some b.icmp
