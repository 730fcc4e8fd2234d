(* The reference model the demux hot path is tested against: a
   structural classifier into a boxed flow value, and resolvers that apply
   the PCB rules to that flow over plain association lists, with the LRP
   and the eager probe policy.  [Demux.class_of_row] and the demux
   table's probes must agree with it on every packet shape. *)

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

(* The flow of a frame's row, read off the datagram it carries: a
   first fragment holds the transport header and demultiplexes as its
   whole datagram would; a later one is a fragment flow. *)
let flow_of_row pool row =
  match Parena.to_packet pool row with
  | _ when Parena.foff pool row <> 0 ->
      Frag_flow { src = Parena.src pool row; ident = Parena.ident pool row }
  | Packet.Udp u -> Udp_flow { src = u.src; src_port = u.sport; dst_port = u.dport }
  | Packet.Tcp h ->
      Tcp_flow
        { src = h.src; src_port = h.sport; dst_port = h.dport;
          syn_only =
            h.flags land Packet.syn <> 0 && h.flags land Packet.ack = 0 }
  | Packet.Icmp _ -> Icmp_flow

(* The endpoints a demux table holds, each named by an int. *)
type binds = {
  udp : (int * int) list;  (* destination port, endpoint *)
  tcp : ((Packet.ip * int * int) * (int * bool)) list;
      (* (src, sport, dport), (endpoint, still has its channel) *)
  listen : (int * int) list;  (* listening port, endpoint *)
}

(* Where the LRP probe sends a packet. *)
type target = Ep of int | Frag | Icmp | Miss

let ep_or_miss = function Some e -> Ep e | None -> Miss

(* The LRP policy: UDP by destination port; TCP by an exact four-tuple
   that still has its channel (NI-LRP frees it on entry to TIME_WAIT),
   then the listener for a connection request only; non-first fragments
   and ICMP to their dedicated channels. *)
let resolve_lrp b = function
  | Udp_flow { dst_port; _ } -> ep_or_miss (List.assoc_opt dst_port b.udp)
  | Tcp_flow { src; src_port; dst_port; syn_only } -> (
      match List.assoc_opt (src, src_port, dst_port) b.tcp with
      | Some (e, true) -> Ep e
      | Some (_, false) | None ->
          if syn_only then ep_or_miss (List.assoc_opt dst_port b.listen)
          else Miss)
  | Frag_flow _ -> Frag
  | Icmp_flow -> Icmp

(* The eager policy, the PCB lookup after IP processing: UDP by
   destination port; TCP by the exact four-tuple, channel or not, else the
   port's listener for any segment. *)
let resolve_eager_udp b ~port = List.assoc_opt port b.udp

let resolve_eager_tcp b ~src ~src_port ~dst_port =
  match List.assoc_opt (src, src_port, dst_port) b.tcp with
  | Some (e, _) -> Some e
  | None -> List.assoc_opt dst_port b.listen

(* The packet shapes the properties draw from ([shape] in
   [0, shapes)): a UDP datagram, a TCP segment, an ICMP echo, then the
   first and a later fragment of an oversize UDP datagram and of an
   oversize TCP segment. *)
let shapes = 7

(* A frame of the given shape, as a row of [pool]. *)
let packet pool ~shape ~src ~sport ~dport ~syn ~ack =
  let udp len =
    Packet.udp ~src ~dst:9 ~src_port:sport ~dst_port:dport
      (Payload.synthetic len)
  and tcp len =
    Packet.tcp ~src ~dst:9 ~src_port:sport ~dst_port:dport ~seq:7 ~ack_no:8
      ~flags:(Packet.flags ~syn ~ack ()) ~window:100 (Payload.synthetic len)
  in
  let frag whole i =
    List.nth
      (Lrp_proto.Ip.fragment pool (Parena.copy_in pool whole) ~mtu:9180) i
  in
  match shape with
  | 0 -> Parena.copy_in pool (udp 14)
  | 1 -> Parena.copy_in pool (tcp 20)
  | 2 ->
      Parena.copy_in pool
        (Packet.icmp ~src ~dst:9 Packet.Echo_request (Payload.synthetic 8))
  | 3 | 4 -> frag (udp 25_000) (shape - 3)
  | _ -> frag (tcp 25_000) (shape - 5)
