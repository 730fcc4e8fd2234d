(* The reference model the demux hot path is tested against: frames of
   every shape together with the flow each has by construction (a boxed
   value, never decoded from the row), and resolvers that apply the PCB
   rules to that flow over plain association lists, with the LRP and the
   eager probe policy.  [Demux.class_of_row] and the demux table's probes
   must agree with it on every packet shape. *)

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

(* The flow a frame's row reads back as, through the pool's accessors:
   a first fragment holds the transport header and demultiplexes as its
   whole datagram would; a later one is a fragment flow. *)
let flow_of_row pool row =
  let src = Parena.src pool row in
  if Parena.foff pool row <> 0 then
    Frag_flow { src; ident = Parena.ident pool row }
  else
    let src_port = Parena.sport pool row and dst_port = Parena.dport pool row in
    match Parena.proto pool row with
    | Parena.Udp -> Udp_flow { src; src_port; dst_port }
    | Parena.Tcp ->
        let flags = Parena.flags pool row in
        Tcp_flow
          { src; src_port; dst_port;
            syn_only = flags land Packet.syn <> 0 && flags land Packet.ack = 0 }
    | Parena.Icmp -> Icmp_flow

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

(* A frame of the given shape, as a row of [pool], and the flow it was
   built as. *)
let packet pool ~shape ~src ~sport ~dport ~syn ~ack =
  let udp len =
    Parena.udp pool ~src ~dst:9 ~src_port:sport ~dst_port:dport
      (Payload.synthetic len)
  and tcp len =
    Parena.tcp pool ~src ~dst:9 ~src_port:sport ~dst_port:dport ~seq:7
      ~ack_no:8 ~flags:(Packet.flags ~syn ~ack ()) ~window:100
      (Payload.synthetic len)
  in
  let udp_flow = Udp_flow { src; src_port = sport; dst_port = dport }
  and tcp_flow =
    Tcp_flow
      { src; src_port = sport; dst_port = dport; syn_only = syn && not ack }
  in
  (* The first fragment carries the transport header; the second does
     not. *)
  let frag whole ~first flow =
    let ident = Parena.ident pool whole in
    let frags = Lrp_proto.Ip.fragment pool whole ~mtu:9180 in
    if first then (List.nth frags 0, flow)
    else (List.nth frags 1, Frag_flow { src; ident })
  in
  match shape with
  | 0 -> (udp 14, udp_flow)
  | 1 -> (tcp 20, tcp_flow)
  | 2 ->
      ( Parena.icmp pool ~src ~dst:9 Packet.Echo_request (Payload.synthetic 8),
        Icmp_flow )
  | 3 | 4 -> frag (udp 25_000) ~first:(shape = 3) udp_flow
  | _ -> frag (tcp 25_000) ~first:(shape = 5) tcp_flow
