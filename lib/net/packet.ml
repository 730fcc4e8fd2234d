(** Packet headers, checksums and the one packet value.

    Senders write their frames straight into rows of their engine cell's
    frame pool ({!Parena.udp}, {!Parena.tcp}, {!Parena.icmp}) with the
    header sizes, flags and content checksums defined here.  The one
    packet value left is a UDP datagram ({!udp}), built only by the
    benchmark's UDP source and copied into a row by {!Nic.transmit}.
    Header sizes follow IPv4/UDP/TCP so that wire-time calculations are
    realistic. *)

type ip = int
(** IPv4 address as a non-negative int (printed dotted-quad). *)

type port = int

let pp_ip fmt (a : ip) =
  Fmt.pf fmt "%d.%d.%d.%d"
    ((a lsr 24) land 0xff) ((a lsr 16) land 0xff) ((a lsr 8) land 0xff)
    (a land 0xff)

let ip_of_quad a b c d =
  (* [land] binds tighter than [lor]: without the parentheses only [d] was
     range-checked, silently accepting out-of-range upper octets. *)
  if (a lor b lor c lor d) land lnot 0xff <> 0 then invalid_arg "ip_of_quad";
  (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d

(* TCP flags: one int of bits, in the order the checksum has always
   mixed them. *)
let syn = 1
let ack = 2
let fin = 4
let rst = 8
let psh = 16

let flags ?(syn = false) ?(ack = false) () =
  (if syn then 1 else 0) lor if ack then 2 else 0

let flags_ack = ack
let flags_ack_psh = ack lor psh
let flags_syn = syn
let flags_syn_ack = syn lor ack
let flags_fin_ack = fin lor ack
let flags_rst_ack = rst lor ack

type icmp_kind = Echo_request | Echo_reply

let icmp_kind_index = function Echo_request -> 0 | Echo_reply -> 1

let icmp_kind_of_index = function
  | 0 -> Echo_request
  | 1 -> Echo_reply
  | _ -> invalid_arg "Packet.icmp_kind_of_index"

type t = {
  src : ip;
  dst : ip;
  ident : int;       (* IP identification, for fragment reassembly *)
  csum : int;        (* sender-computed content checksum *)
  sport : port;
  dport : port;
  payload : Payload.t;
}

let ip_header_bytes = 20
let udp_header_bytes = 8
let tcp_header_bytes = 20
let icmp_header_bytes = 8

(* --- content checksum ------------------------------------------------- *)

(* Multiplicative mix over the fields that define a packet's *content*
   (addresses, transport header, payload bytes).  131 is odd, hence
   invertible mod 2^30, so two chains that differ in any single mixed value
   stay different — a one-byte payload flip or a header-field flip is always
   detected, not just probably detected.  [ident] is deliberately
   excluded: retransmits and duplicates of the same content must carry the
   same checksum. *)
let[@inline] mix h v = ((h * 131) + v) land 0x3fffffff

let udp_sum ~src ~dst ~sport ~dport ~len ~bsum =
  mix (mix (mix (mix (mix (mix 17 sport) dport) len) bsum) src) dst

let tcp_sum ~src ~dst ~sport ~dport ~seq ~ack_no ~flags ~window ~len ~bsum =
  let s = mix (mix (mix 6 sport) dport) seq in
  let s = mix (mix (mix s ack_no) flags) window in
  mix (mix (mix (mix s len) bsum) src) dst

let icmp_sum ~src ~dst ~kind ~len ~bsum =
  mix (mix (mix (mix (mix 1 kind) len) bsum) src) dst

(* --- constructors ---------------------------------------------------- *)

(* The payload of every data-less segment (SYN, ACK, FIN, RST). *)
let empty_payload = Payload.synthetic 0

(* Idents come from the per-engine id space installed on this domain
   (Lrp_engine.Idspace): a cell's ident sequence is a function of its own
   packet-creation order, never of what other simulations — or other
   shards of the same simulation — are allocating.  The values only key
   per-host reassembly tables, but they appear in recorder dumps, so
   sharded runs need them byte-identical at any shard count. *)
let next_ident () = Lrp_engine.Idspace.next_pkt_ident () land 0xffff

let udp ~src ~dst ~src_port ~dst_port payload =
  let csum =
    udp_sum ~src ~dst ~sport:src_port ~dport:dst_port
      ~len:(Payload.length payload) ~bsum:(Payload.byte_sum payload)
  in
  { src; dst; ident = next_ident (); csum; sport = src_port;
    dport = dst_port; payload }

(* Class-D (224.0.0.0/4) destination: delivered by the fabric to every
   attached host. *)
let is_multicast_addr (a : ip) = (a lsr 28) land 0xf = 0xe
