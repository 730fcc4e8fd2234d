(** Packet representation.

    Packets are structured records, never serialised: the simulated NI
    demultiplexes them as they are and charges the byte-level classifier's
    cost (section 3.2).  Header sizes follow IPv4/UDP/TCP so that
    wire-time calculations are realistic. *)

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

type tcp_flags = {
  syn : bool;
  ack : bool;
  fin : bool;
  rst : bool;
  psh : bool;
}

let flags ?(syn = false) ?(ack = false) ?(fin = false) ?(rst = false)
    ?(psh = false) () =
  { syn; ack; fin; rst; psh }

(* The flag combinations TCP emits, built once: a segment shares its
   header's flags record instead of allocating one per segment. *)
let flags_ack = flags ~ack:true ()
let flags_ack_psh = flags ~ack:true ~psh:true ()
let flags_syn = flags ~syn:true ()
let flags_syn_ack = flags ~syn:true ~ack:true ()
let flags_fin_ack = flags ~fin:true ~ack:true ()
let flags_rst_ack = flags ~rst:true ~ack:true ()

type udp_header = { usrc_port : port; udst_port : port }

type tcp_header = {
  tsrc_port : port;
  tdst_port : port;
  seq : int;
  ack_no : int;
  flags : tcp_flags;
  window : int;
}

type icmp_kind = Echo_request | Echo_reply | Dest_unreachable | Ttl_exceeded

type ip_header = {
  src : ip;
  dst : ip;
  ident : int;       (* IP identification, for fragment reassembly *)
  ttl : int;
  csum : int;        (* sender-computed content checksum, see {!checksum} *)
}

type body =
  | Udp of udp_header * Payload.t
  | Tcp of tcp_header * Payload.t
  | Icmp of icmp_kind * Payload.t
  | Fragment of fragment
      (** One piece of a fragmented IP datagram.  [whole] is the original
          (unfragmented) packet so reassembly can reconstitute it; only the
          first fragment ([foff = 0]) "contains" the transport header. *)

and fragment = { whole : t; foff : int; flen : int; last : bool }

and t = { ip : ip_header; body : body }

let ip_header_bytes = 20
let udp_header_bytes = 8
let tcp_header_bytes = 20

let rec transport_header_bytes t =
  match t.body with
  | Udp _ -> udp_header_bytes
  | Tcp _ -> tcp_header_bytes
  | Icmp _ -> 8
  | Fragment f -> if f.foff = 0 then transport_header_bytes' f.whole.body else 0

and transport_header_bytes' = function
  | Udp _ -> udp_header_bytes
  | Tcp _ -> tcp_header_bytes
  | Icmp _ -> 8
  | Fragment _ -> 0

let payload_length t =
  match t.body with
  | Udp (_, p) | Tcp (_, p) | Icmp (_, p) -> Payload.length p
  | Fragment f -> f.flen

(* Total IP datagram bytes on the wire (header + transport header +
   payload). *)
let wire_bytes t =
  match t.body with
  | Udp (_, p) -> ip_header_bytes + udp_header_bytes + Payload.length p
  | Tcp (_, p) -> ip_header_bytes + tcp_header_bytes + Payload.length p
  | Icmp (_, p) -> ip_header_bytes + 8 + Payload.length p
  | Fragment f -> ip_header_bytes + transport_header_bytes t + f.flen

(* --- content checksum ------------------------------------------------- *)

(* Multiplicative mix over the fields that define a packet's *content*
   (addresses, transport header, payload bytes).  131 is odd, hence
   invertible mod 2^30, so two chains that differ in any single mixed value
   stay different — a one-byte payload flip or a header-field flip is always
   detected, not just probably detected.  [ident] and [ttl] are deliberately
   excluded: retransmits and duplicates of the same content must carry the
   same checksum. *)
let mix h v = ((h * 131) + v) land 0x3fffffff

let flag_bits f =
  (if f.syn then 1 else 0)
  lor (if f.ack then 2 else 0)
  lor (if f.fin then 4 else 0)
  lor (if f.rst then 8 else 0)
  lor (if f.psh then 16 else 0)

let icmp_kind_index = function
  | Echo_request -> 0
  | Echo_reply -> 1
  | Dest_unreachable -> 2
  | Ttl_exceeded -> 3

let rec body_sum = function
  | Udp (u, p) ->
      mix (mix (mix (mix 17 u.usrc_port) u.udst_port) (Payload.length p))
        (Payload.byte_sum p)
  | Tcp (h, p) ->
      let s = mix (mix (mix 6 h.tsrc_port) h.tdst_port) h.seq in
      let s = mix (mix (mix s h.ack_no) (flag_bits h.flags)) h.window in
      mix (mix s (Payload.length p)) (Payload.byte_sum p)
  | Icmp (k, p) ->
      mix (mix (mix 1 (icmp_kind_index k)) (Payload.length p))
        (Payload.byte_sum p)
  | Fragment f ->
      (* Fragments carry the whole datagram's checksum: it is checked after
         reassembly, like a real end-to-end transport checksum. *)
      body_sum f.whole.body

let checksum_of ~src ~dst body = mix (mix (body_sum body) src) dst

let checksum t = checksum_of ~src:t.ip.src ~dst:t.ip.dst t.body

let verify t = checksum t = t.ip.csum

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
  let body = Udp ({ usrc_port = src_port; udst_port = dst_port }, payload) in
  { ip = { src; dst; ident = next_ident (); ttl = 64;
           csum = checksum_of ~src ~dst body };
    body }

let tcp ~src ~dst ~src_port ~dst_port ~seq ~ack_no ~flags ~window payload =
  let body =
    Tcp
      ( { tsrc_port = src_port; tdst_port = dst_port; seq; ack_no; flags;
          window },
        payload )
  in
  { ip = { src; dst; ident = next_ident (); ttl = 64;
           csum = checksum_of ~src ~dst body };
    body }

let icmp ~src ~dst kind payload =
  let body = Icmp (kind, payload) in
  { ip = { src; dst; ident = next_ident (); ttl = 64;
           csum = checksum_of ~src ~dst body };
    body }

(* A statically-allocated placeholder packet: ring buffers and arenas use
   it to fill slots that hold no frame, so an emptied slot never pins the
   last real packet that passed through it.  Never enters the data path. *)
let null =
  { ip = { src = 0; dst = 0; ident = 0; ttl = 0; csum = 0 };
    body = Icmp (Echo_request, Payload.synthetic 0) }

(* --- accessors used by demux and protocol code ----------------------- *)

let src t = t.ip.src
let dst t = t.ip.dst

(* Class-D (224.0.0.0/4) destination: delivered by the fabric to every
   attached host. *)
let is_multicast_addr (a : ip) = (a lsr 28) land 0xf = 0xe

let is_multicast t = is_multicast_addr t.ip.dst

let rec ports t =
  match t.body with
  | Udp (u, _) -> Some (u.usrc_port, u.udst_port)
  | Tcp (h, _) -> Some (h.tsrc_port, h.tdst_port)
  | Icmp _ -> None
  | Fragment f -> if f.foff = 0 then ports' f.whole else None

and ports' w =
  match w.body with
  | Udp (u, _) -> Some (u.usrc_port, u.udst_port)
  | Tcp (h, _) -> Some (h.tsrc_port, h.tdst_port)
  | Icmp _ | Fragment _ -> None

let is_tcp t =
  match t.body with
  | Tcp _ -> true
  | Fragment { whole = { body = Tcp _; _ }; _ } -> true
  | Udp _ | Icmp _ | Fragment _ -> false

let is_udp t =
  match t.body with
  | Udp _ -> true
  | Fragment { whole = { body = Udp _; _ }; _ } -> true
  | Tcp _ | Icmp _ | Fragment _ -> false

let is_fragment t = match t.body with Fragment _ -> true | Udp _ | Tcp _ | Icmp _ -> false

(* --- fault injection: payload corruption ------------------------------ *)

(* Flip one payload byte.  [to_bytes] of a [Bytes] payload returns the
   underlying buffer, which may be shared with the sender's retransmit
   queue — copy before mutating. *)
let flip_byte p ~off ~xor =
  let b = Bytes.copy (Payload.to_bytes p) in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor xor));
  Payload.of_bytes b

let corrupt t ~at ~xor =
  let at = abs at in
  let xor =
    let x = xor land 0xff in
    if x = 0 then 0x55 else x
  in
  (* [ip] (and with it the original [csum]) is kept verbatim: corruption
     changes content under an unchanged checksum, which is exactly what the
     receiver-side verify-and-drop path must detect. *)
  match t.body with
  | Udp (u, p) when Payload.length p > 0 ->
      Some { t with body = Udp (u, flip_byte p ~off:(at mod Payload.length p) ~xor) }
  | Tcp (h, p) when Payload.length p > 0 ->
      Some { t with body = Tcp (h, flip_byte p ~off:(at mod Payload.length p) ~xor) }
  | Tcp (h, p) ->
      (* Pure ACK/SYN/FIN: corrupt the acknowledgment number instead. *)
      Some { t with body = Tcp ({ h with ack_no = h.ack_no lxor xor }, p) }
  | Icmp (k, p) when Payload.length p > 0 ->
      Some { t with body = Icmp (k, flip_byte p ~off:(at mod Payload.length p) ~xor) }
  | Udp _ | Icmp _ -> None
  | Fragment f ->
      if f.flen <= 0 then None
      else
        (* Flip a byte inside this fragment's slice of the whole datagram's
           payload, so reassembly reconstitutes a corrupted whole. *)
        let off = f.foff + (at mod f.flen) in
        let whole = f.whole in
        let rebuilt body' =
          Some { t with body = Fragment { f with whole = { whole with body = body' } } }
        in
        (match whole.body with
         | Udp (u, p) when off < Payload.length p ->
             rebuilt (Udp (u, flip_byte p ~off ~xor))
         | Tcp (h, p) when off < Payload.length p ->
             rebuilt (Tcp (h, flip_byte p ~off ~xor))
         | Icmp (k, p) when off < Payload.length p ->
             rebuilt (Icmp (k, flip_byte p ~off ~xor))
         | Udp _ | Tcp _ | Icmp _ | Fragment _ -> None)

