(** Packet representation.

    Packets are structured records, never serialised: the simulated NI
    demultiplexes them as they are and charges the byte-level classifier's
    cost (section 3.2).  Header sizes follow IPv4/UDP/TCP so that
    wire-time calculations are realistic. *)

type ip = int
(** IPv4 address as a non-negative int (printed dotted-quad). *)

type port = int
val pp_ip : Format.formatter -> ip -> unit
val ip_of_quad : int -> int -> int -> int -> int
(** [ip_of_quad a b c d] is the address [a.b.c.d].
    @raise Invalid_argument on out-of-range octets. *)

type tcp_flags = {
  syn : bool;
  ack : bool;
  fin : bool;
  rst : bool;
  psh : bool;
}
val flags :
  ?syn:bool ->
  ?ack:bool -> ?fin:bool -> ?rst:bool -> ?psh:bool -> unit -> tcp_flags

(** {2 Shared flag values}

    The combinations TCP emits, allocated once; per-segment paths use
    these instead of calling {!flags}. *)

val flags_ack : tcp_flags
val flags_ack_psh : tcp_flags
val flags_syn : tcp_flags
val flags_syn_ack : tcp_flags
val flags_fin_ack : tcp_flags
val flags_rst_ack : tcp_flags

type udp_header = { usrc_port : port; udst_port : port; }
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
  ident : int;
  ttl : int;
  csum : int;  (** sender-computed content checksum; see {!checksum} *)
}
type body =
    Udp of udp_header * Payload.t
  | Tcp of tcp_header * Payload.t
  | Icmp of icmp_kind * Payload.t
  | Fragment of fragment
and fragment = { whole : t; foff : int; flen : int; last : bool; }
and t = { ip : ip_header; body : body; }
(** A packet.  [Fragment] carries a slice of [whole]'s payload; only the
    first fragment ([foff = 0]) "contains" the transport header. *)

val ip_header_bytes : int
val udp_header_bytes : int
val transport_header_bytes : t -> int
(** Transport-header bytes this packet carries on the wire. *)

val payload_length : t -> int
val wire_bytes : t -> int
(** Total IP datagram size on the wire (IP header + transport header +
    payload slice). *)

(** {1 Content checksum} *)

val checksum : t -> int
(** Recompute the content checksum (addresses, transport header fields,
    payload bytes) of a packet.  [ident] and [ttl] are excluded so that
    retransmits of the same content checksum identically.  A fragment's
    checksum is that of the whole datagram, checked after reassembly.
    Any single-field or single-byte change yields a different value (the
    mix multiplier is invertible mod 2^30). *)

val verify : t -> bool
(** [verify t] is [checksum t = t.ip.csum] — true unless the packet was
    corrupted in flight. *)

val corrupt : t -> at:int -> xor:int -> t option
(** [corrupt t ~at ~xor] flips one payload byte (position [at mod length],
    pattern [xor land 0xff], forced non-zero) while keeping the carried
    checksum, so {!verify} fails on the result.  Payload-less TCP segments
    get their [ack_no] corrupted instead; fragments are corrupted within
    their slice of the whole.  [None] when the packet has no corruptible
    content (e.g. an empty UDP datagram). *)

(** {1 Constructors} *)

val empty_payload : Payload.t
(** The shared zero-length payload of data-less segments. *)

val udp :
  src:ip ->
  dst:ip -> src_port:port -> dst_port:port -> Payload.t -> t
val tcp :
  src:ip ->
  dst:ip ->
  src_port:port ->
  dst_port:port ->
  seq:int ->
  ack_no:int -> flags:tcp_flags -> window:int -> Payload.t -> t
val icmp : src:ip -> dst:ip -> icmp_kind -> Payload.t -> t

val null : t
(** Statically-allocated placeholder: ring buffers and arenas fill empty
    slots with it so they never pin a real packet.  Never enters the data
    path. *)

(** {1 Accessors used by demultiplexing and protocol code} *)

val src : t -> ip
val dst : t -> ip
val is_multicast_addr : ip -> bool
(** Class-D (224.0.0.0/4) test. *)

val is_multicast : t -> bool
val ports : t -> (port * port) option
(** [(src_port, dst_port)] when the packet carries (or is the first
    fragment of) a transport header. *)

val is_tcp : t -> bool
val is_udp : t -> bool
val is_fragment : t -> bool
