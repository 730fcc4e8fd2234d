(** Packet headers, checksums and the one packet value.

    A frame lives only as a row of its engine cell's frame pool
    ({!Parena}): senders write their rows directly ({!Parena.udp},
    {!Parena.tcp}, {!Parena.icmp}), with the header sizes, TCP flags and
    content checksums defined here.  The one packet value left is a UDP
    datagram ({!udp}), which only the benchmark's UDP source builds and
    {!Nic.transmit} copies into a row.  Packets are never serialised: the
    simulated NI demultiplexes rows as they are and charges the
    byte-level classifier's cost (section 3.2).  Header sizes follow
    IPv4/UDP/TCP so that wire-time calculations are realistic. *)

type ip = int
(** IPv4 address as a non-negative int (printed dotted-quad). *)

type port = int
val pp_ip : Format.formatter -> ip -> unit
val ip_of_quad : int -> int -> int -> int -> int
(** [ip_of_quad a b c d] is the address [a.b.c.d].
    @raise Invalid_argument on out-of-range octets. *)

(** {2 TCP flags}

    A segment's flags are an int of these bits. *)

val syn : int
val ack : int
val fin : int
val rst : int
val psh : int

val flags : ?syn:bool -> ?ack:bool -> unit -> int

(** The combinations TCP emits. *)

val flags_ack : int
val flags_ack_psh : int
val flags_syn : int
val flags_syn_ack : int
val flags_fin_ack : int
val flags_rst_ack : int

type icmp_kind = Echo_request | Echo_reply
(** The ICMP messages the simulator sends: a host answers an echo request
    with an echo reply. *)

val icmp_kind_index : icmp_kind -> int

val icmp_kind_of_index : int -> icmp_kind
(** @raise Invalid_argument on an index no kind has. *)

type t = {
  src : ip;
  dst : ip;
  ident : int;
  csum : int;  (** sender-computed content checksum *)
  sport : port;
  dport : port;
  payload : Payload.t;
}
(** A UDP datagram: 8 words. *)

val ip_header_bytes : int
val udp_header_bytes : int
val tcp_header_bytes : int
val icmp_header_bytes : int

(** {1 Content checksum}

    A multiplicative mix over the fields that define a packet's content
    (addresses, transport header fields, payload length and byte sum).
    [ident] is excluded so that retransmits of the same
    content checksum identically.  Any single-field or single-byte change
    yields a different value (the mix multiplier is invertible mod 2^30).
    The frame pool checks rows with the same three sums. *)

val udp_sum :
  src:ip -> dst:ip -> sport:port -> dport:port -> len:int -> bsum:int -> int
val tcp_sum :
  src:ip -> dst:ip -> sport:port -> dport:port -> seq:int -> ack_no:int ->
  flags:int -> window:int -> len:int -> bsum:int -> int
val icmp_sum : src:ip -> dst:ip -> kind:int -> len:int -> bsum:int -> int

(** {1 Constructors} *)

val empty_payload : Payload.t
(** The shared zero-length payload of data-less segments. *)

val next_ident : unit -> int
(** The next IP ident of this domain's engine cell (16 bits); every
    frame a sender makes draws one, after its checksum. *)

val udp :
  src:ip -> dst:ip -> src_port:port -> dst_port:port -> Payload.t -> t
(** A datagram value, for the benchmark's UDP source (through
    {!Nic.transmit}); the simulator's own senders write rows with
    {!Parena.udp}. *)

val is_multicast_addr : ip -> bool
(** Class-D (224.0.0.0/4) test. *)
