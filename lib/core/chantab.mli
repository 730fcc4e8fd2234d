(** Channel table: maps a packet's flow to the NI channel that should
    receive it.

    Resolution rules (mirroring the PCB rules, executed by the NI / the
    interrupt handler):

    - UDP: the channel of the socket bound to the destination port;
    - TCP: the connection's own channel (created when the connection —
      even an embryonic one — comes into existence), falling back to the
      listening socket's channel for connection-establishment requests;
    - non-first IP fragments: a dedicated fragment channel that the IP
      reassembly code checks when it is missing pieces (section 3.2);
    - ICMP and other non-endpoint protocols: the proxy daemon's channel
      (section 3.5).

    Endpoint mappings are stored in a single packed-key {!Flowtab}: a
    flow key is [(namespace lsl 32) lor src-ip] / [(src-port lsl 16) lor
    dst-port], so a demux probe is one integer-keyed robin-hood lookup —
    no tuple allocation, no structural hashing. *)

type t

val create :
  ?arena:Lrp_net.Parena.t ->
  ?frag_limit:int -> ?icmp_limit:int -> ?fwd_limit:int -> unit -> t
(** [arena] is the descriptor arena the dedicated channels (and, by
    convention, every per-socket channel registered here) draw from;
    kernels pass their shared arena. *)

val frag_channel : t -> Channel.t
val icmp_channel : t -> Channel.t
val fwd_channel : t -> Channel.t

val add_udp : t -> port:int -> Channel.t -> unit
(** @raise Invalid_argument if the port is already bound. *)

val remove_udp : t -> port:int -> unit

val add_tcp :
  t ->
  src:Lrp_net.Packet.ip ->
  src_port:int -> dst_port:int -> Channel.t -> unit
(** Bind a connection's four-tuple, replacing any previous binding. *)

val remove_tcp :
  t -> src:Lrp_net.Packet.ip -> src_port:int -> dst_port:int -> unit

val add_tcp_listen : t -> port:int -> Channel.t -> unit
(** @raise Invalid_argument if the port is already listened on. *)

val remove_tcp_listen : t -> port:int -> unit

val resolve_packet : t -> Lrp_net.Packet.t -> Channel.t option
(** Classify and probe in one pass: the destination channel, or [None]
    (counted in {!unmatched}) when no endpoint matches.  A cold-path
    convenience over {!resolve_slot}, the hot path's probe; the option
    result boxes. *)

(** {2 Allocation-free resolution}

    The per-packet demux probe used by the NI and interrupt handlers.
    [resolve_slot] returns an int slot code instead of a
    [Channel.t option], so the probe allocates nothing at all:
    non-negative codes are {!Flowtab} slots (valid until the next table
    mutation), negative codes name the dedicated channels or a miss. *)

val slot_none : int
(** No endpoint matched (the packet will be dropped); counted in
    {!unmatched}. *)

val resolve_slot : t -> Lrp_net.Packet.t -> int
(** Classify and probe in one pass, returning a slot code.  Agrees with
    {!resolve_packet}: [resolve_slot] returns {!slot_none} exactly when
    [resolve_packet] returns [None], and otherwise
    [channel_of_slot t (resolve_slot t pkt)] is the channel
    [resolve_packet] would box. *)

val channel_of_slot : t -> int -> Channel.t
(** Decode a slot code returned by {!resolve_slot}.
    @raise Invalid_argument on {!slot_none}. *)

val unmatched : t -> int
(** Packets that matched no endpoint. *)

val udp_channel_count : t -> int
val tcp_channel_count : t -> int
