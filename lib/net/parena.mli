(** The frame pool: one per engine cell, holding every frame from its
    sender's row writer ({!udp}, {!tcp}, {!icmp}) to its one release.

    A frame is a {e row}: its IP and transport header fields, its fragment
    slice and the {!Mbuf} charge it holds, in one flat int array, behind
    a generation-checked integer handle.  A synthetic payload is two ints
    (length, tag); only a byte payload writes the one pointer column.  A
    fragment's row holds its whole datagram's fields and payload plus the
    slice it carries, so reassembly only clears the fragment mark.
    Queues, events, CPU jobs and socket queues carry the handle: nothing
    on the per-frame path stores a packet pointer.

    Handle validity: a handle is valid from the call that made the row
    (a row writer, {!copy_in}, {!copy}) until its {!release}; the
    generation is bumped at release, so stale handles (double release,
    use-after-release) raise [Invalid_argument] instead of touching the
    slot's next occupant.  Steady-state writes, copies and releases
    allocate nothing. *)

type t

type handle = int

val none : handle
(** Never valid. *)

val create : unit -> t

(** {1 Row writers}

    A sender's frame, written straight into a new uncharged row: the
    content checksum over the fields and payload, then the cell's
    next ident ({!Packet.next_ident}). *)

val udp :
  t -> src:Packet.ip -> dst:Packet.ip -> src_port:Packet.port ->
  dst_port:Packet.port -> Payload.t -> handle

val tcp :
  t -> src:Packet.ip -> dst:Packet.ip -> src_port:Packet.port ->
  dst_port:Packet.port -> seq:int -> ack_no:int -> flags:int -> window:int ->
  Payload.t -> handle

val icmp :
  t -> src:Packet.ip -> dst:Packet.ip -> Packet.icmp_kind -> Payload.t ->
  handle

val copy_in : t -> Packet.t -> handle
(** A new uncharged row holding a datagram value as it is: the
    benchmark's UDP source builds one per frame and hands it to
    {!Nic.transmit}. *)

val copy : t -> handle -> into:t -> handle
(** A new uncharged row in [into] holding the same frame: a multicast or
    duplicated copy, or a frame handed to another cell's pool. *)

val release : t -> handle -> unit
(** Return the row to the free list and invalidate the handle; the
    caller gives the row's {!charge} back to the mbuf pool. *)

val live : t -> int
(** Rows currently held. *)

(** {1 Fields}

    Every accessor raises [Invalid_argument] on a stale handle.  A
    fragment's row answers with its whole datagram's header and
    payload. *)

type proto = Udp | Tcp | Icmp

val proto : t -> handle -> proto
val src : t -> handle -> Packet.ip
val dst : t -> handle -> Packet.ip
val ident : t -> handle -> int
val sport : t -> handle -> Packet.port
val dport : t -> handle -> Packet.port
val seq : t -> handle -> int
val ack_no : t -> handle -> int
val flags : t -> handle -> int
val window : t -> handle -> int
val csum : t -> handle -> int
(** The checksum the row carries (its sender's, or a merge's reseal). *)

val icmp_kind : t -> handle -> Packet.icmp_kind
val is_echo_request : t -> handle -> bool

val payload_len : t -> handle -> int
(** The (whole) datagram's payload length. *)

val payload : t -> handle -> Payload.t
(** The (whole) datagram's payload: a synthetic value (shared with the
    last row read that had the same length and tag), or the byte payload
    the row points to. *)

val wire_bytes : t -> handle -> int
(** Bytes on the wire: IP header, transport header (a fragment: only the
    first), payload (a fragment: its slice). *)

val verify : t -> handle -> bool
(** The carried checksum matches the content: false once corrupted. *)

val is_fragment : t -> handle -> bool
val foff : t -> handle -> int
(** A fragment's payload offset; [0] for a whole datagram. *)

val tcp_merge : t -> handle array -> int -> unit
(** [tcp_merge t train n]: receive offload of the TCP rows
    [train.(0)] .. [train.(n-1)] into the first: their payloads glued in
    order, the last one's acknowledgment, window and PSH bit, and a
    resealed checksum.  The other rows stay the caller's. *)

(** {1 Fragments} *)

val set_fragment : t -> handle -> foff:int -> flen:int -> last:bool -> unit
(** Make the row a fragment carrying payload bytes [foff, foff+flen). *)

val flen : t -> handle -> int
val last : t -> handle -> bool

val set_whole : t -> handle -> unit
(** Reassembly complete: the row carries its whole datagram again. *)

(** {1 Mbuf charge} *)

val charge : t -> handle -> int
val set_charge : t -> handle -> int -> unit

val absorb : t -> into:handle -> handle -> unit
(** Add the second row's charge to [into] and release the second row. *)

(** {1 Faults} *)

val corrupt : t -> handle -> at:int -> xor:int -> bool
(** Flip one payload byte (position [at mod length] — within the slice
    for a fragment — pattern [xor land 0xff], forced non-zero) while
    keeping the carried checksum, so {!verify} fails.  A payload-less
    TCP segment gets its [ack_no] flipped instead.  [false] (row
    unchanged) when there is nothing to corrupt. *)
