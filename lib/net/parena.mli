(** Struct-of-arrays descriptor arena for in-flight received frames.

    A frame sitting in a receive-side queue is a *descriptor*: a slot
    across parallel columns (structured packet, mbuf charge) identified
    by a generation-checked integer handle.  The
    charge is how many {!Mbuf} pool mbufs the frame holds: set by an
    eager kernel at admission, 0 on lazy kernels' channel rows, and given
    back to the pool by whoever releases the row.  Queues carry the
    handles through flat int rings — no queue-cell allocation, no option
    boxing.

    Handle validity: a handle is valid from {!acquire} until the matching
    {!release}; the generation is bumped at release, so stale handles
    (double release, use-after-release) raise [Invalid_argument] instead
    of touching the slot's next occupant.  Steady-state acquire/release
    allocates nothing. *)

type t

type handle = int

val none : handle
(** Never valid. *)

val create : unit -> t

val acquire : t -> Packet.t -> charge:int -> handle
(** Admit a frame charged [charge] mbufs: store it in a recycled slot
    and return the slot's handle. *)

val pkt : t -> handle -> Packet.t
(** The admitted frame.  @raise Invalid_argument on a stale handle. *)

val charge : t -> handle -> int
(** Mbufs the frame holds.  @raise Invalid_argument on a stale handle. *)

val set_pkt : t -> handle -> Packet.t -> unit
(** Put another frame in the row, keeping its charge (reassembly hands a
    fragment's row to the whole datagram).
    @raise Invalid_argument on a stale handle. *)

val absorb : t -> into:handle -> handle -> unit
(** Add the second row's charge to [into] and release the second row.
    @raise Invalid_argument on a stale handle. *)

val release : t -> handle -> unit
(** Return the slot to the free list and invalidate the handle; the
    caller gives the row's {!charge} back to the pool.
    @raise Invalid_argument on a stale handle. *)

val live : t -> int
(** Descriptors currently held. *)

