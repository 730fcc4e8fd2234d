(** Struct-of-arrays descriptor arena for in-flight received frames.

    A frame sitting in a receive-side queue is a *descriptor*: a slot
    across parallel columns (structured packet, cached wire footprint)
    identified by a generation-checked integer handle.  Queues carry the
    handles through flat int rings — no queue-cell allocation, no option
    boxing, no repeated [wire_bytes] traversal.

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

val acquire : t -> Packet.t -> handle
(** Admit a frame: store it (and its cached [Packet.wire_bytes]) in a
    recycled slot and return the slot's handle. *)

val pkt : t -> handle -> Packet.t
(** The admitted frame.  @raise Invalid_argument on a stale handle. *)

val wire_bytes : t -> handle -> int
(** Cached wire footprint — saves the per-read body traversal.
    @raise Invalid_argument on a stale handle. *)

val release : t -> handle -> unit
(** Return the slot to the free list and invalidate the handle.
    @raise Invalid_argument on a stale handle. *)

val live : t -> int
(** Descriptors currently held. *)

val peak : t -> int
(** High-water mark of {!live}. *)

