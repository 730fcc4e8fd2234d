(** Reusable domain team with an epoch barrier.

    Built on {!Pool}'s shared worker set: [create ~size] parks [size - 1]
    member loops on reserved pool workers; each {!run} is one epoch — all
    members (the caller participates as member 0) execute the given
    function with their member index, and [run] returns only when every
    member has checked in.  Epochs cost one epoch bump plus one completion
    wait, both {!Spin} waits (poll, then park), with no per-epoch queueing
    or allocation — the synchronization backbone for conservative-lookahead
    sharded simulation ({!Lrp_engine.Shardsim}), which runs thousands of
    epochs against one member set.

    Determinism: member [i] always receives index [i]; which OS thread
    backs a member is invisible to the work function. *)

type t

val create : size:int -> t
(** A team of [max 1 size] members.  [size <= 1] teams run everything
    inline in the caller. *)

val size : t -> int

val run : t -> (int -> unit) -> unit
(** One epoch: every member [0 .. size-1] runs the function with its own
    index; returns when all have finished.  If any member raises, the
    first exception (by completion time) is re-raised in the caller after
    the barrier.  Not re-entrant. *)

val shutdown : t -> unit
(** Dissolve the team: member loops return to the parked pool and their
    reservations are released.  Idempotent.  Must not race a {!run}. *)
