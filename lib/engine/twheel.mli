(** Two-tier pending-event queue: hierarchical timer wheel + {!Eheap}.

    Near-horizon events land in O(1) wheel buckets; far-horizon events
    overflow into the comparison heap.  All pops come from the heap, after
    [sync] has poured every bucket that could hold the global minimum, so
    firing order — (key, FIFO-seq) lexicographic — is exactly what a pure
    heap would produce.  Values are ints (the engine's packed handles), so
    the structure is fully unboxed and schedule/pop allocate nothing on the
    steady state. *)

type t

val create : ?wheel:bool -> unit -> t
(** [create ()] makes an empty queue.  [~wheel:false] disables the wheel
    entirely — every event goes straight to the heap — which must be
    observationally identical; the equivalence property test runs the two
    side by side. *)

val set_filter : t -> (int -> bool) -> unit
(** Install the liveness filter consulted when a bucket pours: entries for
    which the filter returns [false] (cancelled events) are dropped in O(1)
    instead of entering the heap.  The filter may free the entry's backing
    state.  Default accepts everything. *)

val length : t -> int
(** Entries currently queued (wheel residents + heap), including cancelled
    entries not yet dropped. *)

val is_empty : t -> bool

val add : t -> now:float -> key:float -> int -> unit
(** [add t ~now ~key v] schedules [v] at time [key].  [now] is the current
    virtual time; it lets an idle wheel snap its tick cursor forward so
    near-horizon events stay in the cheap path after a heap-only stretch.
    Requires [key >= now]. *)

val min_key_or : t -> default:float -> float
(** Smallest key queued, or [default] when empty.  Turns the wheel as
    needed; allocation-free. *)

val pop_min : t -> key_ref:float ref -> int
(** Remove the globally-minimal entry and return its value; its key is
    written through [key_ref] (no tuple allocation).
    @raise Invalid_argument when empty. *)

(** {2 Cell-based hot path}

    Non-flambda OCaml boxes every float that crosses a function boundary
    as an argument or return value, but float-array loads and stores stay
    unboxed.  The queue therefore owns a two-float scratch cell through
    which keys and times travel: with these entry points the steady-state
    schedule/fire cycle allocates zero minor words. *)

val cell : t -> float array
(** The queue's scratch cell (length 2).  [cell.(0)] carries the event key
    into {!add_cell} and out of {!pop_min_cell}; [cell.(1)] carries the
    current virtual time into {!add_cell}. *)

val add_cell : t -> int -> unit
(** {!add} reading [~key] from [cell.(0)] and [~now] from [cell.(1)]. *)

val min_key_leq : t -> float -> bool
(** [min_key_leq t bound] is [true] iff the queue is non-empty and its
    minimal key is [<= bound].  Allocation-free replacement for comparing
    {!min_key_or} against a bound. *)

val min_key_into : t -> cell:float array -> bool
(** [min_key_into t ~cell] writes the minimal key into [cell.(0)] and
    returns [true], or returns [false] (leaving [cell] alone) when the
    queue is empty.  Allocation-free replacement for {!min_key_or} when
    the key itself is needed (the float return of {!min_key_or} is
    boxed). *)

val pop_min_cell : t -> int
(** Remove the globally-minimal entry and return its value, leaving its
    key in [cell.(0)]; returns [-1] when the queue is empty (cancelled
    entries may be dropped on the way, so a non-[is_empty] queue can still
    come up empty here).  Stored values must be [>= 0]. *)

val pop_leq_cell : t -> bound:float -> int
(** {!pop_min_cell} gated on the bound: pops the globally-minimal entry
    iff its key is [<= bound], returning [-1] otherwise (empty queue, or
    minimum beyond the bound).  One wheel sync and one heap-root access
    where a {!min_key_leq} / {!pop_min_cell} pair pays two of each — the
    event loop's per-iteration operation. *)

val pop_boundcell : t -> int
(** {!pop_leq_cell} with the bound read out of [cell.(1)] instead of a
    float argument (boxed at every non-inlined call): the batched
    dispatch loop's per-event pop.  [cell.(1)] is only read by
    {!add_cell} at schedule time; re-write it before any pop that
    follows dispatched work. *)

(** {2 Routing statistics} — cumulative, surfaced through
    [Engine.timer_stats]. *)

val scheduled_wheel : t -> int
(** Schedules that landed in a wheel bucket. *)

val scheduled_heap : t -> int
(** Schedules routed straight to the heap (past/overflow, or wheel off). *)

val skipped_at_pour : t -> int
(** Cancelled entries dropped by the filter at bucket-pour time — each one
    a heap insertion plus a heap pop avoided. *)
