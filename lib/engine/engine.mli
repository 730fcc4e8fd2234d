(** Discrete-event simulation engine.

    An engine owns the virtual clock and the pending-event queue.  Events are
    thunks executed at their scheduled virtual time; an event may schedule or
    cancel further events.  Time never goes backwards: scheduling in the past
    is an error. *)

type t

type handle
(** Identifies a scheduled event, for cancellation and re-arming.
    {!none} is a handle that was never issued — every operation on it is a
    safe no-op — so callers can store handles unboxed (no option).
    Cancellation is lazy: the slot stays in the queue but the thunk will
    not run.  Handles are immediate values (no allocation per event); a
    handle becomes stale once its event has fired without being re-armed,
    and all operations on a stale handle are safe no-ops or errors — they
    can never affect a later event that recycled the same record. *)

type 'a target
(** A registered event dispatcher for the closure-free fast path: one
    constructor of the engine's work-item variant (packet delivery, softint
    completion, TCP timer, ...), registered once per call site.  Scheduling
    to a target stores only (target id, argument) in the event's slot —
    zero minor words per event — where scheduling a thunk allocates a fresh
    closure per event. *)

val none : handle
(** The never-valid handle: [cancel]/[is_pending] on it are safe no-ops. *)

val create : ?seed:int -> unit -> t
(** Fresh engine with clock at zero and an empty queue.  [seed] initialises
    the engine's root RNG (default 42). *)

val now : t -> Time.t
(** Current virtual time. *)

val clock_cell : t -> float array
(** The engine's clock as a 1-slot float array; [(clock_cell t).(0)] is
    [now t].  Reading the slot is an unboxed float-array load, where a
    [unit -> float] closure would box its return per call —
    zero-allocation observers (the flight recorder, the scheduler) stamp
    events straight from it.  Callers
    must treat the array as read-only; writing it corrupts the clock. *)

val rng : t -> Rng.t
(** The engine's root RNG.  Long-lived components should [Rng.split] their
    own stream off it at setup time. *)

val ids : t -> Idspace.t
(** The engine's identifier streams (packet idents, channel / connection /
    socket ids).  [create] installs them as the creating domain's current
    {!Idspace}; {!Shardsim} re-installs each cell's space before advancing
    it, so ids stay a function of the cell's own allocation order at any
    shard count. *)

val next_key_into : t -> cell:float array -> bool
(** [next_key_into t ~cell] writes the virtual time of the earliest
    pending event into [cell.(0)] and returns [true], or returns [false]
    when no live event is queued — the per-cell deadline a sharded
    coordinator folds into its global epoch bound.  A cell rather than a
    float return, which would be boxed. *)

val schedule : t -> at:Time.t -> (unit -> unit) -> handle
(** [schedule t ~at f] runs [f] at virtual time [at].
    @raise Invalid_argument if [at] is before [now t]. *)

val schedule_after : t -> delay:float -> (unit -> unit) -> handle
(** [schedule_after t ~delay f] is [schedule t ~at:(now t +. delay) f]. *)

val target : t -> ('a -> unit) -> 'a target
(** [target t f] registers [f] as a dispatcher and returns its id.  Call
    once at component setup, not per event: the registry only grows.  [f]
    receives the argument passed to {!schedule_to}. *)

val schedule_to : t -> at:Time.t -> 'a target -> 'a -> handle
(** [schedule_to t ~at tgt v] runs the target's dispatcher on [v] at
    virtual time [at].  Behaviourally identical to
    [schedule t ~at (fun () -> f v)] but allocates no closure — the hot
    per-packet/per-segment path.
    @raise Invalid_argument if [at] is before [now t]. *)

val schedule_to_after : t -> delay:float -> 'a target -> 'a -> handle
(** [schedule_to_after t ~delay tgt v] is
    [schedule_to t ~at:(now t +. delay) tgt v]. *)

val deadline_cell : t -> float array
(** 1-slot staging cell for {!schedule_to_staged}.  A computed float
    passed as a [~delay]/[~at] argument is boxed at the call boundary (2
    minor words per event); a float-array store is not.  Zero-allocation
    senders write the absolute deadline into slot 0 and then call
    {!schedule_to_staged}.  The slot is consumed by the next schedule
    call of any kind — write it immediately before scheduling. *)

val schedule_to_staged : t -> 'a target -> 'a -> handle
(** [schedule_to_staged t tgt v] is
    [schedule_to t ~at:(deadline_cell t).(0) tgt v] without the float
    boxing.
    @raise Invalid_argument if the staged deadline is before [now t]. *)

val cancel : t -> handle -> unit
(** Cancel a pending event.  Cancelling an already-run or already-cancelled
    event is a no-op. *)

val reschedule : t -> handle -> at:Time.t -> unit
(** Re-arm the currently-firing event at a new time, from inside its own
    thunk.  The event record and thunk are reused — a periodic source pays
    no allocation per firing.  Only valid while the handle's thunk is
    executing (before it has been re-armed).
    @raise Invalid_argument if the handle is not the currently-firing
    event, or if [at] is in the past. *)

val reschedule_after : t -> handle -> delay:float -> unit
(** [reschedule_after t h ~delay] is [reschedule t h ~at:(now t +. delay)]. *)

val is_pending : t -> handle -> bool

val pending_events : t -> int
(** Number of live (non-cancelled) events still queued. *)

val events_executed : t -> int
(** Total events executed so far (for performance reporting). *)

type timer_stats = {
  scheduled : int;  (** total events accepted by the [schedule*] family *)
  fired : int;  (** events whose work item actually ran *)
  cancelled : int;  (** events cancelled before firing *)
  routed_wheel : int;  (** always [0] *)
  routed_heap : int;  (** always [scheduled] *)
}
(** [routed_wheel] and [routed_heap] date from a two-tier queue whose
    timer wheel took near-horizon events; the heap is now the only queue.
    They stay because the benchmark driver ([perfbench/lrpbench.ml])
    reports them. *)

val timer_stats : t -> timer_stats
(** Cumulative scheduling/churn counters, read by
    [Lrp_kernel.Kernel.counters]. *)

val run : t -> until:Time.t -> unit
(** Execute events in timestamp order until the queue is exhausted or the
    next event lies beyond [until].  The clock is left at the time of the
    last executed event, or at [until] if that is later.  Each maximal run
    of equal-key ready events is popped into a reusable scratch column
    and dispatched through a single loop, paying the queue bookkeeping
    once per distinct timestamp; firing order is still exactly (key,
    FIFO-seq), since nothing a batch's own handlers schedule or cancel can
    reorder it. *)

val drain : t -> unit
(** {!run} with an unbounded horizon: execute queued events until none
    remain, leaving the clock at the last executed event.  Beware
    self-re-arming handlers — they keep the queue non-empty and [drain]
    will not return.  Unlike {!run} this takes no time argument, so a
    caller in an allocation-free loop pays no float boxing. *)

val run_while : t -> (unit -> bool) -> until:Time.t -> unit
(** Like [run] but also stops (after the current event) once the predicate
    turns false.  When the predicate stops the loop early, the clock is
    left at the last executed event — it is {e not} advanced to [until],
    so events still queued before [until] keep their place and later
    schedules cannot be reordered past them. *)

val step : t -> bool
(** Execute the single next live event, shedding cancelled entries on
    the way.  Returns [false] when nothing fired: no live event was
    queued. *)
