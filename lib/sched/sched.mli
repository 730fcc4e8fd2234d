(** 4.3BSD-style decay-usage process scheduler.

    This reimplements the scheduling policy the paper's results depend on:

    - each clock tick charges one unit of [p_cpu] to the thread that is
      current (or to the thread it accounts to, see {!set_account}),
    - the user priority is recomputed as
      [PUSER + p_cpu/4 + 2*nice], clamped to [\[PUSER, 127\]]
      (lower numbers mean better priority),
    - once per second every thread's [p_cpu] decays by
      [2*load / (2*load + 1)],
    - threads sleeping longer than a second have their [p_cpu] decayed for
      the time they slept when they wake, which is why interactive threads
      get good priority,
    - a 100 ms quantum round-robins threads of equal priority.

    BSD's mis-accounting of network processing (paper section 2.2) arises
    when the simulator charges ticks spent in interrupt context to whatever
    thread happened to be current; LRP's fair accounting arises when
    protocol-processing time is charged to the receiving thread, possibly
    via the {!set_account} redirection used by the APP thread. *)

type t

type thread

(** {1 Tunables (4.3BSD values)} *)

val tick_interval : float
(** Interval between scheduler ticks, microseconds (10 ms). *)

val decay_interval : float
(** Interval between usage decays, microseconds (1 s). *)

val quantum_ticks : int
(** Ticks per round-robin quantum (10 ticks = 100 ms). *)

val priority_user : int
(** PUSER, the best user priority (50). *)

(** {1 Construction} *)

val create : clock:float array -> t
(** [clock] is a 1-slot cell holding the current virtual time (the CPU
    model passes its engine's {!Lrp_engine.Engine.clock_cell}); reading
    it instead of taking [~now] arguments keeps wakeups and sleeps free of
    float boxing. *)

val add_thread : t -> ?nice:int -> unit -> thread
(** New thread in the sleeping state.  [nice] defaults to 0 and is clamped
    to [-20, 20]. *)

val readd_thread : t -> thread -> ?nice:int -> unit -> unit
(** [readd_thread t th ?nice ()] makes an exited thread's record a new
    sleeping thread, exactly as {!add_thread} would: a fresh tid, [nice]
    clamped, no usage, no account, the newest in [t]'s order.  The CPU's
    process pool reuses records this way.
    @raise Invalid_argument if [th] has not exited. *)

val set_account : thread -> owner:thread -> unit
(** [set_account th ~owner] makes ticks charged to [th] accrue to
    [owner]'s [p_cpu] instead, and makes [th]'s priority mirror [owner]'s.
    Used by LRP's asynchronous-protocol-processing thread, which is
    "scheduled at its process's priority and its CPU usage is charged to its
    process" (paper section 3.4). *)

(** {1 Inspection} *)

val tid : thread -> int
val priority : thread -> int
val p_cpu : thread -> float
val is_sleeping : thread -> bool
val ticks_charged : thread -> int
(** Total ticks charged to this thread since creation (accounting view:
    includes redirected charges from other threads). *)

val runnable_count : t -> int

(** {1 State transitions (driven by the CPU model)} *)

val make_runnable : t -> thread -> unit
(** Move a sleeping thread to the run queue, applying the wakeup [p_cpu]
    decay for the time it slept (until now, read from the clock cell). *)

val sleep : t -> thread -> unit
(** Remove the thread from the run queue and record now as its sleep
    start. *)

val exit_thread : t -> thread -> unit

val pick_tid : t -> int
(** The {!tid} of the best-priority runnable thread (FIFO among equals),
    or [-1] when none is runnable.  Allocation-free: the CPU model's
    per-dispatch path.  Does not change any scheduling state. *)

val should_preempt : t -> current:thread -> bool
(** True when some runnable thread has strictly better priority than
    [current]. *)

val requeue : t -> thread -> unit
(** Move a runnable thread behind its equal-priority peers (end of
    quantum). *)

(** {1 Clock hooks (driven by the simulator's periodic events)} *)

val charge_tick : thread -> unit
(** One scheduler tick elapsed with [thread] current: charge its [p_cpu]
    (or its accounting target's), recompute priority, advance its quantum.
    Use {!quantum_expired} afterwards to decide on a round-robin. *)

val quantum_expired : thread -> bool

val reset_quantum : thread -> unit

val decay : t -> unit
(** Once-per-second usage decay and priority recomputation for all threads.
    The load average is smoothed internally from the runnable count. *)

val load_average : t -> float

val counters : t -> prefix:string -> (string * float) list
(** Load average, runnable count and thread count, named under [prefix]. *)

