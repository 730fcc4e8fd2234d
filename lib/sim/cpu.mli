(** Single-CPU host execution model.

    The CPU multiplexes three dispatch levels, highest first:

    + hardware-interrupt work,
    + software-interrupt work,
    + user processes (chosen by the 4.3BSD scheduler in {!Lrp_sched.Sched}).

    Hardware-interrupt work preempts everything; software interrupts preempt
    user processes but not hardware interrupts; user processes preempt each
    other according to scheduler priority.  Preempted work resumes where it
    left off.  This is exactly the BSD structure that produces receiver
    livelock: interrupt-level work can starve every process (paper
    section 2.2).

    Time accounting follows BSD: a 10 ms clock tick charges [p_cpu] to the
    current process — and when the tick lands in interrupt context, to the
    process that was interrupted, reproducing the paper's "inappropriate
    resource accounting".  Exact (microsecond) per-context times are also
    tracked for reporting.

    Context-switch model: switching the CPU to a different user process costs
    [ctx_switch_cost] plus the incoming process's [working_set_us]
    (cache-reload penalty), charged to the incoming process. *)

open Lrp_engine
module Sched = Lrp_sched.Sched

type t

val create :
  Engine.t -> ?ctx_switch_cost:float -> ?start_clock:bool -> unit -> t
(** [create engine ()] makes a CPU driven by [engine]'s clock.
    [ctx_switch_cost] defaults to 0; [start_clock] (default true) installs
    the periodic scheduler tick and decay events. *)

(** {1 Processes} *)

val spawn :
  t -> ?nice:int -> ?working_set:float -> name:string -> (Proc.t -> unit) ->
  Proc.t
(** Create a process and make it runnable now.  The body runs as a coroutine
    performing compute ({!compute}) / {!Proc.block} effects. *)

val join : Proc.t -> unit
(** Block the calling process until [p] exits (process context only). *)

val wakeup_one : t -> Proc.waitq -> bool
(** Wake the longest-waiting process on the queue.  Returns [false] if the
    queue was empty.  Callable from any context. *)

val wakeup_all : t -> Proc.waitq -> int
(** Wake every process on the queue, oldest first; returns how many. *)

val proc_count : t -> int

(** {1 Interrupt work}

    Posted work sits in a per-level ring of flat columns until the CPU
    dispatches it.  The hot per-packet paths post {e typed jobs}: a
    dispatcher and its trace label registered once per work kind and CPU,
    named in the row by an int id, plus an object and an int stored in
    the row, with the cost staged in {!cost_cell} — a post, its dispatch
    and its completion then allocate nothing.  Every post takes this
    path. *)

type 'a job
(** A typed interrupt-work dispatcher taking an ['a] and an int,
    registered with one CPU. *)

val job : t -> label:string -> ('a -> int -> unit) -> 'a job
(** [job t ~label f] registers [f] as a dispatcher on [t]; the tracer
    names every span of its work [label].  Call once per work kind at
    setup (a kernel registers its receive jobs at creation), not per
    post; a job is posted only to the CPU it was registered with. *)

val cost_cell : t -> float array
(** 1-slot staging cell for the cost in microseconds of the next
    {!post_hard_job}/{!post_soft_job} or {!compute}.  A computed float
    passed as an argument to a call that is not inlined is boxed at the
    call; a float-array store is not.  Write it immediately before posting
    or computing. *)

val post_hard_job : t -> tpkt:int -> 'a job -> 'a -> int -> unit
(** [post_hard_job t ~tpkt j x i] enqueues hardware-interrupt work
    costing [(cost_cell t).(0)] microseconds; when the CPU has spent them
    at hardware-interrupt level, [j]'s dispatcher runs on [x] and [i]
    (instantaneously).  [tpkt] is the packet ident the work processes, for
    tracing, or [-1]. *)

val post_hard_job_tail : t -> tpkt:int -> 'a job -> 'a -> int -> unit
(** {!post_hard_job} for a caller that is the last thing its engine event
    does: the event returns to the engine as soon as this call returns,
    with nothing scheduled, cancelled or read in between.  The CPU may
    then complete the work's segment (and what follows it) inline, when
    its completion is provably the engine's next event (DESIGN §17); the
    simulation is exactly what {!post_hard_job} produces.  Nested inside
    another entry (from a dispatched action) it is {!post_hard_job}.
    Calling it from an event that does more after it returns is an error
    that this function cannot detect. *)

val post_soft_job : t -> tpkt:int -> poll:bool -> 'a job -> 'a -> int -> unit
(** The software-interrupt analogue of {!post_hard_job} (BSD's softnet
    level).  When [tpkt >= 0] the tracer brackets the timed segment in
    [Softint_begin]/[Softint_end] events keyed by that packet.  [poll]
    marks a NAPI poll round: it runs and preempts at softirq level, but
    its cycles are ledgered as {!Ledger.Poll} instead of [Soft]. *)

val set_account : Proc.t -> owner:Proc.t -> unit
(** Redirect scheduler charging for a process (LRP's APP thread runs at its
    owning process's priority and charges CPU to it). *)

(** {1 Process-context compute}

    The only way process code consumes CPU: stage the cost in
    {!cost_cell}, then perform.  Process context only. *)

val compute : t -> unit
(** Consume [(cost_cell t).(0)] simulated microseconds of CPU, preemptibly,
    ledgered as application work (no-op when the staged cost is not
    positive). *)

val compute_proto : t -> flow:int -> unit
(** {!compute} with the segment attributed to receiver-context protocol
    work serving channel [flow] ([-1] for none) in the CPU's {!Ledger}
    (LRP's lazy protocol processing, the UDP helper, the forwarding
    daemon). *)

val compute_poll : t -> unit
(** {!compute} with the segment attributed to NAPI poll work in the CPU's
    {!Ledger} (ksoftirqd's process-context polling). *)

(** {1 Accounting ledger} *)

val ledger : t -> Ledger.t
(** The CPU's always-on cycle-accounting ledger.  Interrupt-level cycles
    are recorded against the interrupted victim (BSD's [curproc]: the
    process whose context the CPU was in), reproducing
    BSD's mis-accounting; process cycles split into protocol vs
    application work. *)

(** {1 Introspection / statistics} *)

val time_hard : t -> float
(** Exact microseconds spent at hardware-interrupt level so far. *)

val time_soft : t -> float
val time_user : t -> float

val time_poll : t -> float
(** Microseconds of NAPI poll work so far.  Informational slice: poll
    cycles are already included in {!time_soft} (softirq rounds) or
    {!time_user} (ksoftirqd), so the conservation law
    [elapsed = hard + soft + user + idle] is unchanged. *)

val time_idle : t -> float
val context_switches : t -> int
val softirq_dispatches : t -> int
val hardirq_dispatches : t -> int

val utilization : t -> float
(** Fraction of elapsed time the CPU was not idle. *)

val iter_procs : t -> (Proc.t -> unit) -> unit
(** Iterate over live (not yet reaped) processes, in spawn order. *)

(** {1 Observability} *)

val set_tracer : t -> Lrp_trace.Trace.t -> unit
(** Install the owning kernel's tracer.  The CPU records interrupt
    enter/exit spans, per-packet software-interrupt spans, context switches
    and thread state changes into it; with no (or a disabled) tracer every
    emission is a single branch. *)

val counters : t -> prefix:string -> (string * float) list
(** CPU time split, dispatch/switch counts, process count and the
    scheduler's {!Sched.counters}, named under [prefix]. *)
