(** Simulated processes.

    A process is an OCaml function run as an effect-handled coroutine.  Host
    OCaml execution is instantaneous in virtual time; simulated CPU
    consumption happens only where the code performs [Compute].  This makes
    costs explicit: kernel code paths state how many microseconds of the
    simulated CPU they burn, and the CPU model (see {!Cpu}) interleaves,
    preempts and charges those segments.

    The effects here are the complete interface between process code and the
    CPU model:

    - [Compute] — consume the CPU microseconds staged in the CPU's cost
      cell, preemptibly (performed by {!Cpu.compute} and its ledger
      variants, never directly);
    - [block wq] — sleep until another party wakes the queue;
    - [sleep_for d] — sleep for [d] microseconds of virtual time;
    - [yield ()] — go to the back of the run queue without sleeping. *)

open Lrp_engine

type waitq = private unit Effect.t
(** A FIFO of blocked processes linked through their [wq_next] (4.4BSD's
    sleep queue).  A queue is its own [Block] effect value, so blocking on
    it and waking from it allocate nothing. *)

type t = {
  mutable pid : int;
      (** never reused: a record is, once its process is reaped (see
          {!Cpu.spawn}), so whatever holds a process across its exit
          keeps the pid it saw and compares it before each use *)
  mutable name : string;
  thread : Lrp_sched.Sched.thread;
  mutable working_set_us : float;
      (** Cache-reload penalty paid when this process is switched onto the
          CPU after a different process ran (models the paper's
          memory-locality effects, e.g. the Table-2 worker whose working set
          covers 35 % of the L2 cache). *)
  mutable pending : pending;
      (** an immediate, so a state change is a plain store *)
  mutable body : t -> unit;
      (** the code run at [Start]; {!started} once it has begun *)
  mutable k : (unit, unit) Effect.Deep.continuation;
      (** the parked continuation while [pending] is [Work], [Resume] or
          [Blocked]; {!no_k} otherwise *)
  mutable exited : bool;
  acct : float array;
      (** time accounting, written by the CPU model in slots
          {!a_work_left} .. {!a_last_on_cpu}; read it through {!cpu_time} *)
  exit_waiters : waitq;
  mutable wq_next : t;
      (** the next waiter on the {!waitq} this process is blocked on (the
          oldest, for the newest); the process itself while on no queue *)
  mutable lcls : int;
      (** ledger class of the current compute segment: 0 = app, 1 =
          receiver-context protocol work (set by {!Cpu.compute_proto}),
          2 = NAPI poll work (set by {!Cpu.compute_poll}) *)
  mutable lflow : int;
      (** channel/flow id the current protocol segment serves, or [-1] *)
  mutable acct_owner : t;
      (** the process this one's scheduler usage is charged to
          ({!Cpu.set_account}); {!none} for itself *)
  mutable holds : int;
      (** live processes charged to this one: its record is not reused
          while any is, so their charges keep reaching it after it
          exits *)
}

and pending =
  | Start                 (** never dispatched yet: run [body] *)
  | Work                  (** owes [work_left] microseconds of CPU *)
  | Resume                (** continuation ready to run instantly *)
  | Blocked               (** waiting on a {!waitq} or timer *)
  | Done                  (** body returned *)

type _ Effect.t +=
  | Compute : unit Effect.t
      (** Carries no payload: the cost is staged in the CPU's cost cell
          ({!Cpu.cost_cell}) and read by the handler, so a perform
          allocates only its continuation (a float payload cost the
          constructor block and a boxed float on top). *)
  | Block : { mutable tail : t } -> unit Effect.t
      (** A wait queue ({!waitq}): [tail] is the newest waiter, whose
          [wq_next] is the oldest; {!none} when the queue is empty. *)
  | Sleep : float -> unit Effect.t
  | Yield : unit Effect.t

(** {1 Accounting slots}

    Indices into [acct].  Float-array slots are stored flat; a mutable
    float field of the record would allocate a box on every store. *)

val a_work_left : int
(** CPU microseconds the current compute segment still owes. *)

val a_cpu : int
(** Total simulated CPU consumed, microseconds. *)

val a_last_on_cpu : int
(** Last instant this process occupied the CPU (for the cache-reload
    model: eviction grows with absence). *)

val started : t -> unit
(** What [body] holds once the process has started. *)

val no_k : (unit, unit) Effect.Deep.continuation
(** Placeholder stored in [k] while no continuation is parked. *)

val none : t
(** The process that is no process: the [tail] of an empty queue, and the
    CPU's "nobody".  Never run. *)

val make :
  pid:int -> name:string -> thread:Lrp_sched.Sched.thread ->
  working_set:float -> now:Time.t -> (t -> unit) -> t
(** A fresh process in state [Start] with [body] (see {!Cpu.spawn}). *)

val reinit :
  t -> pid:int -> name:string -> working_set:float -> now:Time.t ->
  (t -> unit) -> unit
(** Make a reaped process's record what {!make} would build, keeping
    its accounting array, exit queue and thread. *)

val cpu_time : t -> float
(** Total simulated CPU consumed, microseconds. *)

(** {1 Wait queues} *)

val enqueue : unit Effect.t -> t -> unit
(** Append a process that is on no queue to the [Block] queue it
    performed. *)

val dequeue : waitq -> t
(** Take the oldest waiter off the queue; {!none} if it is empty. *)

(** {1 Effects} *)

val block : waitq -> unit
(** Sleep until {!Cpu.wakeup_one} or {!Cpu.wakeup_all} targets the queue.
    Performs the queue itself, so a block allocates only its
    continuation. *)

val sleep_for : float -> unit
(** Sleep for a fixed amount of virtual time. *)

val yield : unit -> unit

val waitq : string -> waitq
(** Fresh empty wait queue.  The name only documents the queue at the
    call site; it is not stored. *)
