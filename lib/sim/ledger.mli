(** Per-cycle CPU accounting ledger.

    Mirrors every microsecond the CPU model charges into
    {class} × {process} × {flow} cells, making the paper's resource-
    accounting claim measurable: under BSD, receive-side protocol cycles
    accrue at interrupt level against the *interrupted* process (the
    [intr_victim]/[soft_victim] columns — "charged but not mine"), while
    under NI-LRP/SOFT-LRP they accrue as [proto] cycles against the
    process that actually receives the data, attributed to its channel.

    The ledger is always on: {!charge} is float-array arithmetic plus an
    int-keyed hash probe that a one-row cache skips when the pid (flow)
    repeats; it is allocation-free after a pid/flow's first sighting (the
    [ledger_overhead] row of [test_sim]'s zero-word table pins this).  It
    observes accounting only — it never schedules — so it cannot perturb
    results.

    Rows live as long as their key: when a process exits ({!retire_pid})
    or a channel closes ({!retire_flow}) its row is added into one
    aggregate row and dropped, so the ledger's size follows the live
    processes and open channels, not the length of the run.  The class
    totals are separate accumulators, exact whatever has been folded. *)

type t

(** Charge classes.  [Intr]/[Soft] cycles are recorded against the
    interrupted victim (BSD [curproc], or pid [-1] when the CPU was
    idle); [Proto] is protocol work in a process's own context; [Poll]
    is NAPI-style budgeted poll work (softirq poll rounds and ksoftirqd
    process-context polling — kept apart from [Soft] so the overload
    detector can tell a polling kernel from an interrupt-drowned one);
    [App] is everything else. *)
type cls = Intr | Soft | Proto | Poll | App

val create : unit -> t

val charge : t -> cls -> pid:int -> flow:int -> float -> unit
(** [charge t cls ~pid ~flow d] adds [d] microseconds.  [flow] is the
    served channel id, or [-1] for none (interrupt and plain app work). *)

val amount_cell : t -> float array
(** 1-slot staging cell for {!charge_staged}.  A computed float passed as
    an argument is boxed at the call; a float-array store is not. *)

val charge_staged : t -> cls -> pid:int -> flow:int -> unit
(** [charge_staged t cls ~pid ~flow] is [charge t cls ~pid ~flow
    (amount_cell t).(0)] without the float boxing: the CPU model's
    per-segment path. *)

val set_name : t -> pid:int -> string -> unit
(** Attach a display name to a pid (done at spawn; the row lives until
    {!retire_pid}). *)

val retire_pid : t -> pid:int -> unit
(** [retire_pid t ~pid] adds the pid's row into the {!exited_pid}
    aggregate row and forgets the pid (done when its process is reaped).
    No-op for a pid without a row. *)

val pid_rows : t -> int * int
(** The pid rows live (the idle context's included) and spare: a
    retired pid's row, zeroed, serves the next new pid. *)

val retire_flow : t -> flow:int -> unit
(** [retire_flow t ~flow] adds the flow's row into the closed-flow
    aggregate row (key [max_int]) and forgets the flow (done when its
    channel is deallocated); the row, zeroed, serves the next new flow.
    No-op for a flow without a row. *)

val total : t -> cls -> float
val grand_total : t -> float

type row = {
  pid : int;
  name : string;
  intr_victim : float;  (** hard-interrupt cycles charged while this pid was curproc *)
  soft_victim : float;  (** soft-interrupt cycles charged while this pid was curproc *)
  proto : float;        (** receiver-context protocol cycles of this pid *)
  poll : float;         (** NAPI poll cycles (softirq rounds against the
                            victim pid, ksoftirqd rounds against its own) *)
  app : float;          (** this pid's own application cycles *)
}

val misaccounted : row -> float
(** Cycles charged to this process that belong to interrupt-level work —
    the paper's mis-accounting metric ([intr_victim + soft_victim]). *)

type flow_row = { flow : int; f_proto : float }

val exited_pid : int
(** Key of the aggregate row of every retired pid, named ["(exited)"]. *)

val rows : t -> row list
(** Rows of the live pids, pid-sorted (pid [-1] is the idle context),
    then the {!exited_pid} row once some pid has been retired. *)

val flow_rows : t -> flow_row list
(** Rows of the open flows/channels, id-sorted, then the closed-flow
    row once some flow has been retired. *)
