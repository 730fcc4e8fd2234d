(** Bounded spin-then-park waiting for the domain pool and teams.

    A waiter polls one [int Atomic.t] with {!Domain.cpu_relax} for at
    most a fixed number of iterations (about 50 us on a current x86 core:
    one to two simulation epochs), then parks on a [Condition.t] under
    its [Mutex.t] until the condition holds.  Short waits (a team epoch, a
    pool job queued right after the last one finished) end in the spin
    and never pay a futex wake-up; long ones still sleep.

    The writer's side of the contract: change the atomic, then
    [Condition.broadcast] (or [signal]) the condition {e while holding
    the lock}.  A parked waiter re-checks the atomic under that lock
    before every [Condition.wait], so no wake-up is lost. *)

val fits : int -> bool
(** [fits n]: [n] busy domains fit the cores this process may run on
    ({!Domain.recommended_domain_count}, which honours the affinity
    mask).  Waiters pass [~spin:(fits n)] for the [n] domains that may be
    busy or spinning at once: a spinner on an oversubscribed core would
    steal the time slice of the domain it waits for. *)

val until_eq :
  spin:bool -> lock:Mutex.t -> cond:Condition.t -> int Atomic.t -> int -> unit
(** [until_eq ~spin ~lock ~cond a v] returns once [Atomic.get a = v],
    polling first if [spin]. *)

val until_ne :
  spin:bool -> lock:Mutex.t -> cond:Condition.t -> int Atomic.t -> int -> unit
(** [until_ne ~spin ~lock ~cond a v] returns once [Atomic.get a <> v],
    polling first if [spin]. *)
