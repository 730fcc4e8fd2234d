(** Work-stealing-free domain pool for embarrassingly parallel sweeps.

    The experiment harnesses run many mutually independent simulations
    (one engine each); this pool fans them out over OCaml 5 domains.  It is
    dependency-free: plain [Domain], [Mutex] and [Condition].

    Determinism contract: [map] returns results in submission order, and
    jobs receive no information about which domain ran them — so a job
    whose output is a deterministic function of its input (e.g. a
    simulation run from its own seeded engine) produces identical results
    whatever the pool size.  [create ~domains:1] runs every job inline in
    the caller, byte-for-byte the sequential behavior. *)

type t

val create : ?domains:int -> unit -> t
(** [create ~domains:n ()] makes a pool capped at [n]-way parallelism
    (default {!Domain.recommended_domain_count}).  [n <= 1] means no worker
    domains: jobs run inline in the submitting domain.

    Worker domains are a process-wide shared set, spawned on demand and
    parked between batches — creating pools repeatedly (one per sweep)
    reuses the same domains instead of respawning them, so short sweeps no
    longer pay spawn cost per batch.  [create] only grows the shared set
    when the cap asks for more workers than have ever been spawned. *)

val domains : t -> int
(** Parallelism of the pool ([>= 1]; [1] means inline execution). *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map pool f xs] applies [f] to every element, distributing the calls
    over the pool's domains, and returns the results in the order of [xs].
    The submitting domain participates in the work.  If any call raises,
    the first exception (by completion time) is re-raised in the caller
    after all in-flight jobs settle; remaining unstarted jobs are skipped.
    Not re-entrant: do not call [map] from inside a job. *)

val map_reduce : t -> map:('a -> 'b) -> reduce:('c -> 'b -> 'c) -> init:'c ->
  'a list -> 'c
(** [map_reduce pool ~map ~reduce ~init xs] folds [reduce] left-to-right
    in submission order over the mapped results — deterministic even for
    non-commutative [reduce]. *)

val with_pool : ?domains:int -> (t -> 'r) -> 'r
(** [with_pool ~domains f] is [f (create ~domains ())].  A pool owns
    nothing to tear down: workers are shared across pools and parked
    between batches, and the shared set is joined by an [at_exit]
    hook. *)

(** {2 Shared worker set}

    Plumbing for long-lived cooperators such as {!Team}: raw access to the
    process-wide worker set that [map] schedules onto. *)

val submit : (unit -> unit) -> unit
(** Enqueue a raw job on the shared worker set.  The job runs on some
    worker domain (never inline); callers are responsible for making
    enough workers free — see {!reserve_workers}. *)

val ensure_free : int -> unit
(** Grow the shared set until at least [n] workers are unreserved. *)

val reserve_workers : int -> unit
(** Pin [n] workers for long-running jobs (e.g. team members that park in
    a barrier for a whole run): grows the set so transient [map] batches
    keep their parallelism, and accounts the [n] as unavailable until
    {!release_workers}. *)

val release_workers : int -> unit

val spawned_domains : unit -> int
(** Worker domains alive in the shared set (never shrinks) — observable
    evidence that pools reuse domains instead of respawning them. *)
