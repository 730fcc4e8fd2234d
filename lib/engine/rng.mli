(** Deterministic pseudo-random number generator.

    A self-contained SplitMix64 implementation.  Every stochastic decision in
    the simulator draws from an explicit [Rng.t] so that simulation runs are
    reproducible from a seed, independent of the OCaml stdlib [Random]
    state. *)

type t

val create : int -> t
(** [create seed] makes a generator from a 63-bit seed. *)

val split : t -> t
(** [split t] derives an independent generator stream from [t], advancing
    [t].  Used to give each traffic source its own stream. *)

val split_seed : seed:int -> index:int -> int
(** [split_seed ~seed ~index] derives the seed of an independent child
    stream from a parent seed and a job index, deterministically: the same
    pair always yields the same child.  Used to give each job of a parallel
    experiment sweep its own reproducible stream, independent of how jobs
    are assigned to domains.  [index] must be nonnegative. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is a uniform integer in [\[0, bound)].  [bound] must be
    positive. *)

val float : t -> float -> float
(** [float t bound] is a uniform float in [\[0, bound)]. *)

val uniform : t -> float
(** [uniform t] is a uniform float in [\[0, 1)]. *)

val exponential : t -> mean:float -> float
(** [exponential t ~mean] draws from an exponential distribution.  Used for
    Poisson inter-arrival times in traffic generators. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
