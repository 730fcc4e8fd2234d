(** Simulated time.

    All simulated time in the repository is kept in microseconds, stored as a
    [float].  A double has 52 bits of mantissa, so microsecond-resolution
    times stay exact well beyond the few hundred simulated seconds any
    experiment runs for. *)

type t = float
(** Absolute simulated time, in microseconds since simulation start. *)

val zero : t

val us : float -> float
(** [us x] is [x] microseconds (identity; for readable call sites). *)

val ms : float -> float
(** [ms x] is [x] milliseconds expressed in microseconds. *)

val sec : float -> float
(** [sec x] is [x] seconds expressed in microseconds. *)

val to_sec : t -> float
(** [to_sec t] converts [t] to seconds. *)

val to_ms : t -> float
(** [to_ms t] converts [t] to milliseconds. *)

