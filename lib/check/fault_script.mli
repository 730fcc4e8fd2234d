(** Random fault scripts for the differential fuzz harness.

    A script is a deterministic function of its seed; replaying a failing
    run means re-running with the same seed.  {!save} writes a
    human-readable JSON dump (the CI repro artifact). *)

type step = { at_us : float; faults : Lrp_net.Fabric.Faults.t }

type t = { seed : int; steps : step list }

val generate : seed:int -> duration_us:float -> t
(** Deterministically derive a script (1–3 timed weather regimes, the
    first at t=0) from [seed].  Knob ranges are moderate so workloads
    still make progress. *)

val apply : t -> fabric:Lrp_net.Fabric.t -> engine:Lrp_engine.Engine.t -> unit
(** Schedule each step's [Fabric.set_faults] switch at its time. *)

val save : t -> string -> unit
(** Write [to_json] to a file, for failure repro artifacts. *)
