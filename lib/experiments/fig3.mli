(** Figure 3: UDP throughput versus offered load (the livelock experiment).

    A client blasts 14-byte UDP datagrams at a fixed rate at a server
    process that receives and discards them.  The paper's shapes are
    {!claims}; the companion maximum loss-free receive rate search
    ({!mlfrr_all}) has {!mlfrr_claims}, and the traced stage split
    ({!measure_traced}) has {!stage_claims}. *)

type point = {
  offered : float;
  delivered : float;
  discards : int;
  ipq_drops : int;
}
type row = { system : Common.system; points : point list; }
val measure :
  ?seed:int -> Common.system -> rate:float -> duration:float -> point

val measure_traced :
  ?seed:int -> Common.system -> rate:float -> duration:float ->
  point * Lrp_trace.Trace.t * (string * float) list
(** [measure] with the server kernel's structured tracer enabled for the
    whole run.  Also returns the tracer (for sinks or the stage-latency
    report) and the final {!Lrp_kernel.Kernel.counters}.  The datapoint
    is identical to an untraced [measure] with the same seed: tracing
    only records, it never perturbs the simulation. *)

val default_rates : float list

val run :
  ?quick:bool -> ?jobs:int -> ?seed:int -> unit -> row list
(** Every (system, rate) point is an independent simulation; [jobs]
    (default 1) fans them out over that many domains.  Results are
    identical for any [jobs]: each point runs in its own engine seeded
    from [seed] and its job index. *)

val mlfrr_all :
  ?quick:bool -> ?jobs:int -> ?seed:int -> Common.system list ->
  (Common.system * float) list
(** One MLFRR binary search per system, searches running in parallel. *)

val print : row list -> unit
val print_mlfrr : (Common.system * float) list -> unit

val plot : string -> row list -> unit
(** [plot title rows]: one ASCII delivered-rate plot per system; [print]
    is [plot] with Figure 3's title. *)

val claims : row list -> Common.claim list
(** The paper's Figure 3 shapes, evaluated on [rows]. *)

val mlfrr_claims : (Common.system * float) list -> Common.claim list
(** The paper's MLFRR comparison, evaluated on one search per system. *)

val stage_claims :
  (Common.system * Lrp_trace.Trace.Report.t) list -> Common.claim list
(** Where each system does its protocol work, from its stage-latency
    report. *)
