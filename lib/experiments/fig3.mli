(** Figure 3: UDP throughput versus offered load (the livelock experiment).

    A client blasts 14-byte UDP datagrams at a fixed rate at a server
    process that receives and discards them.  The paper's shapes:

    - 4.4BSD peaks (~7,400 pkts/s) and then collapses toward livelock as
      the offered rate grows (~0 around 20,000 pkts/s);
    - NI-LRP climbs to its maximum (~11,000 pkts/s) and stays flat;
    - SOFT-LRP peaks in between (~9,800 pkts/s) and declines only slowly
      (the soft-demux cost per packet);
    - Early-Demux is stable but reaches only 40-65 % of SOFT-LRP's
      throughput in the overload region.

    The companion MLFRR measurement reports the maximum loss-free receive
    rate (paper: SOFT-LRP 9,210 vs BSD 6,380, +44 %). *)

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
  ?quick:bool -> ?rates:float list -> ?jobs:int -> ?seed:int -> unit ->
  row list
(** Every (system, rate) point is an independent simulation; [jobs]
    (default 1) fans them out over that many domains.  Results are
    identical for any [jobs]: each point runs in its own engine seeded
    from [seed] and its job index. *)

val mlfrr : ?quick:bool -> ?seed:int -> Common.system -> float

val mlfrr_all :
  ?quick:bool -> ?jobs:int -> ?seed:int -> Common.system list ->
  (Common.system * float) list
(** One MLFRR binary search per system, searches running in parallel. *)

val print : row list -> unit
val print_mlfrr : (Common.system * float) list -> unit
