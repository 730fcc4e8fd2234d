(** Cluster experiment: spine-leaf rack topology under blast load,
    sharded across domains — the scale-out companion to the paper's
    single-switch experiments.  The digest is byte-identical at any
    [?shards]; bench and CI gate on it. *)

type result = {
  racks : int;
  hosts_per_rack : int;
  shards : int;
  sent : int;            (** frames injected by all sources *)
  delivered : int;       (** datagrams received by all sinks *)
  cross_frames : int;    (** frames that crossed the spine *)
  epochs : int;
  events : int;          (** engine events executed, all cells *)
  critical_events : int; (** critical path of the epoch schedule *)
  digest : int64;        (** FNV-1a over report + merged recorder dump *)
  dump : string;         (** merged slot-0 recorder dump, one per rack *)
}

val fnv1a64 : string -> int64

val default_racks : int
val default_hosts_per_rack : int

val run :
  ?seed:int ->
  ?racks:int ->
  ?hosts_per_rack:int ->
  ?shards:int ->
  ?rate:float -> ?duration:float -> unit -> result
(** Defaults: 8 racks x 8 SOFT-LRP hosts, 200 ms, each host sinking on
    port 9000 and sourcing one intra-rack (at [rate], default 2000 pkt/s)
    and one cross-rack (at [rate/2]) blast stream; recorders on each
    rack's first host. *)

val report : result -> string
(** Shard-invariant text (no wall time, no shard count): [--out] files
    from different shard counts diff clean. *)

val speedup_available : result -> float
(** [events / critical_events] — the parallel speedup the epoch schedule
    exposes given enough cores; deterministic and machine-independent. *)

val print : result -> unit
(** [report] plus the run-dependent extras (shards, critical path,
    available speedup). *)
