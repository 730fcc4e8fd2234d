(** Multi-rack spine-leaf scenario builder for sharded simulation.

    Each rack is one {e cell}: its own engine, leaf fabric and hosts.
    Racks exchange frames through a spine whose per-link latency is the
    shard scheduler's lookahead window, so {!run} produces byte-identical
    results at any [?shards] (see {!Lrp_engine.Shardsim}). *)

type cell = {
  cell_id : int;
  engine : Lrp_engine.Engine.t;
  fabric : Lrp_net.Fabric.t;
  kernels : Lrp_kernel.Kernel.t array;
}

type t

val host_ip : rack:int -> slot:int -> Lrp_net.Packet.ip
(** [10.rack.0.(10+slot)] — rack in the second octet, so cross-rack
    routing is a shift and a mask. *)

val spine_leaf :
  ?seed:int ->
  racks:int -> hosts_per_rack:int -> cfg:Lrp_kernel.Kernel.config -> unit -> t
(** Build [racks] cells of [hosts_per_rack] hosts each, every rack's
    leaf uplinked to a spine with 100 us one-way latency at 622 Mbit/s
    (OC-12).  Each cell's
    engine seeds from [Rng.split_seed seed rack].
    @raise Invalid_argument on non-positive dimensions or > 256 racks. *)

val lookahead : t -> float
val cells : t -> cell array

val on_cell : t -> int -> (cell -> 'a) -> 'a
(** Run a setup function against cell [r] with that cell's {!Lrp_engine.Idspace}
    installed — required around anything that mints ids after
    construction (starting workloads, opening sockets). *)

val exchange : t -> unit -> int
(** Drain every cell's uplink outbox and inject each frame into its
    destination cell at its ready time, in ascending (ready, source,
    sequence) order; returns frames moved.  Exposed for custom
    coordinators — {!run} wires it into {!Lrp_engine.Shardsim}. *)

val run : ?shards:int -> t -> until:float -> Lrp_engine.Shardsim.t
(** Advance the whole cluster to [until] on [?shards] domains (default
    1) and return the coordinator for its epoch/event/critical-path
    counters.  Byte-identical results at any shard count. *)
