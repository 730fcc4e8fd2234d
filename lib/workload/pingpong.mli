(** UDP ping-pong: the paper's latency microbenchmark (Table 1) and the
    latency-under-load probe (Figure 4). *)

val start_server : Lrp_kernel.Kernel.t -> port:int -> Lrp_kernel.Socket.t
type client = {
  rtts : Lrp_stats.Stats.Samples.t;
  mutable rounds_done : int;
}
val start_client :
  Lrp_kernel.Kernel.t ->
  dst:Lrp_net.Packet.ip * Lrp_net.Packet.port ->
  rounds:int -> unit -> client
type probe = {
  probe_rtts : Lrp_stats.Stats.Samples.t;
  mutable probe_sent : int;
  mutable probe_lost : int;
}
val start_probe :
  Lrp_kernel.Kernel.t ->
  dst:Lrp_net.Packet.ip * Lrp_net.Packet.port ->
  until:Lrp_engine.Time.t -> unit -> probe
