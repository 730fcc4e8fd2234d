(** Sliding-window UDP throughput tool (Table 1).

    The paper measures UDP throughput "using a simple sliding-window
    protocol" with checksumming disabled.  Sender keeps [window] datagrams
    outstanding; the receiver acknowledges each datagram with a small
    reply. *)

type result = {
  mutable bytes_received : int;
  mutable datagrams : int;
  mutable first_rx : float;
  mutable last_rx : float;
}
val mbps : result -> float
val run :
  World.t ->
  sender:Lrp_kernel.Kernel.t ->
  receiver:Lrp_kernel.Kernel.t ->
  port:Lrp_net.Packet.port ->
  ?size:int ->
  ?window:int -> total:int -> until:Lrp_engine.Time.t -> unit -> result
