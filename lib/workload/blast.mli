(** Open-loop UDP traffic source and sink.

    The source injects packets directly at the sender's NIC — the equivalent
    of the paper's in-kernel packet source, needed because a user-process
    sender would saturate its own CPU long before the interesting offered
    rates (the paper notes using an in-kernel source for the same reason).

    The sink is a real application process: a receive-and-discard loop over
    the socket API, exactly like the paper's blast server. *)

type source = { mutable sent : int; mutable stop_at : float; }
val start_source :
  Lrp_engine.Engine.t ->
  Lrp_net.Nic.t ->
  src:Lrp_net.Packet.ip ->
  dst:Lrp_net.Packet.ip * Lrp_net.Packet.port ->
  ?src_port:Lrp_net.Packet.port ->
  rate:float -> size:int -> until:float -> unit -> source
(** Raises [Invalid_argument] unless [rate] is finite and positive, and
    low enough that one interval still advances the clock at [until]. *)

type sink = {
  sock : Lrp_kernel.Socket.t;
  mutable received : int;
}
val start_sink : Lrp_kernel.Kernel.t -> port:int -> unit -> sink

val flood :
  client:Lrp_kernel.Kernel.t ->
  server:Lrp_kernel.Kernel.t ->
  rate:float -> until:float -> unit -> sink * source
(** The paper's blast: {!start_sink} on [server]'s port 9000, then a
    14-byte {!start_source} from [client] at [rate] until [until]. *)
