(** SYN-flood generator (Figure 5).

    Injects TCP connection-establishment requests at a fixed rate to a
    victim port, from spoofed source addresses that do not exist on the
    fabric — so SYN-ACKs vanish and the victim's embryonic connections hang
    until they time out, exactly the attack pattern of the paper's
    experiment (no connection is ever established). *)

type t = { mutable sent : int; }
val start :
  Lrp_engine.Engine.t ->
  Lrp_net.Nic.t ->
  dst:Lrp_net.Packet.ip * Lrp_net.Packet.port ->
  rate:float -> until:Lrp_engine.Time.t -> unit -> t
(** [rate] SYNs per second until [until], from 4096 spoofed sources
    starting at 11.0.0.1. *)
