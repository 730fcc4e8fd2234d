(** Scenario builder: an engine, a switching fabric and a few hosts.

    All the paper's experiments use two to four SPARCstation-20s on a
    private 155 Mbit/s ATM network; [make] builds exactly that. *)

type t = {
  engine : Lrp_engine.Engine.t;
  fabric : Lrp_net.Fabric.t;
  mutable hosts : (string * Lrp_kernel.Kernel.t) list;
}
val make : ?seed:int -> unit -> t
val add_host :
  t -> name:string -> Lrp_kernel.Kernel.config -> Lrp_kernel.Kernel.t
(** Attach a host running the given kernel configuration; IPs are
    assigned 10.0.0.10, .11, ... in order. *)

val engine : t -> Lrp_engine.Engine.t
val fabric : t -> Lrp_net.Fabric.t
val run : t -> until:Lrp_engine.Time.t -> unit
(** Advance virtual time. *)

val pair :
  ?seed:int ->
  ?cfg:Lrp_kernel.Kernel.config ->
  unit -> t * Lrp_kernel.Kernel.t * Lrp_kernel.Kernel.t

val gateway :
  ?seed:int ->
  Lrp_kernel.Kernel.config ->
  Lrp_engine.Engine.t * Lrp_kernel.Kernel.t * Lrp_kernel.Kernel.t
  * Lrp_kernel.Kernel.t
(** [gateway cfg] is [(engine, client, gw, server)]: two networks glued
    by a forwarding gateway (section 3.5).  The client is 10.0.0.10 on
    net A, the gateway 10.0.0.1 and 10.0.1.1, the server 10.0.1.20 on
    net B.  Every host runs [cfg]; the gateway also forwards. *)
