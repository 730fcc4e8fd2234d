(** Scenario builder: an engine, a switching fabric and a few hosts.

    All the paper's experiments use two to four SPARCstation-20s on a
    private 155 Mbit/s ATM network; [make] builds exactly that. *)

open Lrp_engine
open Lrp_net
open Lrp_kernel

type t = {
  engine : Engine.t;
  fabric : Fabric.t;
  mutable hosts : (string * Kernel.t) list;
}

let make ?(seed = 42) () =
  let engine = Engine.create ~seed () in
  let fabric = Fabric.create engine () in
  { engine; fabric; hosts = [] }

let host_ip i = Packet.ip_of_quad 10 0 0 (10 + i)

(* [add_host w ~name cfg] attaches a new host running the given kernel
   configuration; IPs are assigned 10.0.0.10, .11, ... in order. *)
let add_host w ~name cfg =
  let ip = host_ip (List.length w.hosts) in
  let kern = Kernel.create w.engine w.fabric ~name ~ip cfg in
  w.hosts <- w.hosts @ [ (name, kern) ];
  kern

let engine w = w.engine
let fabric w = w.fabric

let run w ~until = Engine.run w.engine ~until

(* Two-host worlds are the common case: a client and a server of the given
   architecture. *)
let pair ?seed ?(cfg = Kernel.default_config Kernel.Bsd) () =
  let w = make ?seed () in
  let client = add_host w ~name:"client" cfg in
  let server = add_host w ~name:"server" cfg in
  (w, client, server)

(* The gateway topology of section 3.5: a client on net A (10.0.0.10), a
   forwarding gateway on both nets (10.0.0.1 and 10.0.1.1) and a server on
   net B (10.0.1.20).  Off-link frames on each net go to the gateway's
   attachment. *)
let gateway ?seed cfg =
  let engine = Engine.create ?seed () in
  let net_a = Fabric.create engine () in
  (* One cell, one frame pool: the gateway forwards a frame's row. *)
  let net_b = Fabric.create engine ~pool:(Fabric.pool net_a) () in
  let gw_cfg = { cfg with Kernel.forwarding = true } in
  let client =
    Kernel.create engine net_a ~name:"client" ~ip:(Packet.ip_of_quad 10 0 0 10)
      cfg
  in
  let gw =
    Kernel.create engine net_a ~name:"gw" ~ip:(Packet.ip_of_quad 10 0 0 1)
      gw_cfg
  in
  ignore (Kernel.add_interface gw net_b ~ip:(Packet.ip_of_quad 10 0 1 1) ());
  let server =
    Kernel.create engine net_b ~name:"server" ~ip:(Packet.ip_of_quad 10 0 1 20)
      cfg
  in
  Fabric.set_default_gateway net_a ~ip:(Packet.ip_of_quad 10 0 0 1);
  Fabric.set_default_gateway net_b ~ip:(Packet.ip_of_quad 10 0 1 1);
  (engine, client, gw, server)
