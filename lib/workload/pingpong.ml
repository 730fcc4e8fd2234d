(** UDP ping-pong: the paper's latency microbenchmark (Table 1) and the
    latency-under-load probe (Figure 4). *)

open Lrp_engine
open Lrp_sim
open Lrp_net
open Lrp_kernel

(* Echo server: receive a datagram, send it straight back. *)
let start_server kern ~port =
  let sock = Api.socket_dgram () in
  let _proc =
    Cpu.spawn (Kernel.cpu kern) ~name:(Printf.sprintf "pong:%d" port)
      (fun self ->
        Api.bind kern sock ~owner:(Some self) ~port;
        let dg = Api.dgram () in
        let rec loop () =
          Api.recvfrom kern sock dg;
          Api.sendto kern ~self sock ~dst:(dg.Api.dg_src, dg.Api.dg_sport)
            dg.Api.dg_payload;
          loop ()
        in
        try loop () with Api.Socket_closed -> ())
  in
  sock

type client = {
  rtts : Lrp_stats.Stats.Samples.t;
  mutable rounds_done : int;
}

(* Ping-pong client: [rounds] request/reply exchanges of one byte. *)
let start_client kern ~dst ~rounds () =
  let t =
    { rtts = Lrp_stats.Stats.Samples.create (); rounds_done = 0 }
  in
  let engine = Kernel.engine kern in
  let sock = Api.socket_dgram () in
  let _proc =
    Cpu.spawn (Kernel.cpu kern) ~name:"ping" (fun self ->
        ignore (Api.bind_ephemeral kern sock ~owner:(Some self));
        let reply = Api.dgram () in
        for _ = 1 to rounds do
          let t0 = Engine.now engine in
          Api.sendto kern ~self sock ~dst (Payload.synthetic 1);
          Api.recvfrom kern sock reply;
          Lrp_stats.Stats.Samples.add t.rtts (Engine.now engine -. t0);
          t.rounds_done <- t.rounds_done + 1
        done)
  in
  t

type probe = {
  probe_rtts : Lrp_stats.Stats.Samples.t;
  mutable probe_sent : int;
  mutable probe_lost : int;
}

(* Latency probe for the Figure-4 experiment: ping-pong continuously until
   [until], with a per-round timeout so that lost probes (e.g. BSD dropping
   at the shared IP queue under background load) don't wedge the client:
   one-byte probes, each waited for at most 200 ms. *)
let start_probe kern ~dst ~until () =
  let timeout = Time.ms 200. in
  let t =
    { probe_rtts = Lrp_stats.Stats.Samples.create (); probe_sent = 0;
      probe_lost = 0 }
  in
  let engine = Kernel.engine kern in
  let sock = Api.socket_dgram () in
  ignore
    (Cpu.spawn (Kernel.cpu kern) ~name:"probe" (fun self ->
         ignore (Api.bind_ephemeral kern sock ~owner:(Some self));
         let reply = Api.dgram () in
         let rec round () =
           if Engine.now engine < until then begin
             let t0 = Engine.now engine in
             Api.sendto kern ~self sock ~dst (Payload.synthetic 1);
             t.probe_sent <- t.probe_sent + 1;
             if Api.recvfrom_timeout kern sock reply ~timeout then
               Lrp_stats.Stats.Samples.add t.probe_rtts
                 (Engine.now engine -. t0)
             else t.probe_lost <- t.probe_lost + 1;
             round ()
           end
         in
         round ()));
  t
