(* IP-forwarding / gateway tests (paper section 3.5 and the firewall
   motivation of section 2.3): a multi-homed host forwards between two
   networks; under LRP the forwarding daemon's priority bounds the
   resources transit traffic can take. *)

open Lrp_engine
open Lrp_sim
open Lrp_net
open Lrp_kernel
open Lrp_workload

let archs = [ Kernel.Bsd; Kernel.Soft_lrp; Kernel.Ni_lrp; Kernel.Early_demux ]

let test_udp_through_gateway () =
  List.iter
    (fun arch ->
      let engine, client, gw, server =
        World.gateway (Kernel.default_config arch)
      in
      let got = ref None in
      ignore
        (Cpu.spawn (Kernel.cpu server) ~name:"rx" (fun self ->
             let sock = Api.socket_dgram () in
             Api.bind server sock ~owner:(Some self) ~port:5000;
             let dg = Api.dgram () in
             Api.recvfrom server sock dg;
             got := Some (dg.Api.dg_src, dg.Api.dg_sport)));
      ignore
        (Cpu.spawn (Kernel.cpu client) ~name:"tx" (fun self ->
             let sock = Api.socket_dgram () in
             ignore (Api.bind_ephemeral client sock ~owner:(Some self));
             Api.sendto client ~self sock
               ~dst:(Kernel.ip_address server, 5000)
               (Payload.synthetic 64)));
      Engine.run engine ~until:(Time.sec 1.);
      (match !got with
       | Some (from_ip, _) ->
           Alcotest.(check int)
             (Printf.sprintf "%s: datagram crossed the gateway"
                (Kernel.arch_name arch))
             (Kernel.ip_address client) from_ip
       | None ->
           Alcotest.fail
             (Printf.sprintf "%s: datagram lost" (Kernel.arch_name arch)));
      Alcotest.(check bool)
        (Printf.sprintf "%s: forwarding counted" (Kernel.arch_name arch))
        true
        ((Kernel.stats gw).Kernel.forwarded >= 1))
    archs

let test_tcp_through_gateway () =
  List.iter
    (fun arch ->
      let engine, client, _gw, server =
        World.gateway (Kernel.default_config arch)
      in
      let echoed = ref None in
      ignore
        (Cpu.spawn (Kernel.cpu server) ~name:"srv" (fun self ->
             let lsock = Api.socket_stream server in
             Api.tcp_listen server ~self lsock ~port:80 ~backlog:4;
             let conn = Api.tcp_accept server ~self lsock in
             (match Api.tcp_recv server conn ~max:4096 with
              | `Data p -> ignore (Api.tcp_send server conn p)
              | `Eof -> ());
             Api.close server conn));
      ignore
        (Cpu.spawn (Kernel.cpu client) ~name:"cli" (fun self ->
             let sock = Api.socket_stream client in
             match
               Api.tcp_connect client ~self sock
                 ~remote:(Kernel.ip_address server, 80)
             with
             | `Refused -> ()
             | `Ok ->
                 ignore (Api.tcp_send client sock (Payload.of_string "hi"));
                 (match Api.tcp_recv client sock ~max:100 with
                  | `Data p ->
                      echoed := Some (Bytes.to_string (Payload.to_bytes p))
                  | `Eof -> ());
                 Api.close client sock));
      Engine.run engine ~until:(Time.sec 10.);
      Alcotest.(check (option string))
        (Printf.sprintf "%s: TCP echo across two networks" (Kernel.arch_name arch))
        (Some "hi") !echoed)
    [ Kernel.Bsd; Kernel.Soft_lrp; Kernel.Ni_lrp ]

let test_non_gateway_drops_transit () =
  (* A host that is not forwarding must drop transit packets (and count
     them), not deliver or crash. *)
  let engine = Engine.create () in
  let net = Fabric.create engine () in
  let cfg = Kernel.default_config Kernel.Soft_lrp in
  let a = Kernel.create engine net ~name:"a" ~ip:(Packet.ip_of_quad 10 0 0 10) cfg in
  let b = Kernel.create engine net ~name:"b" ~ip:(Packet.ip_of_quad 10 0 0 11) cfg in
  Fabric.set_default_gateway net ~ip:(Kernel.ip_address b);
  (* Address off this network: the switch hands it to b, which is not a
     gateway. *)
  ignore
    (Engine.schedule engine ~at:10. (fun () ->
         ignore
           (Nic.transmit (Kernel.nic a)
              (Packet.udp ~src:(Kernel.ip_address a)
                 ~dst:(Packet.ip_of_quad 10 9 9 9) ~src_port:1 ~dst_port:2
                 (Payload.synthetic 14)))));
  Engine.run engine ~until:(Time.ms 100.);
  Alcotest.(check int) "transit packet dropped and counted" 1
    (Kernel.stats b).Kernel.fwd_drops

let test_lrp_gateway_flood_fairness () =
  (* The paper's firewall motivation: under LRP, the forwarding daemon's
     priority bounds the CPU transit floods can take, so a local server
     process keeps running; under BSD, forwarding happens at softint
     priority and starves it. *)
  let run arch =
    let engine, client, gw, _server =
      World.gateway (Kernel.default_config arch)
    in
    ignore client;
    (* A local application on the gateway itself. *)
    let app_progress = ref 0. in
    ignore
      (Cpu.spawn (Kernel.cpu gw) ~name:"local-app" (fun _self ->
           let rec loop () =
             (Cpu.cost_cell (Kernel.cpu gw)).(0) <- 1_000.;
             Cpu.compute (Kernel.cpu gw);
             app_progress := !app_progress +. 1_000.;
             loop ()
           in
           loop ()));
    (* A transit flood through the gateway. *)
    ignore
      (Blast.start_source engine (Kernel.nic client)
         ~src:(Kernel.ip_address client)
         ~dst:(Packet.ip_of_quad 10 0 1 20, 9000)
         ~rate:20_000. ~size:14 ~until:(Time.sec 1.) ());
    Engine.run engine ~until:(Time.sec 1.);
    !app_progress /. Time.sec 1.
  in
  let bsd = run Kernel.Bsd in
  let lrp = run Kernel.Soft_lrp in
  Alcotest.(check bool)
    (Printf.sprintf
       "local app keeps a much larger share under LRP (%.2f vs %.2f)" lrp bsd)
    true
    (lrp > 2. *. Float.max 0.01 bsd && lrp > 0.15)

let suite =
  [ Alcotest.test_case "UDP through the gateway (all archs)" `Quick
      test_udp_through_gateway;
    Alcotest.test_case "TCP through the gateway" `Quick test_tcp_through_gateway;
    Alcotest.test_case "non-gateway drops transit packets" `Quick
      test_non_gateway_drops_transit;
    Alcotest.test_case "LRP gateway keeps local apps alive under flood" `Slow
      test_lrp_gateway_flood_fairness ]
