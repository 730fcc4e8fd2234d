(* Multicast (paper section 3.1: group members share one NI channel) and
   connected-UDP filtering tests. *)

open Lrp_engine
open Lrp_sim
open Lrp_net
open Lrp_kernel
open Lrp_workload

let group = Packet.ip_of_quad 224 0 0 9

let archs = [ Kernel.Bsd; Kernel.Soft_lrp; Kernel.Ni_lrp; Kernel.Early_demux ]

let test_two_members_one_host () =
  List.iter
    (fun arch ->
      let cfg = Kernel.default_config arch in
      let w, client, server = World.pair ~cfg () in
      let got_a = ref 0 and got_b = ref 0 in
      let member counter name =
        ignore
          (Cpu.spawn (Kernel.cpu server) ~name (fun self ->
               let sock = Api.socket_dgram () in
               Api.join_group server sock ~owner:(Some self) ~group ~port:6666;
               let dg = Api.dgram () in
               for _ = 1 to 3 do
                 Api.recvfrom server sock dg;
                 counter := !counter + Payload.length dg.Api.dg_payload
               done))
      in
      member got_a "member-a";
      member got_b "member-b";
      ignore
        (Cpu.spawn (Kernel.cpu client) ~name:"tx" (fun self ->
             let sock = Api.socket_dgram () in
             ignore (Api.bind_ephemeral client sock ~owner:(Some self));
             for _ = 1 to 3 do
               Api.sendto client ~self sock ~dst:(group, 6666)
                 (Payload.synthetic 100);
               Proc.sleep_for (Time.ms 5.)
             done));
      World.run w ~until:(Time.sec 1.);
      Alcotest.(check int)
        (Printf.sprintf "%s: member A got all datagrams" (Kernel.arch_name arch))
        300 !got_a;
      Alcotest.(check int)
        (Printf.sprintf "%s: member B got all datagrams" (Kernel.arch_name arch))
        300 !got_b)
    archs

let test_members_share_one_channel () =
  let cfg = Kernel.default_config Kernel.Ni_lrp in
  let w, _client, server = World.pair ~cfg () in
  let before = List.length (Kernel.channels server) in
  for i = 1 to 3 do
    ignore
      (Cpu.spawn (Kernel.cpu server) ~name:(Printf.sprintf "m%d" i) (fun self ->
           let sock = Api.socket_dgram () in
           Api.join_group server sock ~owner:(Some self) ~group ~port:6666;
           Proc.block (Proc.waitq "forever")))
  done;
  World.run w ~until:(Time.ms 10.);
  Alcotest.(check int) "three members added exactly one channel" (before + 1)
    (List.length (Kernel.channels server))

let test_multicast_across_hosts () =
  let cfg = Kernel.default_config Kernel.Soft_lrp in
  let w = World.make () in
  let sender = World.add_host w ~name:"sender" cfg in
  let h1 = World.add_host w ~name:"h1" cfg in
  let h2 = World.add_host w ~name:"h2" cfg in
  let got = ref 0 in
  List.iter
    (fun kern ->
      ignore
        (Cpu.spawn (Kernel.cpu kern) ~name:"member" (fun self ->
             let sock = Api.socket_dgram () in
             Api.join_group kern sock ~owner:(Some self) ~group ~port:6666;
             Api.recvfrom kern sock (Api.dgram ());
             incr got)))
    [ h1; h2 ];
  ignore
    (Cpu.spawn (Kernel.cpu sender) ~name:"tx" (fun self ->
         let sock = Api.socket_dgram () in
         ignore (Api.bind_ephemeral sender sock ~owner:(Some self));
         Api.sendto sender ~self sock ~dst:(group, 6666) (Payload.synthetic 10)));
  World.run w ~until:(Time.sec 1.);
  Alcotest.(check int) "both hosts' members received the datagram" 2 !got

let test_leave_group () =
  let cfg = Kernel.default_config Kernel.Ni_lrp in
  let w, client, server = World.pair ~cfg () in
  let before = List.length (Kernel.channels server) in
  let got = ref 0 in
  let sock = Api.socket_dgram () in
  ignore
    (Cpu.spawn (Kernel.cpu server) ~name:"member" (fun self ->
         Api.join_group server sock ~owner:(Some self) ~group ~port:6666;
         Api.recvfrom server sock (Api.dgram ());
         incr got;
         Api.leave_group server sock ~port:6666));
  ignore
    (Cpu.spawn (Kernel.cpu client) ~name:"tx" (fun self ->
         let csock = Api.socket_dgram () in
         ignore (Api.bind_ephemeral client csock ~owner:(Some self));
         Api.sendto client ~self csock ~dst:(group, 6666) (Payload.synthetic 10);
         Proc.sleep_for (Time.ms 50.);
         Api.sendto client ~self csock ~dst:(group, 6666) (Payload.synthetic 10)));
  World.run w ~until:(Time.sec 1.);
  Alcotest.(check int) "only the pre-leave datagram arrived" 1 !got;
  Alcotest.(check int) "channel deallocated after last leave" 0
    (List.length
       (Lrp_core.Chantab.bindings (Kernel.chantab server)
          Lrp_core.Chantab.Udp_port));
  Alcotest.(check int) "kernel no longer lists the group channel" before
    (List.length (Kernel.channels server))

(* Closing one member of a group must not close the channel the other
   members share: the survivor keeps receiving under lazy processing. *)
let test_close_one_member () =
  List.iter
    (fun arch ->
      let cfg = Kernel.default_config arch in
      let w, client, server = World.pair ~cfg () in
      let got_a = ref 0 and got_b = ref 0 in
      ignore
        (Cpu.spawn (Kernel.cpu server) ~name:"member-a" (fun self ->
             let sock = Api.socket_dgram () in
             Api.join_group server sock ~owner:(Some self) ~group ~port:6666;
             Api.recvfrom server sock (Api.dgram ());
             incr got_a;
             Api.close server sock));
      ignore
        (Cpu.spawn (Kernel.cpu server) ~name:"member-b" (fun self ->
             let sock = Api.socket_dgram () in
             Api.join_group server sock ~owner:(Some self) ~group ~port:6666;
             let dg = Api.dgram () in
             for _ = 1 to 3 do
               Api.recvfrom server sock dg;
               incr got_b
             done));
      ignore
        (Cpu.spawn (Kernel.cpu client) ~name:"tx" (fun self ->
             let sock = Api.socket_dgram () in
             ignore (Api.bind_ephemeral client sock ~owner:(Some self));
             for _ = 1 to 3 do
               Api.sendto client ~self sock ~dst:(group, 6666)
                 (Payload.synthetic 10);
               Proc.sleep_for (Time.ms 5.)
             done));
      World.run w ~until:(Time.sec 1.);
      let name = Kernel.arch_name arch in
      Alcotest.(check int) (name ^ ": closed member got one datagram") 1 !got_a;
      Alcotest.(check int) (name ^ ": surviving member got all three") 3 !got_b;
      Alcotest.(check int)
        (name ^ ": the group's channel is still allocated")
        1
        (List.length
       (Lrp_core.Chantab.bindings (Kernel.chantab server)
          Lrp_core.Chantab.Udp_port)))
    [ Kernel.Soft_lrp; Kernel.Ni_lrp ]

let test_join_requires_multicast_addr () =
  let cfg = Kernel.default_config Kernel.Ni_lrp in
  let w, _client, server = World.pair ~cfg () in
  let raised = ref false in
  ignore
    (Cpu.spawn (Kernel.cpu server) ~name:"p" (fun self ->
         let sock = Api.socket_dgram () in
         try Api.join_group server sock ~owner:(Some self)
               ~group:(Packet.ip_of_quad 10 0 0 1) ~port:6666
         with Invalid_argument _ -> raised := true));
  World.run w ~until:(Time.ms 10.);
  Alcotest.(check bool) "unicast group address rejected" true !raised

(* --- connected-UDP filtering ----------------------------------------- *)

let test_connected_udp_filters () =
  List.iter
    (fun arch ->
      let cfg = Kernel.default_config arch in
      let w = World.make () in
      let peer = World.add_host w ~name:"peer" cfg in
      let stranger = World.add_host w ~name:"stranger" cfg in
      let server = World.add_host w ~name:"server" cfg in
      let from = ref [] in
      ignore
        (Cpu.spawn (Kernel.cpu server) ~name:"rx" (fun self ->
             let sock = Api.socket_dgram () in
             Api.bind server sock ~owner:(Some self) ~port:5000;
             (* Connect to the peer: datagrams from anyone else must be
                filtered out. *)
             Api.udp_connect sock ~remote:(Kernel.ip_address peer, 7001);
             let dg = Api.dgram () in
             for _ = 1 to 2 do
               Api.recvfrom server sock dg;
               from := dg.Api.dg_src :: !from
             done));
      let send kern ~port ~at =
        ignore
          (Engine.schedule (World.engine w) ~at (fun () ->
               ignore
                 (Nic.transmit (Kernel.nic kern)
                    (Packet.udp ~src:(Kernel.ip_address kern)
                       ~dst:(Kernel.ip_address server) ~src_port:port
                       ~dst_port:5000 (Payload.synthetic 14)))))
      in
      send stranger ~port:7001 ~at:(Time.ms 1.);
      send peer ~port:7001 ~at:(Time.ms 2.);
      send stranger ~port:7001 ~at:(Time.ms 3.);
      send peer ~port:7001 ~at:(Time.ms 4.);
      World.run w ~until:(Time.ms 500.);
      Alcotest.(check (list int))
        (Printf.sprintf "%s: only the peer's datagrams arrive"
           (Kernel.arch_name arch))
        [ Kernel.ip_address peer; Kernel.ip_address peer ]
        (List.rev !from);
      Alcotest.(check bool)
        (Printf.sprintf "%s: filtering counted" (Kernel.arch_name arch))
        true
        ((Kernel.stats server).Kernel.rx_wrong_peer >= 2))
    archs

(* The ephemeral-port allocator must skip a port a multicast group holds:
   the first ephemeral port is taken by a group, and an unbound socket's
   [sendto] must bind past it rather than collide with it. *)
let test_ephemeral_skips_group_port () =
  let cfg = Kernel.default_config Kernel.Soft_lrp in
  let w, client, server = World.pair ~cfg () in
  let from_port = ref 0 in
  ignore
    (Cpu.spawn (Kernel.cpu server) ~name:"member" (fun self ->
         let sock = Api.socket_dgram () in
         Api.join_group server sock ~owner:(Some self) ~group ~port:20_001;
         Proc.block (Proc.waitq "forever")));
  ignore
    (Cpu.spawn (Kernel.cpu client) ~name:"rx" (fun self ->
         let sock = Api.socket_dgram () in
         Api.bind client sock ~owner:(Some self) ~port:7000;
         let dg = Api.dgram () in
         Api.recvfrom client sock dg;
         from_port := dg.Api.dg_sport));
  ignore
    (Cpu.spawn (Kernel.cpu server) ~name:"tx" (fun self ->
         Proc.sleep_for (Time.ms 1.);
         let sock = Api.socket_dgram () in
         Api.sendto server ~self sock ~dst:(Kernel.ip_address client, 7000)
           (Payload.synthetic 14)));
  World.run w ~until:(Time.ms 50.);
  Alcotest.(check int) "sender bound the next free ephemeral port" 20_002
    !from_port

let suite =
  [ Alcotest.test_case "two members, one host" `Quick test_two_members_one_host;
    Alcotest.test_case "members share one NI channel" `Quick
      test_members_share_one_channel;
    Alcotest.test_case "multicast across hosts" `Quick test_multicast_across_hosts;
    Alcotest.test_case "leave group deallocates the channel" `Quick
      test_leave_group;
    Alcotest.test_case "closing one member keeps the group channel" `Quick
      test_close_one_member;
    Alcotest.test_case "join requires a class-D address" `Quick
      test_join_requires_multicast_addr;
    Alcotest.test_case "connected UDP filters foreign peers" `Quick
      test_connected_udp_filters;
    Alcotest.test_case "ephemeral port skips a group's port" `Quick
      test_ephemeral_skips_group_port ]
