(* End-to-end UDP tests across all four architectures: delivery, latency,
   blast behaviour, early discard. *)

open Lrp_engine
open Lrp_sim
open Lrp_net
open Lrp_kernel
open Lrp_workload

let archs =
  [ Kernel.Bsd; Kernel.Soft_lrp; Kernel.Ni_lrp; Kernel.Early_demux ]

let for_all_archs f () =
  List.iter (fun arch -> f arch (Kernel.default_config arch)) archs

let test_udp_delivery arch cfg =
  let w, client, server = World.pair ~cfg () in
  let received = ref [] in
  let _server_proc =
    Cpu.spawn (Kernel.cpu server) ~name:"rx" (fun self ->
        let sock = Api.socket_dgram () in
        Api.bind server sock ~owner:(Some self) ~port:5000;
        let dg = Api.dgram () in
        for _ = 1 to 3 do
          Api.recvfrom server sock dg;
          received := Payload.length dg.Api.dg_payload :: !received
        done)
  in
  let _client_proc =
    Cpu.spawn (Kernel.cpu client) ~name:"tx" (fun self ->
        let sock = Api.socket_dgram () in
        ignore (Api.bind_ephemeral client sock ~owner:(Some self));
        List.iter
          (fun n ->
            Api.sendto client ~self sock
              ~dst:(Kernel.ip_address server, 5000)
              (Payload.synthetic n);
            Proc.sleep_for (Time.ms 1.))
          [ 10; 20; 30 ])
  in
  World.run w ~until:(Time.sec 1.);
  Alcotest.(check (list int))
    (Printf.sprintf "%s: three datagrams in order" (Kernel.arch_name arch))
    [ 10; 20; 30 ] (List.rev !received)

let test_udp_pingpong arch cfg =
  let w, client, server = World.pair ~cfg () in
  ignore (Pingpong.start_server server ~port:7);
  let cl =
    Pingpong.start_client client ~dst:(Kernel.ip_address server, 7) ~rounds:50 ()
  in
  World.run w ~until:(Time.sec 2.);
  Alcotest.(check int)
    (Printf.sprintf "%s: all rounds completed" (Kernel.arch_name arch))
    50 cl.Pingpong.rounds_done;
  let rtt = Lrp_stats.Stats.Samples.median cl.Pingpong.rtts in
  Alcotest.(check bool)
    (Printf.sprintf "%s: RTT plausible (%.0f us)" (Kernel.arch_name arch) rtt)
    true
    (rtt > 100. && rtt < 3_000.)

let test_blast_delivers_at_low_rate arch cfg =
  let w, client, server = World.pair ~cfg () in
  let sink = Blast.start_sink server ~port:9000 () in
  let src =
    Blast.start_source (World.engine w) (Kernel.nic client)
      ~src:(Kernel.ip_address client)
      ~dst:(Kernel.ip_address server, 9000)
      ~rate:1_000. ~size:14 ~until:(Time.sec 1.) ()
  in
  World.run w ~until:(Time.sec 1.2);
  Alcotest.(check bool)
    (Printf.sprintf "%s: low-rate blast mostly delivered (%d/%d)"
       (Kernel.arch_name arch) sink.Blast.received src.Blast.sent)
    true
    (sink.Blast.received > src.Blast.sent * 95 / 100)

let test_early_discard_lrp () =
  (* Under LRP, an overloaded socket sheds load at its NI channel. *)
  let cfg = Kernel.default_config Kernel.Ni_lrp in
  let w, client, server = World.pair ~cfg () in
  (* A sink that consumes very slowly. *)
  let sock = Api.socket_dgram () in
  let consumed = ref 0 in
  ignore
    (Cpu.spawn (Kernel.cpu server) ~name:"slow-sink" (fun self ->
         Api.bind server sock ~owner:(Some self) ~port:9000;
         let dg = Api.dgram () in
         let rec loop () =
           Api.recvfrom server sock dg;
           incr consumed;
           Proc.sleep_for (Time.ms 10.);
           loop ()
         in
         loop ()));
  ignore
    (Blast.start_source (World.engine w) (Kernel.nic client)
       ~src:(Kernel.ip_address client)
       ~dst:(Kernel.ip_address server, 9000)
       ~rate:5_000. ~size:14 ~until:(Time.sec 1.) ());
  World.run w ~until:(Time.sec 1.);
  let discards = Kernel.early_discards server in
  Alcotest.(check bool)
    (Printf.sprintf "NI-LRP: overload shed at the channel (%d discards)" discards)
    true
    (discards > 3_000);
  (* And crucially: at zero host CPU cost. *)
  Alcotest.(check bool) "NI-LRP: no interrupt CPU burned on discards" true
    (Cpu.time_hard (Kernel.cpu server) < Time.ms 50.)

let test_bsd_ipq_drops_under_flood () =
  (* BSD drops at the shared IP queue once softints cannot keep up. *)
  let cfg = Kernel.default_config Kernel.Bsd in
  let w, client, server = World.pair ~cfg () in
  ignore (Blast.start_sink server ~port:9000 ());
  ignore
    (Blast.start_source (World.engine w) (Kernel.nic client)
       ~src:(Kernel.ip_address client)
       ~dst:(Kernel.ip_address server, 9000)
       ~rate:25_000. ~size:14 ~until:(Time.sec 1.) ());
  World.run w ~until:(Time.sec 1.);
  let st = Kernel.stats server in
  Alcotest.(check bool)
    (Printf.sprintf "BSD: IP-queue drops under flood (%d)" st.Kernel.ipq_drops)
    true
    (st.Kernel.ipq_drops > 0)

let test_traffic_separation_lrp () =
  (* A flood aimed at one socket must not cause loss on another (LRP);
     under BSD the shared IP queue couples them. *)
  let run arch =
    let cfg = Kernel.default_config arch in
    let w = World.make () in
    let client = World.add_host w ~name:"client" cfg in
    let blaster = World.add_host w ~name:"blaster" cfg in
    let server = World.add_host w ~name:"server" cfg in
    ignore (Pingpong.start_server server ~port:7);
    ignore (Blast.start_sink server ~port:9000 ());
    ignore
      (Blast.start_source (World.engine w) (Kernel.nic blaster)
         ~src:(Kernel.ip_address blaster)
         ~dst:(Kernel.ip_address server, 9000)
         ~rate:18_000. ~size:14 ~until:(Time.sec 2.) ());
    let cl =
      Pingpong.start_client client ~dst:(Kernel.ip_address server, 7)
        ~rounds:100 ()
    in
    World.run w ~until:(Time.sec 2.);
    cl.Pingpong.rounds_done
  in
  let lrp_rounds = run Kernel.Ni_lrp in
  Alcotest.(check int) "NI-LRP: ping-pong survives a flood to another socket"
    100 lrp_rounds

(* Minor words the whole simulation allocates per datagram the sink
   receives, over a steady 300 ms window of Figure 3's livelock point
   (14-byte UDP at 20k pkts/s).  Everything is deterministic, so the
   figure is exact for a build.  The source writes its frames straight
   into rows and allocates nothing per frame; what is left are the
   continuations of the sink's blocks and computes and the socket
   queue's cells (the sink receives into one caller-owned datagram).
   The bounds sit about 3% above the figures measured under the
   workspace's release profile (dune-workspace); dune's dev profile
   compiles with -opaque and reads higher. *)
let rx_words_per_datagram arch =
  let cfg = Kernel.default_config arch in
  let w, client, server = World.pair ~seed:42 ~cfg () in
  let sink = Blast.start_sink server ~port:9000 () in
  ignore
    (Blast.start_source (World.engine w) (Kernel.nic client)
       ~src:(Kernel.ip_address client) ~dst:(Kernel.ip_address server, 9000)
       ~rate:20_000. ~size:14 ~until:(Time.sec 1.) ());
  World.run w ~until:(Time.ms 100.);
  let r0 = sink.Blast.received and w0 = Gc.minor_words () in
  World.run w ~until:(Time.ms 400.);
  let words = Gc.minor_words () -. w0 in
  words /. float_of_int (max 1 (sink.Blast.received - r0))

let test_rx_words_per_datagram () =
  List.iter
    (fun (arch, bound) ->
      let got = rx_words_per_datagram arch in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.1f minor words per datagram <= %.1f"
           (Kernel.arch_name arch) got bound)
        true (got <= bound))
    (* measured 10.1, 8.8 and 9.5 under the workspace profile *)
    [ (Kernel.Soft_lrp, 10.4); (Kernel.Ni_lrp, 9.1); (Kernel.Napi_gro, 9.8) ]

let suite =
  [ Alcotest.test_case "udp delivery (all archs)" `Quick
      (for_all_archs test_udp_delivery);
    Alcotest.test_case "udp ping-pong (all archs)" `Quick
      (for_all_archs test_udp_pingpong);
    Alcotest.test_case "low-rate blast delivered (all archs)" `Slow
      (for_all_archs test_blast_delivers_at_low_rate);
    Alcotest.test_case "LRP early discard sheds load at the NI" `Slow
      test_early_discard_lrp;
    Alcotest.test_case "BSD drops at the shared IP queue" `Slow
      test_bsd_ipq_drops_under_flood;
    Alcotest.test_case "LRP traffic separation" `Slow
      test_traffic_separation_lrp;
    Alcotest.test_case "minor words per delivered datagram pinned" `Quick
      test_rx_words_per_datagram ]
