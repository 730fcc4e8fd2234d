(* Kernel-level tests: syscall semantics, ICMP, fragmentation end-to-end,
   the UDP helper thread, mbuf accounting, and per-architecture drop
   bookkeeping. *)

open Lrp_engine
open Lrp_sim
open Lrp_net
open Lrp_kernel
open Lrp_workload

let archs = [ Kernel.Bsd; Kernel.Soft_lrp; Kernel.Ni_lrp; Kernel.Early_demux ]

let all_archs =
  archs @ [ Kernel.Napi; Kernel.Napi_gro; Kernel.Rss ]

let for_all_archs f () =
  List.iter (fun arch -> f arch (Kernel.default_config arch)) archs

(* --- ICMP ---------------------------------------------------------------- *)

let test_icmp_echo arch cfg =
  (* Ping the server: BSD answers in softint context; LRP's protocol-proxy
     daemon answers from the ICMP channel (section 3.5). *)
  let w, client, server = World.pair ~cfg () in
  let got_reply = ref false in
  let nic = Kernel.nic client in
  let pool = Nic.pool nic in
  Nic.set_rx_handler nic (fun row ->
      if Parena.proto pool row = Parena.Icmp
         && Parena.icmp_kind pool row = Packet.Echo_reply
      then got_reply := true;
      Parena.release pool row);
  ignore
    (Engine.schedule (World.engine w) ~at:100. (fun () ->
         ignore
           (Nic.transmit_row nic
              (Parena.icmp pool ~src:(Kernel.ip_address client)
                 ~dst:(Kernel.ip_address server) Packet.Echo_request
                 (Payload.synthetic 32)))));
  World.run w ~until:(Time.sec 1.);
  Alcotest.(check bool)
    (Printf.sprintf "%s: echo reply received" (Kernel.arch_name arch))
    true !got_reply

(* --- UDP fragmentation end-to-end ----------------------------------------- *)

let test_udp_fragmentation_e2e arch cfg =
  (* A 20 kB datagram over a 9180-byte MTU: 3 fragments, reassembled by
     the receiver (lazily, for LRP — exercising the special fragment
     channel). *)
  let w, client, server = World.pair ~cfg () in
  let got = ref None in
  ignore
    (Cpu.spawn (Kernel.cpu server) ~name:"rx" (fun self ->
         let sock = Api.socket_dgram () in
         Api.bind server sock ~owner:(Some self) ~port:5000;
         let dg = Api.dgram () in
         Api.recvfrom server sock dg;
         got := Some (Payload.length dg.Api.dg_payload)));
  ignore
    (Cpu.spawn (Kernel.cpu client) ~name:"tx" (fun self ->
         let sock = Api.socket_dgram () in
         ignore (Api.bind_ephemeral client sock ~owner:(Some self));
         Api.sendto client ~self sock
           ~dst:(Kernel.ip_address server, 5000)
           (Payload.synthetic 20_000)));
  World.run w ~until:(Time.sec 2.);
  Alcotest.(check (option int))
    (Printf.sprintf "%s: 20kB datagram reassembled" (Kernel.arch_name arch))
    (Some 20_000) !got

let test_fragments_in_both_channels () =
  (* Under LRP, the first fragment demuxes to the socket channel and later
     fragments to the special fragment channel; reassembly pulls them
     together. *)
  let cfg = Kernel.default_config Kernel.Ni_lrp in
  let w, client, server = World.pair ~cfg () in
  let got = ref 0 in
  ignore
    (Cpu.spawn (Kernel.cpu server) ~name:"rx" (fun self ->
         let sock = Api.socket_dgram () in
         Api.bind server sock ~owner:(Some self) ~port:5000;
         let dg = Api.dgram () in
         for _ = 1 to 3 do
           Api.recvfrom server sock dg;
           got := !got + Payload.length dg.Api.dg_payload
         done));
  ignore
    (Cpu.spawn (Kernel.cpu client) ~name:"tx" (fun self ->
         let sock = Api.socket_dgram () in
         ignore (Api.bind_ephemeral client sock ~owner:(Some self));
         for _ = 1 to 3 do
           Api.sendto client ~self sock
             ~dst:(Kernel.ip_address server, 5000)
             (Payload.synthetic 30_000);
           Proc.sleep_for (Time.ms 20.)
         done));
  World.run w ~until:(Time.sec 2.);
  Alcotest.(check int) "all three large datagrams arrived" 90_000 !got

(* --- helper thread --------------------------------------------------------- *)

let test_helper_preprocesses_when_idle () =
  (* Section 3.3: an otherwise idle CPU performs protocol processing via the
     minimal-priority thread, so a process that is waiting on something
     else (here: a disk-like sleep) still finds a ready datagram.  We
     inject while the receiver sleeps and the CPU idles, then check the
     datagram was deposited on the socket queue by the helper before the
     receiver asked. *)
  let cfg = Kernel.default_config Kernel.Ni_lrp in
  let w, client, server = World.pair ~cfg () in
  let sock = Api.socket_dgram () in
  let ready_before_recv = ref false in
  ignore
    (Cpu.spawn (Kernel.cpu server) ~name:"busy-rx" (fun self ->
         Api.bind server sock ~owner:(Some self) ~port:5000;
         (* Blocked on "I/O" for 50 ms while a packet arrives; the CPU is
            otherwise idle. *)
         Proc.sleep_for (Time.ms 50.);
         ready_before_recv := not (Queue.is_empty sock.Socket.udp_rcv);
         Api.recvfrom server sock (Api.dgram ())));
  ignore
    (Engine.schedule (World.engine w) ~at:(Time.ms 10.) (fun () ->
         ignore
           (Nic.transmit (Kernel.nic client)
              (Packet.udp ~src:(Kernel.ip_address client)
                 ~dst:(Kernel.ip_address server) ~src_port:9 ~dst_port:5000
                 (Payload.synthetic 14)))));
  World.run w ~until:(Time.sec 1.);
  Alcotest.(check bool) "helper had pre-processed the datagram" true
    !ready_before_recv

let test_helper_disabled () =
  (* With the helper off, the packet waits raw in the channel until the
     receive call processes it lazily. *)
  let cfg = { (Kernel.default_config Kernel.Ni_lrp) with Kernel.udp_helper = false } in
  let w, client, server = World.pair ~cfg () in
  let sock = Api.socket_dgram () in
  let chan_depth = ref (-1) in
  let got = ref false in
  ignore
    (Cpu.spawn (Kernel.cpu server) ~name:"busy-rx" (fun self ->
         Api.bind server sock ~owner:(Some self) ~port:5000;
         Proc.sleep_for (Time.ms 50.);
         (match sock.Socket.chan with
          | Some ch -> chan_depth := Lrp_core.Channel.length ch
          | None -> ());
         Api.recvfrom server sock (Api.dgram ());
         got := true));
  ignore
    (Engine.schedule (World.engine w) ~at:(Time.ms 10.) (fun () ->
         ignore
           (Nic.transmit (Kernel.nic client)
              (Packet.udp ~src:(Kernel.ip_address client)
                 ~dst:(Kernel.ip_address server) ~src_port:9 ~dst_port:5000
                 (Payload.synthetic 14)))));
  World.run w ~until:(Time.sec 1.);
  Alcotest.(check int) "raw packet waited in the channel" 1 !chan_depth;
  Alcotest.(check bool) "lazy processing delivered it" true !got

(* --- misc syscall semantics ------------------------------------------------ *)

let test_recvfrom_timeout () =
  let cfg = Kernel.default_config Kernel.Soft_lrp in
  let w, _client, server = World.pair ~cfg () in
  let result = ref (Some 0) in
  let woke_at = ref 0. in
  ignore
    (Cpu.spawn (Kernel.cpu server) ~name:"rx" (fun self ->
         let sock = Api.socket_dgram () in
         Api.bind server sock ~owner:(Some self) ~port:5000;
         let dg = Api.dgram () in
         result :=
           if Api.recvfrom_timeout server sock dg ~timeout:(Time.ms 5.) then
             Some (Payload.length dg.Api.dg_payload)
           else None;
         woke_at := Engine.now (World.engine w)));
  World.run w ~until:(Time.sec 1.);
  Alcotest.(check (option int)) "timed out with None" None !result;
  Alcotest.(check bool)
    (Printf.sprintf "woke near the deadline (%.0f us)" !woke_at)
    true
    (!woke_at >= Time.ms 5. && !woke_at < Time.ms 7.)

let test_sendto_autobinds () =
  let cfg = Kernel.default_config Kernel.Bsd in
  let w, client, server = World.pair ~cfg () in
  let reply_port = ref 0 in
  ignore
    (Cpu.spawn (Kernel.cpu server) ~name:"rx" (fun self ->
         let sock = Api.socket_dgram () in
         Api.bind server sock ~owner:(Some self) ~port:5000;
         let dg = Api.dgram () in
         Api.recvfrom server sock dg;
         reply_port := dg.Api.dg_sport));
  ignore
    (Cpu.spawn (Kernel.cpu client) ~name:"tx" (fun self ->
         let sock = Api.socket_dgram () in
         (* No bind: sendto must allocate an ephemeral port. *)
         Api.sendto client ~self sock
           ~dst:(Kernel.ip_address server, 5000)
           (Payload.synthetic 5)));
  World.run w ~until:(Time.sec 1.);
  Alcotest.(check bool)
    (Printf.sprintf "ephemeral source port assigned (%d)" !reply_port)
    true
    (!reply_port >= 20_000)

let test_double_bind_rejected () =
  let cfg = Kernel.default_config Kernel.Bsd in
  let w, _client, server = World.pair ~cfg () in
  let raised = ref false in
  ignore
    (Cpu.spawn (Kernel.cpu server) ~name:"p" (fun self ->
         let a = Api.socket_dgram () in
         let b = Api.socket_dgram () in
         Api.bind server a ~owner:(Some self) ~port:5000;
         (try Api.bind server b ~owner:(Some self) ~port:5000
          with Invalid_argument _ -> raised := true)));
  World.run w ~until:(Time.ms 10.);
  Alcotest.(check bool) "second bind rejected" true !raised

let test_close_wakes_blocked_receiver () =
  let cfg = Kernel.default_config Kernel.Ni_lrp in
  let w, _client, server = World.pair ~cfg () in
  let got_exn = ref false in
  let sock = Api.socket_dgram () in
  ignore
    (Cpu.spawn (Kernel.cpu server) ~name:"rx" (fun self ->
         Api.bind server sock ~owner:(Some self) ~port:5000;
         try Api.recvfrom server sock (Api.dgram ())
         with Api.Socket_closed -> got_exn := true));
  ignore
    (Cpu.spawn (Kernel.cpu server) ~name:"closer" (fun _ ->
         Proc.sleep_for (Time.ms 5.);
         Api.close_dgram server sock));
  World.run w ~until:(Time.sec 1.);
  Alcotest.(check bool) "blocked receiver saw Socket_closed" true !got_exn

let test_port_reusable_after_close () =
  let cfg = Kernel.default_config Kernel.Soft_lrp in
  let w, _client, server = World.pair ~cfg () in
  let ok = ref false in
  ignore
    (Cpu.spawn (Kernel.cpu server) ~name:"p" (fun self ->
         let a = Api.socket_dgram () in
         Api.bind server a ~owner:(Some self) ~port:5000;
         Api.close_dgram server a;
         let b = Api.socket_dgram () in
         Api.bind server b ~owner:(Some self) ~port:5000;
         ok := true));
  World.run w ~until:(Time.ms 10.);
  Alcotest.(check bool) "port rebindable after close" true !ok

(* --- drop bookkeeping ------------------------------------------------------- *)

let test_edemux_early_drop_counted () =
  let cfg = Kernel.default_config Kernel.Early_demux in
  let w, client, server = World.pair ~cfg () in
  (* No socket bound at all: every packet is an interrupt-time discard. *)
  ignore
    (Blast.start_source (World.engine w) (Kernel.nic client)
       ~src:(Kernel.ip_address client)
       ~dst:(Kernel.ip_address server, 5000)
       ~rate:1_000. ~size:14 ~until:(Time.ms 100.) ());
  World.run w ~until:(Time.ms 200.);
  Alcotest.(check bool) "early drops counted" true
    ((Kernel.stats server).Kernel.edemux_early_drops > 50)

let test_lrp_unmatched_udp_drops () =
  let cfg = Kernel.default_config Kernel.Ni_lrp in
  let w, client, server = World.pair ~cfg () in
  ignore
    (Blast.start_source (World.engine w) (Kernel.nic client)
       ~src:(Kernel.ip_address client)
       ~dst:(Kernel.ip_address server, 5000)
       ~rate:1_000. ~size:14 ~until:(Time.ms 100.) ());
  World.run w ~until:(Time.ms 200.);
  Alcotest.(check bool) "unmatched packets dropped at demux" true
    ((Kernel.stats server).Kernel.demux_drops > 50);
  (* And at zero host-CPU cost under NI demux. *)
  Alcotest.(check (float 1.)) "no host CPU burned" 0.
    (Cpu.time_hard (Kernel.cpu server))

(* Every architecture and datagram size: once the last datagram is
   copied out, no arch still holds a received frame's row, and the eager
   archs' mbuf pool is back to empty.  The 12,000 and 30,001 B datagrams
   arrive as 2 and 4 fragments, whose reassembled whole must give back
   exactly what its fragments took. *)
let test_mbuf_balance () =
  List.iter
    (fun arch ->
      List.iter
        (fun size ->
          let w, client, server = World.pair ~cfg:(Kernel.default_config arch) () in
          let got = ref 0 in
          ignore
            (Cpu.spawn (Kernel.cpu server) ~name:"rx" (fun self ->
                 let sock = Api.socket_dgram () in
                 Api.bind server sock ~owner:(Some self) ~port:5000;
                 let dg = Api.dgram () in
                 let rec loop () =
                   Api.recvfrom server sock dg;
                   incr got;
                   loop ()
                 in
                 loop ()));
          ignore
            (Cpu.spawn (Kernel.cpu client) ~name:"tx" (fun self ->
                 let sock = Api.socket_dgram () in
                 ignore (Api.bind_ephemeral client sock ~owner:(Some self));
                 for _ = 1 to 100 do
                   Api.sendto client ~self sock
                     ~dst:(Kernel.ip_address server, 5000)
                     (Payload.synthetic size);
                   Proc.sleep_for (Time.ms 2.)
                 done));
          World.run w ~until:(Time.sec 1.);
          let label what =
            Printf.sprintf "%s, %d B: %s" (Kernel.arch_name arch) size what
          in
          let mbufs = Kernel.mbufs server in
          Alcotest.(check int) (label "all delivered") 100 !got;
          Alcotest.(check int) (label "mbuf pool drained") 0 (Mbuf.in_use mbufs);
          Alcotest.(check int) (label "no received frame held") 0
            (Parena.live server.Kernel.parena);
          Alcotest.(check bool) (label "pool used by eager archs only")
            (not (Kernel.is_lrp arch)) (Mbuf.peak mbufs > 0);
          Alcotest.(check int) (label "no allocation failures (as in the paper)")
            0 (Kernel.stats server).Kernel.mbuf_drops)
        [ 14; 12_000; 30_001 ])
    all_archs

(* --- determinism -------------------------------------------------------------- *)

let test_determinism () =
  let run () =
    let cfg = Kernel.default_config Kernel.Soft_lrp in
    let w, client, server = World.pair ~cfg () in
    let sink = Blast.start_sink server ~port:9000 () in
    ignore
      (Blast.start_source (World.engine w) (Kernel.nic client)
         ~src:(Kernel.ip_address client)
         ~dst:(Kernel.ip_address server, 9000)
         ~rate:12_000. ~size:14 ~until:(Time.ms 500.) ());
    World.run w ~until:(Time.ms 600.);
    (sink.Blast.received, Kernel.early_discards server,
     Engine.events_executed (World.engine w))
  in
  let a = run () and b = run () in
  Alcotest.(check (triple int int int)) "identical runs" a b

let suite =
  [ Alcotest.test_case "icmp echo (all archs)" `Quick (for_all_archs test_icmp_echo);
    Alcotest.test_case "udp fragmentation e2e (all archs)" `Quick
      (for_all_archs test_udp_fragmentation_e2e);
    Alcotest.test_case "fragments split across channels" `Quick
      test_fragments_in_both_channels;
    Alcotest.test_case "helper preprocesses when CPU is idle" `Quick
      test_helper_preprocesses_when_idle;
    Alcotest.test_case "helper disabled leaves raw packets queued" `Quick
      test_helper_disabled;
    Alcotest.test_case "recvfrom with timeout" `Quick test_recvfrom_timeout;
    Alcotest.test_case "sendto auto-binds" `Quick test_sendto_autobinds;
    Alcotest.test_case "double bind rejected" `Quick test_double_bind_rejected;
    Alcotest.test_case "close wakes blocked receiver" `Quick
      test_close_wakes_blocked_receiver;
    Alcotest.test_case "port reusable after close" `Quick
      test_port_reusable_after_close;
    Alcotest.test_case "early-demux drop bookkeeping" `Quick
      test_edemux_early_drop_counted;
    Alcotest.test_case "LRP unmatched-packet drops" `Quick
      test_lrp_unmatched_udp_drops;
    Alcotest.test_case "mbuf pool balances" `Quick test_mbuf_balance;
    Alcotest.test_case "simulation is deterministic" `Quick test_determinism ]
