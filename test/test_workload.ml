(* Tests for the workload generators themselves, plus resource-scaling and
   fault-injection scenarios built on them. *)

open Lrp_engine
open Lrp_sim
open Lrp_net
open Lrp_kernel
open Lrp_workload

(* --- generators ---------------------------------------------------------- *)

let test_blast_source_rate () =
  let cfg = Kernel.default_config Kernel.Ni_lrp in
  let w, client, server = World.pair ~cfg () in
  ignore (Blast.start_sink server ~port:9000 ());
  let src =
    Blast.start_source (World.engine w) (Kernel.nic client)
      ~src:(Kernel.ip_address client)
      ~dst:(Kernel.ip_address server, 9000)
      ~rate:5_000. ~size:14 ~until:(Time.sec 1.) ()
  in
  World.run w ~until:(Time.sec 1.);
  Alcotest.(check bool)
    (Printf.sprintf "source held its rate (%d sent)" src.Blast.sent)
    true
    (src.Blast.sent >= 4_990 && src.Blast.sent <= 5_010)

(* A rate that is NaN, infinite, zero, negative or too high to advance the
   clock would re-arm the source forever (or schedule into the past); it
   is rejected before anything is scheduled. *)
let test_blast_source_rejects_bad_rates () =
  let w, client, server = World.pair () in
  List.iter
    (fun rate ->
      match
        Blast.start_source (World.engine w) (Kernel.nic client)
          ~src:(Kernel.ip_address client)
          ~dst:(Kernel.ip_address server, 9000)
          ~rate ~size:14 ~until:(Time.sec 1.) ()
      with
      | _ -> Alcotest.failf "rate %g accepted" rate
      | exception Invalid_argument _ -> ())
    [ Float.nan; Float.infinity; 0.; -5.; 1e300 ];
  let events w =
    World.run w ~until:(Time.sec 1.);
    Engine.events_executed (World.engine w)
  in
  let idle, _, _ = World.pair () in
  Alcotest.(check int) "no source event was scheduled" (events idle) (events w)

let test_synflood_unique_tuples () =
  (* Every SYN must look like a new connection: distinct (src, port)
     pairs across a large window. *)
  let eng = Engine.create () in
  let fab = Fabric.create eng () in
  let a = Fabric.make_nic fab ~ip:1 ~ifq_limit:10_000 () in
  let b = Fabric.make_nic fab ~ip:2 () in
  let seen = Hashtbl.create 512 in
  let dups = ref 0 in
  Nic.set_rx_handler b (fun row ->
      let pool = Nic.pool b in
      (match Parena.proto pool row with
       | Parena.Tcp ->
           let key = (Parena.src pool row, Parena.sport pool row) in
           if Hashtbl.mem seen key then incr dups else Hashtbl.replace seen key ()
       | Parena.Udp | Parena.Icmp -> ());
      Parena.release pool row);
  ignore
    (Synflood.start eng a ~dst:(2, 99) ~rate:10_000. ~until:(Time.ms 200.) ());
  Engine.run eng ~until:(Time.ms 300.);
  Alcotest.(check int) "no duplicate flood tuples in 2000 SYNs" 0 !dups;
  Alcotest.(check bool) "flood actually ran" true (Hashtbl.length seen > 1_500)

let test_http_server_serves () =
  let cfg = Kernel.default_config Kernel.Soft_lrp in
  let w, client, server = World.pair ~cfg () in
  let srv = Http.start_server server ~port:80 () in
  let cli = Http.start_clients client ~dst:(Kernel.ip_address server, 80) ~n:2 () in
  World.run w ~until:(Time.sec 2.);
  Alcotest.(check bool)
    (Printf.sprintf "served %d transfers" srv.Http.served)
    true
    (srv.Http.served > 20);
  Alcotest.(check int) "client and server agree" srv.Http.served
    cli.Http.completed;
  Alcotest.(check int) "no failures at idle" 0 cli.Http.failed

let test_udp_window_tool () =
  let cfg = Kernel.default_config Kernel.Bsd in
  let w, client, server = World.pair ~cfg () in
  let r =
    Udp_window.run w ~sender:client ~receiver:server ~port:5002 ~size:8192
      ~window:8 ~total:200 ~until:(Time.sec 30.) ()
  in
  Alcotest.(check int) "all datagrams delivered (window paces the sender)"
    200 r.Udp_window.datagrams;
  Alcotest.(check bool)
    (Printf.sprintf "throughput plausible (%.1f Mbit/s)" (Udp_window.mbps r))
    true
    (Udp_window.mbps r > 30. && Udp_window.mbps r < 150.)

(* --- NI channel scaling (paper section 4.2 discussion) ------------------- *)

let channel_count kern =
  List.length (Kernel.channels kern)

let test_ni_lrp_channel_scaling () =
  (* "NI-LRP ... deallocat[es] an NI channel as soon as the associated TCP
     connection enters the TIME_WAIT state", so channel slots stay bounded
     under connection churn even while TIME_WAIT lingers. *)
  let run arch =
    let cfg =
      { (Kernel.default_config arch) with Kernel.time_wait = Time.sec 30. }
    in
    let w, client, server = World.pair ~cfg () in
    ignore
      (Cpu.spawn (Kernel.cpu server) ~name:"srv" (fun self ->
           let lsock = Api.socket_stream server in
           Api.tcp_listen server ~self lsock ~port:80 ~backlog:8;
           let rec loop () =
             let conn = Api.tcp_accept server ~self lsock in
             (match Api.tcp_recv server conn ~max:4096 with
              | `Data _ -> ignore (Api.tcp_send server conn (Payload.synthetic 100))
              | `Eof -> ());
             Api.close server conn;
             loop ()
           in
           try loop () with Api.Socket_closed -> ()));
    ignore
      (Cpu.spawn (Kernel.cpu client) ~name:"cli" (fun self ->
           for _ = 1 to 20 do
             let sock = Api.socket_stream client in
             (match
                Api.tcp_connect client ~self sock
                  ~remote:(Kernel.ip_address server, 80)
              with
              | `Ok ->
                  ignore (Api.tcp_send client sock (Payload.synthetic 10));
                  (match Api.tcp_recv client sock ~max:4096 with
                   | `Data _ | `Eof -> ());
                  Api.close client sock
              | `Refused -> ())
           done));
    World.run w ~until:(Time.sec 20.);
    channel_count server
  in
  let ni = run Kernel.Ni_lrp in
  (* 20 sequential connections, all in TIME_WAIT (30s) at measurement time.
     NI-LRP must have deallocated their channels already. *)
  Alcotest.(check bool)
    (Printf.sprintf "NI-LRP channel count stays bounded (%d)" ni)
    true
    (ni < 10)

(* --- fault injection: fragment loss --------------------------------------- *)

let test_fragment_loss_times_out_cleanly () =
  (* Lose a fifth of the frames on the server's link while blasting
     fragmented datagrams, on every architecture: incomplete reassemblies
     must be pruned (no unbounded growth) with their fragments' buffers
     released, and intact datagrams still flow. *)
  List.iter
    (fun arch ->
      let name = Kernel.arch_name arch in
      let w, client, server = World.pair ~cfg:(Kernel.default_config arch) () in
      Fabric.set_link_faults (World.fabric w) ~ip:(Kernel.ip_address server)
        (Fabric.Faults.make ~loss:0.2 ());
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
             try loop () with Api.Socket_closed -> ()));
      ignore
        (Cpu.spawn (Kernel.cpu client) ~name:"tx" (fun self ->
             let sock = Api.socket_dgram () in
             ignore (Api.bind_ephemeral client sock ~owner:(Some self));
             for _ = 1 to 100 do
               Api.sendto client ~self sock
                 ~dst:(Kernel.ip_address server, 5000)
                 (Payload.synthetic 20_000);
               Proc.sleep_for (Time.ms 2.)
             done));
      (* Run past the 30 s reassembly timeout and the slow timer after it. *)
      World.run w ~until:(Time.sec 40.);
      Alcotest.(check bool)
        (Printf.sprintf "%s: some datagrams survived (%d/100)" name !got)
        true
        (!got > 10 && !got < 95);
      Alcotest.(check int) (name ^ ": no reassembly state leaked") 0
        (Lrp_proto.Ip.Reasm.pending_count server.Kernel.reasm);
      Alcotest.(check bool) (name ^ ": incomplete datagrams were pruned") true
        (Lrp_trace.Trace.drops (Kernel.tracer server)
           Lrp_trace.Trace.Reasm_timeout
         > 0);
      Alcotest.(check int) (name ^ ": pruned fragments' mbufs returned") 0
        (Mbuf.in_use (Kernel.mbufs server));
      Alcotest.(check int) (name ^ ": no received frame held") 0
        (Parena.live server.Kernel.parena))
    [ Kernel.Bsd; Kernel.Soft_lrp; Kernel.Ni_lrp; Kernel.Early_demux;
      Kernel.Napi; Kernel.Napi_gro; Kernel.Rss ]

let suite =
  [ Alcotest.test_case "blast source holds its rate" `Quick test_blast_source_rate;
    Alcotest.test_case "blast source rejects bad rates" `Quick
      test_blast_source_rejects_bad_rates;
    Alcotest.test_case "SYN flood tuples are unique" `Quick
      test_synflood_unique_tuples;
    Alcotest.test_case "HTTP server + clients" `Quick test_http_server_serves;
    Alcotest.test_case "sliding-window UDP tool" `Quick test_udp_window_tool;
    Alcotest.test_case "NI-LRP channels scale under connection churn" `Slow
      test_ni_lrp_channel_scaling;
    Alcotest.test_case "fragment loss prunes cleanly" `Slow
      test_fragment_loss_times_out_cleanly ]
