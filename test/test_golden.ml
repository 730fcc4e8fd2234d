(* Golden outputs: short runs on every receiver architecture, reduced to
   one FNV-1a-64 digest of their statistics plus their flight-recorder
   dumps.  The UDP-blast and 4.4BSD/SOFT-LRP HTTP digests were recorded
   before the simulated CPU's dispatch core moved to flat work rings and
   typed interrupt jobs; the NI-LRP/NAPI HTTP, gateway and multicast +
   fragment digests were recorded before the receive paths were folded
   onto one axis table.  Both rewrites are meant to leave simulated
   behaviour alone, so any drift here means one of them changed it.  The
   HTTP, gateway and multicast + fragment digests were re-recorded when
   the ledger began folding exited processes' rows into one aggregate
   row; every other line of those summaries was unchanged.  All of them
   were re-recorded when the recorder's format became [LRPREC02]: one
   [Drop] kind with a reason replaced five drop kinds, and a full NIC
   ring stopped being recorded as an IP-queue drop.  With the dumps
   masked out, every summary was unchanged; decoded, the old and new
   streams differ only by those two changes. *)

open Lrp_engine
open Lrp_net
open Lrp_sim
open Lrp_kernel
open Lrp_workload
open Lrp_experiments
module Trace = Lrp_trace.Trace
module Precorder = Lrp_trace.Precorder

(* Everything observable about a kernel: counters, exact CPU clocks (hex
   floats), dispatch counts, the ledger, NIC counters and its recorder.
   Once exited processes' rows are folded into the ledger's aggregate
   row, the rows no longer show each cycle's class; the exact class
   totals printed after the aggregate do. *)
let kernel_summary b k =
  let s = Kernel.stats k and cpu = Kernel.cpu k in
  let led = Cpu.ledger cpu in
  let nic = Nic.stats (Kernel.nic k) in
  Printf.bprintf b
    "%s rx=%d ipq=%d mbuf=%d noport=%d demux=%d edemux=%d udp=%d tcp=%d \
     peer=%d fwd=%d fwdd=%d rst=%d csum=%d hwm=%d\n"
    (Kernel.name k) s.rx_frames s.ipq_drops s.mbuf_drops s.no_port_drops
    s.demux_drops s.edemux_early_drops s.udp_delivered s.tcp_delivered
    s.rx_wrong_peer s.forwarded s.fwd_drops s.rsts_sent s.csum_drops s.ipq_hwm;
  Printf.bprintf b "cpu hard=%h soft=%h user=%h poll=%h idle=%h cs=%d hi=%d si=%d\n"
    (Cpu.time_hard cpu) (Cpu.time_soft cpu) (Cpu.time_user cpu)
    (Cpu.time_poll cpu) (Cpu.time_idle cpu) (Cpu.context_switches cpu)
    (Cpu.hardirq_dispatches cpu) (Cpu.softirq_dispatches cpu);
  List.iter
    (fun (r : Ledger.row) ->
      Printf.bprintf b "ledger %d %s %h %h %h %h %h\n" r.pid r.name
        r.intr_victim r.soft_victim r.proto r.poll r.app;
      if r.pid = Ledger.exited_pid then
        Printf.bprintf b "ledger-total %h %h %h %h %h\n"
          (Ledger.total led Ledger.Intr) (Ledger.total led Ledger.Soft)
          (Ledger.total led Ledger.Proto) (Ledger.total led Ledger.Poll)
          (Ledger.total led Ledger.App))
    (Ledger.rows led);
  Printf.bprintf b "nic tx=%d rx=%d\n" nic.tx_packets nic.rx_packets;
  Precorder.dump_to_buffer b (Trace.recorder (Kernel.tracer k))

(* A run's summary: the digested text of the goldens, then, with
   [~counters], every kernel's full counter table (engine timer stats
   included), which the run-versus-step comparison also checks. *)
let summary_of_engine ?(counters = false) engine kernels extra =
  let b = Buffer.create 4096 in
  Printf.bprintf b "events=%d now=%h %s\n"
    (Engine.events_executed engine) (Engine.now engine) extra;
  List.iter (kernel_summary b) kernels;
  if counters then
    List.iter
      (fun k ->
        List.iter
          (fun (name, v) ->
            Printf.bprintf b "%s %s=%h\n" (Kernel.name k) name v)
          (Kernel.counters k))
      kernels;
  Buffer.contents b

let summary_of ?counters w = summary_of_engine ?counters (World.engine w)

let digest s = Printf.sprintf "%016Lx" (Cluster.fnv1a64 s)

(* How a scenario advances its engine: the batched loop, which may run
   CPU segments ahead (DESIGN §17), or one event at a time, which never
   does. *)
let batched engine ~until = Engine.run engine ~until
let stepped engine ~until = Engine.run_while engine (fun () -> true) ~until

(* [run] in 250 us slices, logging the clock and the event count after
   each: a segment run ahead past a slice's bound shows in the log. *)
let in_slices run log engine ~until =
  let t = ref (Engine.now engine) in
  while !t < until do
    t := Float.min until (!t +. 250.);
    run engine ~until:!t;
    Printf.bprintf log "%h %d\n" (Engine.now engine)
      (Engine.events_executed engine)
  done

(* Figure 3's livelock point, briefly: 14-byte UDP at 20k pkts/s. *)
let udp_blast ?(advance = batched) ?counters sys =
  let cfg = Common.config_of_system sys in
  let w, client, server = World.pair ~seed:42 ~cfg () in
  Kernel.set_tracing server true;
  let sink = Blast.start_sink server ~port:9000 () in
  let src =
    Blast.start_source (World.engine w) (Kernel.nic client)
      ~src:(Kernel.ip_address client) ~dst:(Kernel.ip_address server, 9000)
      ~rate:20_000. ~size:14 ~until:(Time.ms 150.) ()
  in
  advance (World.engine w) ~until:(Time.ms 200.);
  summary_of ?counters w [ client; server ]
    (Printf.sprintf "sent=%d received=%d" src.Blast.sent sink.Blast.received)

(* One Figure-5 point: 8 HTTP clients plus a 6k SYN/s flood. *)
let http_syn ?(advance = batched) ?counters sys =
  let tune cfg = { cfg with Kernel.time_wait = Time.ms 500. } in
  let cfg = Common.config_of_system ~tune sys in
  let w = World.make ~seed:42 () in
  let server = World.add_host w ~name:"server" cfg in
  let clients = World.add_host w ~name:"clients" cfg in
  let attacker = World.add_host w ~name:"attacker" cfg in
  Kernel.set_tracing server true;
  ignore (Http.start_server server ~port:80 ());
  ignore
    (Cpu.spawn (Kernel.cpu server) ~name:"dummy" (fun self ->
         let lsock = Api.socket_stream server in
         Api.tcp_listen server ~self lsock ~port:99 ~backlog:5;
         Proc.block (Proc.waitq "dummy.forever")));
  let stats =
    Http.start_clients clients ~dst:(Kernel.ip_address server, 80) ~n:8 ()
  in
  ignore
    (Synflood.start (World.engine w) (Kernel.nic attacker)
       ~dst:(Kernel.ip_address server, 99) ~rate:6_000.
       ~until:(Time.sec 1_000.) ());
  advance (World.engine w) ~until:(Time.ms 600.);
  summary_of ?counters w [ server; clients; attacker ]
    (Printf.sprintf "completed=%d failed=%d" stats.Http.completed
       stats.Http.failed)

(* Two networks glued by a forwarding gateway: a UDP blast and a TCP echo
   from net A to net B, both through the gateway. *)
let gateway_run sys =
  let cfg = Common.config_of_system sys in
  let engine, client, gw, server = World.gateway ~seed:42 cfg in
  Kernel.set_tracing gw true;
  Kernel.set_tracing server true;
  let sink = Blast.start_sink server ~port:9000 () in
  let src =
    Blast.start_source engine (Kernel.nic client)
      ~src:(Kernel.ip_address client) ~dst:(Kernel.ip_address server, 9000)
      ~rate:5_000. ~size:14 ~until:(Time.ms 100.) ()
  in
  let echoed = ref 0 in
  ignore
    (Cpu.spawn (Kernel.cpu server) ~name:"echo-srv" (fun self ->
         let lsock = Api.socket_stream server in
         Api.tcp_listen server ~self lsock ~port:80 ~backlog:4;
         let conn = Api.tcp_accept server ~self lsock in
         let rec echo () =
           match Api.tcp_recv server conn ~max:4096 with
           | `Data p -> ignore (Api.tcp_send server conn p); echo ()
           | `Eof -> Api.close server conn
         in
         echo ()));
  ignore
    (Cpu.spawn (Kernel.cpu client) ~name:"echo-cli" (fun self ->
         let sock = Api.socket_stream client in
         match
           Api.tcp_connect client ~self sock
             ~remote:(Kernel.ip_address server, 80)
         with
         | `Refused -> ()
         | `Ok ->
             for _ = 1 to 5 do
               ignore (Api.tcp_send client sock (Payload.synthetic 3000));
               match Api.tcp_recv client sock ~max:4096 with
               | `Data p -> echoed := !echoed + Payload.length p
               | `Eof -> ()
             done;
             Api.close client sock));
  Engine.run engine ~until:(Time.ms 300.);
  summary_of_engine engine [ client; gw; server ]
    (Printf.sprintf "sent=%d received=%d echoed=%d" src.Blast.sent
       sink.Blast.received !echoed)

(* Multicast to two member sockets of one group (one reading with
   [recvfrom], one with [recvfrom_timeout]) interleaved with unicast
   datagrams large enough to fragment, read with [try_recvfrom]. *)
let mcast_frag_run sys =
  let cfg = Common.config_of_system sys in
  let w, client, server = World.pair ~seed:42 ~cfg () in
  Kernel.set_tracing server true;
  let group = Packet.ip_of_quad 224 0 0 9 in
  let n = 20 in
  let got_a = ref 0 and got_b = ref 0 and got_big = ref 0 in
  ignore
    (Cpu.spawn (Kernel.cpu server) ~name:"member-a" (fun self ->
         let sock = Api.socket_dgram () in
         Api.join_group server sock ~owner:(Some self) ~group ~port:6666;
         let dg = Api.dgram () in
         for _ = 1 to n do
           Api.recvfrom server sock dg;
           got_a := !got_a + Payload.length dg.Api.dg_payload
         done));
  ignore
    (Cpu.spawn (Kernel.cpu server) ~name:"member-b" (fun self ->
         let sock = Api.socket_dgram () in
         Api.join_group server sock ~owner:(Some self) ~group ~port:6666;
         let dg = Api.dgram () in
         for _ = 1 to 2 * n do
           if Api.recvfrom_timeout server sock dg ~timeout:(Time.ms 3.) then
             got_b := !got_b + Payload.length dg.Api.dg_payload
         done));
  ignore
    (Cpu.spawn (Kernel.cpu server) ~name:"big-rx" (fun self ->
         let sock = Api.socket_dgram () in
         Api.bind server sock ~owner:(Some self) ~port:5000;
         let dg = Api.dgram () in
         for _ = 1 to 4 * n do
           if Api.try_recvfrom server sock dg then
             got_big := !got_big + Payload.length dg.Api.dg_payload
           else Proc.sleep_for (Time.ms 1.)
         done));
  ignore
    (Cpu.spawn (Kernel.cpu client) ~name:"tx" (fun self ->
         let sock = Api.socket_dgram () in
         ignore (Api.bind_ephemeral client sock ~owner:(Some self));
         for i = 1 to n do
           Api.sendto client ~self sock ~dst:(group, 6666)
             (Payload.synthetic (100 + i));
           Api.sendto client ~self sock ~dst:(Kernel.ip_address server, 5000)
             (Payload.synthetic 20_000);
           Proc.sleep_for (Time.ms 2.)
         done));
  World.run w ~until:(Time.ms 200.);
  summary_of w [ client; server ]
    (Printf.sprintf "a=%d b=%d big=%d" !got_a !got_b !got_big)

let udp_golden =
  [ (Common.Bsd, "a16dbaaf58ba2243");
    (Common.Soft_lrp, "ca4cf53347855157");
    (Common.Ni_lrp, "f05aa8b112821c5f");
    (Common.Early_demux, "015beacfce819225");
    (Common.Napi, "b30d497ef1bf3411");
    (Common.Napi_gro, "2afa67f79b25814f");
    (Common.Rss, "87ded629746eb73e") ]

let http_golden =
  [ (Common.Bsd, "9214d3dccb02fac2"); (Common.Soft_lrp, "154937c2a27a27dc");
    (Common.Ni_lrp, "56277d16b48e6dbc"); (Common.Napi, "fef3496f1a500bf9") ]

let gateway_golden =
  [ (Common.Bsd, "798244e535dfd76c"); (Common.Soft_lrp, "ea7c5e850b195de4");
    (Common.Ni_lrp, "5dc88221200272b4");
    (Common.Early_demux, "c097e5532da788c1");
    (Common.Napi, "a02a28a094e7f8a7"); (Common.Napi_gro, "d93075b8a55b63fb");
    (Common.Rss, "e29c8402d1a837f6") ]

(* The Early-Demux row was recorded after its interrupt-time demux
   learned to pass group datagrams to the eager path. *)
let mcast_frag_golden =
  [ (Common.Bsd, "cab0dbf77e62813a"); (Common.Soft_lrp, "26cb36fca74665ec");
    (Common.Ni_lrp, "aea38595b1e474f1");
    (Common.Early_demux, "4e768eaecfa7e652");
    (Common.Napi, "9b41eb6c06e37eaa");
    (Common.Napi_gro, "9b41eb6c06e37eaa"); (Common.Rss, "8f439b9b728ad6ec") ]

let check_golden what run golden () =
  List.iter
    (fun (sys, want) ->
      Alcotest.(check string)
        (what ^ " digest, " ^ Common.system_name sys)
        want (digest (run sys)))
    golden

let test_http_golden =
  check_golden "http+syn" (fun sys -> http_syn sys) http_golden

(* The edges of run-ahead on a bare CPU with whole-microsecond costs: an
   observer queued on the very deadlines of a spinning process's
   segments (an equal key queued earlier fires first), and a zero-cost
   hard job, posted by an event that goes on after the post, whose action
   posts through the tail entry (a nested entry is no tail entry). *)
let cpu_edges advance =
  let eng = Engine.create () in
  let cpu = Cpu.create eng ~start_clock:false () in
  let b = Buffer.create 4096 and progress = ref 0 in
  let note what =
    Printf.bprintf b "%s %h progress=%d hard=%h user=%h\n" what
      (Engine.now eng) !progress (Cpu.time_hard cpu) (Cpu.time_user cpu)
  in
  let obs = ref Engine.none in
  obs :=
    Engine.schedule eng ~at:10. (fun () ->
        note "observer";
        Engine.reschedule_after eng !obs ~delay:10.);
  ignore
    (Cpu.spawn cpu ~name:"spin" (fun _ ->
         for _ = 1 to 40 do
           (Cpu.cost_cell cpu).(0) <- 10.;
           Cpu.compute cpu;
           incr progress
         done));
  let costly = Cpu.job cpu ~label:"costly" (fun () _ -> note "costly") in
  let free =
    Cpu.job cpu ~label:"free" (fun () _ ->
        (Cpu.cost_cell cpu).(0) <- 3.;
        Cpu.post_hard_job_tail cpu ~tpkt:(-1) costly () 0)
  in
  ignore
    (Engine.schedule eng ~at:105.5 (fun () ->
         (Cpu.cost_cell cpu).(0) <- 0.;
         Cpu.post_hard_job cpu ~tpkt:(-1) free () 0;
         note "posted"));
  advance eng ~until:500.;
  note "end";
  Buffer.contents b

(* Batched dispatch, run-ahead segments included, must be exactly the
   one-event-at-a-time loop: same recorder dumps, counters (engine timer
   stats included), source/sink counts and per-slice clock and event
   counts.  The sharded form is in the cluster suite. *)
let test_run_equals_stepping () =
  let sliced run scenario =
    let log = Buffer.create 4096 in
    let s = scenario (in_slices run log) in
    s ^ Buffer.contents log
  in
  let same what sys run =
    Alcotest.(check string)
      (Printf.sprintf "%s, %s: run = stepping" what (Common.system_name sys))
      (sliced stepped (fun advance -> run advance sys))
      (sliced batched (fun advance -> run advance sys))
  in
  Alcotest.(check string) "CPU edges: run = stepping"
    (sliced stepped cpu_edges) (sliced batched cpu_edges);
  List.iter
    (fun (sys, _) ->
      same "udp blast" sys (fun advance -> udp_blast ~advance ~counters:true);
      same "http+syn" sys (fun advance -> http_syn ~advance ~counters:true))
    udp_golden

let suite =
  [ Alcotest.test_case "udp blast digests pinned on all 7 archs" `Quick
      (check_golden "udp blast" (fun sys -> udp_blast sys) udp_golden);
    Alcotest.test_case "http+syn flood digests pinned" `Quick test_http_golden;
    Alcotest.test_case "two-network gateway digests pinned on all 7 archs"
      `Quick (check_golden "gateway" gateway_run gateway_golden);
    Alcotest.test_case "multicast + fragment digests pinned"
      `Quick (check_golden "mcast+frag" mcast_frag_run mcast_frag_golden);
    Alcotest.test_case
      "run equals stepping: udp, http+syn on 7 archs" `Quick
      test_run_equals_stepping ]
