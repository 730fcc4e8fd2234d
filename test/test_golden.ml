(* Golden outputs: short runs on every receiver architecture, reduced to
   one FNV-1a-64 digest of their statistics plus their flight-recorder
   dumps.  The expected digests were recorded before the simulated CPU's
   dispatch core moved to flat work rings and typed interrupt jobs; the
   rewrite is a pure performance change, so any drift here means it
   changed simulated behaviour. *)

open Lrp_engine
open Lrp_net
open Lrp_sim
open Lrp_kernel
open Lrp_workload
open Lrp_experiments
module Trace = Lrp_trace.Trace
module Precorder = Lrp_trace.Precorder

(* Everything observable about a kernel: counters, exact CPU clocks (hex
   floats), dispatch counts, the ledger, NIC counters and its recorder. *)
let kernel_summary b k =
  let s = Kernel.stats k and cpu = Kernel.cpu k in
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
        r.intr_victim r.soft_victim r.proto r.poll r.app)
    (Ledger.rows (Cpu.ledger cpu));
  Printf.bprintf b "nic tx=%d rx=%d\n" nic.tx_packets nic.rx_packets;
  match Trace.packed (Kernel.tracer k) with
  | Some p -> Precorder.dump_to_buffer b p
  | None -> ()

let digest_of w kernels extra =
  let b = Buffer.create 4096 in
  Printf.bprintf b "events=%d now=%h %s\n"
    (Engine.events_executed (World.engine w)) (Engine.now (World.engine w)) extra;
  List.iter (kernel_summary b) kernels;
  Printf.sprintf "%016Lx" (Cluster.fnv1a64 (Buffer.contents b))

(* Figure 3's livelock point, briefly: 14-byte UDP at 20k pkts/s. *)
let udp_blast sys =
  let cfg = Common.config_of_system sys in
  let w, client, server = World.pair ~seed:42 ~cfg () in
  Kernel.set_tracing server true;
  let sink = Blast.start_sink server ~port:9000 () in
  let src =
    Blast.start_source (World.engine w) (Kernel.nic client)
      ~src:(Kernel.ip_address client) ~dst:(Kernel.ip_address server, 9000)
      ~rate:20_000. ~size:14 ~until:(Time.ms 150.) ()
  in
  World.run w ~until:(Time.ms 200.);
  digest_of w [ client; server ]
    (Printf.sprintf "sent=%d received=%d" src.Blast.sent sink.Blast.received)

(* One Figure-5 point: 8 HTTP clients plus a 6k SYN/s flood. *)
let http_syn sys =
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
  World.run w ~until:(Time.ms 600.);
  digest_of w [ server; clients; attacker ]
    (Printf.sprintf "completed=%d failed=%d" stats.Http.completed
       stats.Http.failed)

let udp_golden =
  [ (Common.Bsd, "e05cf5e909527424");
    (Common.Soft_lrp, "060f318213e6f042");
    (Common.Ni_lrp, "b5eae3e0a513b0d7");
    (Common.Early_demux, "af741b4169cf2f99");
    (Common.Napi, "bd37fbe22df3701f");
    (Common.Napi_gro, "bb87f18973dad3dc");
    (Common.Rss, "1e686cdadc43e29a") ]

let http_golden =
  [ (Common.Bsd, "faafce15f6fdf6eb"); (Common.Soft_lrp, "4e957ab9f26efb71") ]

let test_udp_golden () =
  List.iter
    (fun (sys, want) ->
      Alcotest.(check string)
        ("udp blast digest, " ^ Common.system_name sys)
        want (udp_blast sys))
    udp_golden

let test_http_golden () =
  List.iter
    (fun (sys, want) ->
      Alcotest.(check string)
        ("http+syn digest, " ^ Common.system_name sys)
        want (http_syn sys))
    http_golden

let suite =
  [ Alcotest.test_case "udp blast digests pinned on all 7 archs" `Quick
      test_udp_golden;
    Alcotest.test_case "http+syn flood digests pinned" `Quick test_http_golden ]
