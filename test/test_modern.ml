(* The modern receiver back-ends (NAPI, NAPI-GRO, RSS) and the
   experiment built on them.

   - GRO is byte-stream-preserving: the application sees exactly the
     bytes plain NAPI would deliver, including under wire-level
     reorder / duplication / loss, and the trace oracle accounts every
     merged segment against a real arrival;
   - the overload detector discriminates NAPI from BSD: at a rate
     where BSD livelocks, a budgeted NAPI kernel is merely overloaded
     (poll cycles retired in ksoftirqd process context), while a
     pathologically high budget keeps polling at softirq level and
     livelock fires again;
   - RSS steering is a pure hash — stable across calls and spreading
     flows over the rings — and the modern experiment is byte-identical
     at any [--jobs];
   - the reorder experiment's inversion counter is correct. *)

open Lrp_engine
open Lrp_sim
open Lrp_net
open Lrp_kernel
open Lrp_workload
open Lrp_check
open Lrp_experiments
module Trace = Lrp_trace.Trace

(* --- inversion counting ------------------------------------------------- *)

let naive_inversions a =
  let n = Array.length a and c = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if a.(i) > a.(j) then incr c
    done
  done;
  !c

let test_count_inversions_unit () =
  let check name arr expect =
    Alcotest.(check int) name expect (Modern.count_inversions arr)
  in
  check "empty" [||] 0;
  check "sorted" [| 0; 1; 2; 3 |] 0;
  check "reversed" [| 3; 2; 1; 0 |] 6;
  check "one swap" [| 1; 0; 3; 2 |] 2;
  check "duplicates" [| 2; 2; 1 |] 2

let prop_count_inversions =
  QCheck.Test.make ~count:100 ~name:"modern: mergesort inversions = naive"
    QCheck.(list_of_size (QCheck.Gen.int_range 0 64) (int_range 0 32))
    (fun l ->
      let a = Array.of_list l in
      naive_inversions a = Modern.count_inversions (Array.copy a))

(* --- GRO byte-stream preservation --------------------------------------- *)

(* One UDP blast with wire faults, returning the application-level
   delivery sequence: per datagram, (packet ident relative to the first
   NIC arrival, payload length), in recv order.  Idents are normalised
   against the first arrival because the global ident counter differs
   between runs; the wire-side arrival stream itself is seed-determined
   and identical across architectures. *)
let udp_delivery_sequence ~arch ~seed ~faults =
  let cfg = Kernel.default_config arch in
  let w, client, server = World.pair ~seed ~cfg () in
  let tr = Kernel.tracer server in
  Trace.set_enabled tr true;
  Trace.set_filter tr [ Trace.Packet_events ];
  Fabric.set_link_faults (World.fabric w) ~ip:(Kernel.ip_address server) faults;
  let got = ref [] in
  ignore
    (Cpu.spawn (Kernel.cpu server) ~name:"collect" (fun self ->
         let sock = Api.socket_dgram () in
         Api.bind server sock ~owner:(Some self) ~port:9000;
         let dg = Api.dgram () in
         let rec loop () =
           Api.recvfrom server sock dg;
           got :=
             (dg.Api.dg_pkt, Payload.length dg.Api.dg_payload) :: !got;
           loop ()
         in
         try loop () with Api.Socket_closed -> ()));
  ignore
    (Blast.start_source (World.engine w) (Kernel.nic client)
       ~src:(Kernel.ip_address client)
       ~dst:(Kernel.ip_address server, 9000)
       ~rate:3_000. ~size:64 ~until:(Time.ms 100.) ());
  (* Slack past the send window so reorder-held frames flush. *)
  World.run w ~until:(Time.ms 160.);
  let v = Oracle.check_tracer ~require_demux:false tr in
  let first_arrival =
    List.find_map
      (function _, _, Trace.Nic_rx e -> Some e.pkt | _ -> None)
      (Trace.events tr)
  in
  let base = match first_arrival with Some p -> p | None -> 0 in
  let seq =
    List.rev_map
      (fun (pkt, len) -> ((pkt - base) land 0xffff, len))
      !got
  in
  (seq, v)

let prop_gro_udp_stream =
  QCheck.Test.make ~count:12
    ~name:"modern: NAPI-GRO delivers NAPI's exact datagram sequence"
    QCheck.(
      quad small_int (int_range 0 10) (int_range 0 10) (int_range 0 10))
    (fun (seed, loss_pct, dup_pct, reorder_pct) ->
      let faults =
        Fabric.Faults.make
          ~loss:(float_of_int loss_pct /. 100.)
          ~dup:(float_of_int dup_pct /. 100.)
          ~reorder:(float_of_int reorder_pct /. 100.)
          ~reorder_span:6 ()
      in
      let seq_napi, v_napi =
        udp_delivery_sequence ~arch:Kernel.Napi ~seed ~faults
      in
      let seq_gro, v_gro =
        udp_delivery_sequence ~arch:Kernel.Napi_gro ~seed ~faults
      in
      if not v_napi.Oracle.ok then
        QCheck.Test.fail_reportf "NAPI oracle: %a" Oracle.pp_verdict v_napi;
      if not v_gro.Oracle.ok then
        QCheck.Test.fail_reportf "GRO oracle: %a" Oracle.pp_verdict v_gro;
      if seq_napi = [] then QCheck.Test.fail_report "no datagrams delivered";
      seq_napi = seq_gro)

(* TCP: GRO really merges here (payloads glued, checksum recomputed), so
   stream integrity is the load-bearing check.  Under a random fault
   script both kernels must surface a prefix of the sent stream, and a
   completed transfer must match byte for byte. *)
let tcp_run ?(tune = fun c -> c) ~arch ~seed ~bytes () =
  let cfg = tune (Kernel.default_config arch) in
  let w, client, server = World.pair ~cfg () in
  let tr = Kernel.tracer server in
  Trace.set_enabled tr true;
  Trace.set_filter tr [ Trace.Packet_events ];
  let script = Fault_script.generate ~seed ~duration_us:(Time.sec 1.) in
  Fault_script.apply script ~fabric:(World.fabric w) ~engine:(World.engine w);
  let received = Buffer.create bytes in
  let done_at = ref None in
  ignore
    (Cpu.spawn (Kernel.cpu server) ~name:"rx" (fun self ->
         let lsock = Api.socket_stream server in
         Api.tcp_listen server ~self lsock ~port:5001 ~backlog:4;
         let conn = Api.tcp_accept server ~self lsock in
         let rec drain () =
           match Api.tcp_recv server conn ~max:65_536 with
           | `Data p ->
               Buffer.add_bytes received (Payload.to_bytes p);
               drain ()
           | `Eof -> ()
         in
         drain ();
         Api.close server conn;
         done_at := Some (Engine.now (World.engine w))));
  let data =
    Bytes.init bytes (fun i -> Char.chr ((i * 131 + (i lsr 8) * 17) land 0xff))
  in
  ignore
    (Cpu.spawn (Kernel.cpu client) ~name:"tx" (fun self ->
         let sock = Api.socket_stream client in
         match
           Api.tcp_connect client ~self sock
             ~remote:(Kernel.ip_address server, 5001)
         with
         | `Refused -> ()
         | `Ok ->
             ignore (Api.tcp_send client sock (Payload.of_bytes data));
             Api.close client sock));
  World.run w ~until:(Time.sec 30.);
  let v = Oracle.check_tracer ~require_demux:false tr in
  let merges =
    List.fold_left
      (fun n -> function _, _, Trace.Gro_merge _ -> n + 1 | _ -> n)
      0 (Trace.events tr)
  in
  (Bytes.to_string data, Buffer.contents received, !done_at, v, merges)

let is_prefix ~full s =
  String.length s <= String.length full
  && String.equal (String.sub full 0 (String.length s)) s

let prop_gro_tcp_stream =
  QCheck.Test.make ~count:6
    ~name:"modern: GRO-merged TCP stream intact under fault scripts"
    QCheck.small_int
    (fun seed ->
      List.for_all
        (fun arch ->
          let sent, received, done_at, v, _ =
            tcp_run ~arch ~seed ~bytes:20_000 ()
          in
          if not v.Oracle.ok then
            QCheck.Test.fail_reportf "%s oracle: %a" (Kernel.arch_name arch)
              Oracle.pp_verdict v;
          if not (is_prefix ~full:sent received) then
            QCheck.Test.fail_reportf "%s: received not a prefix of sent"
              (Kernel.arch_name arch);
          if done_at <> None && not (String.equal sent received) then
            QCheck.Test.fail_reportf "%s: completed but bytes differ"
              (Kernel.arch_name arch);
          true)
        [ Kernel.Napi; Kernel.Napi_gro ])

(* A clean-fabric bulk transfer must actually aggregate.  GRO trains
   form from what one poll batch holds, and — as on real NICs — batches
   only grow past one frame when interrupt moderation holds the IRQ
   across several arrivals, so the test turns the coalescing knobs up.
   The oracle checks each merge against an arrival. *)
let test_gro_merges_on_bulk () =
  let tune c =
    { c with Kernel.coalesce_pkts = 16; Kernel.coalesce_us = 500. }
  in
  let sent, received, done_at, v, merges =
    tcp_run ~tune ~arch:Kernel.Napi_gro ~seed:1_000_000 ~bytes:200_000 ()
  in
  Alcotest.(check bool) "oracle ok" true v.Oracle.ok;
  Alcotest.(check bool) "transfer completed" true (done_at <> None);
  Alcotest.(check string) "stream intact" sent received;
  Alcotest.(check bool)
    (Printf.sprintf "segments were merged (%d)" merges)
    true (merges > 0)

(* --- detector discrimination -------------------------------------------- *)

(* One 600 ms blast point at [rate], returning the delivered count and
   the detector report. *)
let overload_point ~arch ~rate ?(budget = 64) () =
  let cfg = { (Kernel.default_config arch) with Kernel.napi_budget = budget } in
  let w, client, server = World.pair ~seed:42 ~cfg () in
  let det = Overload.attach server in
  let sink = Blast.start_sink server ~port:9000 () in
  let until = Time.ms 600. in
  ignore
    (Blast.start_source (World.engine w) (Kernel.nic client)
       ~src:(Kernel.ip_address client)
       ~dst:(Kernel.ip_address server, 9000)
       ~rate ~size:14 ~until ());
  World.run w ~until;
  (sink.Blast.received, Overload.report det)

let test_detector_discrimination () =
  let rate = 20_000. in
  let bsd_recv, bsd = overload_point ~arch:Kernel.Bsd ~rate () in
  let napi_recv, napi = overload_point ~arch:Kernel.Napi ~rate () in
  let path_recv, path =
    overload_point ~arch:Kernel.Napi ~rate ~budget:1_000_000 ()
  in
  (* BSD: the classic receive livelock, interrupt share pinned. *)
  Alcotest.(check bool) "BSD livelocks" true (bsd.Overload.livelock_windows > 0);
  Alcotest.(check bool) "BSD collapses" true (bsd_recv < napi_recv / 4);
  (* Budgeted NAPI: overloaded (it sheds), but poll cycles retire in
     ksoftirqd process context, so no livelock verdict — and the poll
     ledger shows where the cycles went. *)
  Alcotest.(check int) "NAPI budget=64 never livelocked" 0
    napi.Overload.livelock_windows;
  Alcotest.(check bool) "NAPI overloaded (shedding, not dead)" true
    (napi.Overload.overload_windows > 0);
  Alcotest.(check bool) "NAPI sustains a plateau" true (napi_recv > 3_000);
  Alcotest.(check bool) "NAPI poll share visible" true
    (napi.Overload.peak_poll_share > 0.5);
  (* Pathological budget: the episode never reaches it, polling never
     leaves softirq level, and the detector reads it as BSD-style
     livelock — but the poll loop still retires a trickle. *)
  Alcotest.(check bool) "huge budget livelocks again" true
    (path.Overload.livelock_windows > 0);
  Alcotest.(check bool) "huge budget: bounded collapse, not zero" true
    (path_recv > 0 && path_recv < napi_recv / 2)

(* --- RSS ----------------------------------------------------------------- *)

let test_rss_steer_stable () =
  let mk i =
    Packet.udp ~src:(0x0a00_0001 + (i land 1)) ~dst:0x0a00_0002
      ~src_port:(2_000 + i) ~dst_port:9_000
      (Payload.synthetic 64)
  in
  let flows = List.init 64 mk in
  let pool = Parena.create () in
  let steer p = Kernel.rss_steer pool (Parena.copy_in pool p) ~queues:4 in
  let a = List.map steer flows and b = List.map steer flows in
  Alcotest.(check (list int)) "steering is a pure function" a b;
  List.iter
    (fun q -> Alcotest.(check bool) "queue id in range" true (q >= 0 && q < 4))
    a;
  let used = List.sort_uniq compare a in
  Alcotest.(check bool)
    (Printf.sprintf "64 flows spread over %d/4 queues" (List.length used))
    true
    (List.length used >= 3);
  (* Same-flow packets must stay on one ring (per-flow FIFO). *)
  let p1 = mk 7 and p2 = mk 7 in
  Alcotest.(check int) "same flow, same queue" (steer p1) (steer p2)

(* The experiment itself is deterministic at any [--jobs] (same rows,
   same reorder points, byte for byte), and at quick scale every claim it
   makes holds. *)
let test_modern_jobs_identical () =
  let r1 = Modern.run ~quick:true ~jobs:1 () in
  let r4 = Modern.run ~quick:true ~jobs:4 () in
  Alcotest.(check bool) "throughput rows identical at jobs 1 vs 4" true
    (r1 = r4);
  let p1 = Modern.run_reorder ~quick:true ~jobs:1 () in
  let p4 = Modern.run_reorder ~quick:true ~jobs:4 () in
  Alcotest.(check bool) "reorder points identical at jobs 1 vs 4" true
    (p1 = p4);
  Test_experiments.holds (Modern.claims r1 p1)

let suite =
  [ Alcotest.test_case "inversion counter unit cases" `Quick
      test_count_inversions_unit;
    QCheck_alcotest.to_alcotest prop_count_inversions;
    QCheck_alcotest.to_alcotest prop_gro_udp_stream;
    QCheck_alcotest.to_alcotest prop_gro_tcp_stream;
    Alcotest.test_case "GRO merges on clean bulk transfer" `Slow
      test_gro_merges_on_bulk;
    Alcotest.test_case "detector separates NAPI from BSD livelock" `Slow
      test_detector_discrimination;
    Alcotest.test_case "RSS steering is stable and spreads flows" `Quick
      test_rss_steer_stable;
    Alcotest.test_case "modern experiment byte-identical at any --jobs" `Slow
      test_modern_jobs_identical ]
