(* Tests for the structured tracing subsystem and the kernel counters:
   ring-buffer semantics, sink well-formedness, the stage-latency report,
   and — most importantly — that tracing never perturbs simulation
   results. *)

open Lrp_trace
open Lrp_experiments

let clock = [| 0. |]

let make_tracer ?capacity () =
  clock.(0) <- 0.;
  let t = Trace.create ?capacity ~name:"test" ~clock () in
  Trace.set_enabled t true;
  t

(* --- ring buffer ------------------------------------------------------- *)

let test_ring_overwrite () =
  let t = make_tracer ~capacity:4 () in
  for i = 1 to 6 do
    clock.(0) <- float_of_int i;
    Trace.nic_rx t ~pkt:i ~bytes:100
  done;
  Alcotest.(check int) "length capped" 4 (Trace.length t);
  Alcotest.(check int) "overwritten" 2 (Trace.dropped t);
  let pkts =
    List.map
      (function
        | _, _, Trace.Nic_rx { pkt; _ } -> pkt
        | _ -> Alcotest.fail "unexpected event")
      (Trace.events t)
  in
  Alcotest.(check (list int)) "oldest overwritten first" [ 3; 4; 5; 6 ] pkts

let test_disabled_records_nothing () =
  let t = Trace.create ~name:"off" ~clock () in
  Trace.nic_rx t ~pkt:1 ~bytes:100;
  Trace.softint_begin t ~pkt:1;
  Trace.notef t "costly %d" (1 + 1);
  Alcotest.(check int) "disabled tracer stays empty" 0 (Trace.length t);
  let n = Trace.null () in
  Trace.nic_rx n ~pkt:1 ~bytes:100;
  Alcotest.(check int) "null tracer stays empty" 0 (Trace.length n)

let test_class_filter () =
  let t = make_tracer () in
  Trace.set_filter t [ Trace.Sched_events ];
  Trace.nic_rx t ~pkt:1 ~bytes:100;
  Trace.ctx_switch t ~from_pid:1 ~to_pid:2;
  Trace.note t "hello";
  Alcotest.(check int) "only sched recorded" 1 (Trace.length t);
  match Trace.events t with
  | [ (_, _, Trace.Ctx_switch _) ] -> ()
  | _ -> Alcotest.fail "expected the ctx-switch event only"

let test_event_ordering () =
  let t = make_tracer () in
  List.iter
    (fun ts ->
      clock.(0) <- ts;
      Trace.nic_rx t ~pkt:(int_of_float ts) ~bytes:14)
    [ 1.; 2.; 5.; 9. ];
  let stamps = List.map (fun (ts, _, _) -> ts) (Trace.events t) in
  Alcotest.(check (list (float 0.)))
    "events come back oldest-first" [ 1.; 2.; 5.; 9. ] stamps;
  let seqs = List.map (fun (_, seq, _) -> seq) (Trace.events t) in
  Alcotest.(check (list int)) "sequence numbers increase" [ 0; 1; 2; 3 ] seqs

(* --- sinks ------------------------------------------------------------- *)

let test_chrome_roundtrip () =
  let t = make_tracer () in
  clock.(0) <- 1.;
  Trace.nic_rx t ~pkt:7 ~bytes:42;
  Trace.intr_enter t ~level:Trace.Hard ~label:"rx-intr";
  clock.(0) <- 3.;
  Trace.intr_exit t ~level:Trace.Hard ~label:"rx-intr";
  Trace.demux t ~pkt:7 ~chan:2 ~flow:9000;
  clock.(0) <- 5.;
  Trace.sock_enqueue t ~pkt:7 ~sock:3;
  Trace.note t "with \"quotes\" and\nnewline";
  let buf = Buffer.create 256 in
  Trace.to_chrome buf t;
  match Json.parse (Buffer.contents buf) with
  | Error e -> Alcotest.fail ("chrome JSON does not parse: " ^ e)
  | Ok doc -> (
      match Json.member "traceEvents" doc with
      | Some (Json.Arr evs) ->
          Alcotest.(check bool) "has events" true (List.length evs > 0);
          List.iter
            (fun ev ->
              match (Json.member "ph" ev, Json.member "pid" ev) with
              | Some (Json.Str _), Some (Json.Num _) -> ()
              | _ -> Alcotest.fail "event missing ph/pid")
            evs
      | _ -> Alcotest.fail "no traceEvents array")

let test_chrome_spans_balanced_under_overwrite () =
  (* A ring that wrapped mid-span must not emit an unmatched "E". *)
  let t = make_tracer ~capacity:3 () in
  clock.(0) <- 1.;
  Trace.intr_enter t ~level:Trace.Soft ~label:"softnet";
  clock.(0) <- 2.;
  Trace.intr_exit t ~level:Trace.Soft ~label:"softnet";
  clock.(0) <- 3.;
  Trace.intr_enter t ~level:Trace.Soft ~label:"softnet";
  clock.(0) <- 4.;
  Trace.intr_exit t ~level:Trace.Soft ~label:"softnet";
  (* capacity 3: the first enter fell off; first event is now an exit *)
  Alcotest.(check int) "ring wrapped" 1 (Trace.dropped t);
  let buf = Buffer.create 256 in
  Trace.to_chrome buf t;
  match Json.parse (Buffer.contents buf) with
  | Error e -> Alcotest.fail ("chrome JSON does not parse: " ^ e)
  | Ok doc ->
      let evs =
        match Json.member "traceEvents" doc with
        | Some a -> Json.to_list a
        | None -> []
      in
      let count ph =
        List.length
          (List.filter
             (fun ev -> Json.member "ph" ev = Some (Json.Str ph))
             evs)
      in
      Alcotest.(check int) "balanced begin/end" (count "B") (count "E")

let test_csv_and_text () =
  let t = make_tracer () in
  Trace.nic_rx t ~pkt:1 ~bytes:14;
  Trace.note t "a,b\"c";
  let csv = Buffer.create 128 in
  Trace.to_csv csv t;
  let lines = String.split_on_char '\n' (String.trim (Buffer.contents csv)) in
  Alcotest.(check int) "header + one row per event" 3 (List.length lines);
  Alcotest.(check string)
    "header" "seq,ts_us,class,event,pkt,a,b,detail" (List.hd lines);
  let txt = Buffer.create 128 in
  Trace.to_text txt t;
  Alcotest.(check bool) "text mentions nic-rx" true
    (String.length (Buffer.contents txt) > 0)

(* --- JSON parser ------------------------------------------------------- *)

let test_json_parser () =
  (match Json.parse {| {"a": [1, 2.5, true, null, "x\ny"], "b": {}} |} with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("valid JSON rejected: " ^ e));
  (match Json.parse "[1, 2" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated JSON accepted");
  match Json.parse "{} trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted"

(* --- simulation integration ------------------------------------------- *)

let seed = Common.default_seed
let dur = Lrp_engine.Time.ms 150.

let check_point msg (a : Fig3.point) (b : Fig3.point) =
  Alcotest.(check (float 0.)) (msg ^ ": offered") a.Fig3.offered b.Fig3.offered;
  Alcotest.(check (float 0.))
    (msg ^ ": delivered") a.Fig3.delivered b.Fig3.delivered;
  Alcotest.(check int) (msg ^ ": discards") a.Fig3.discards b.Fig3.discards;
  Alcotest.(check int) (msg ^ ": ipq_drops") a.Fig3.ipq_drops b.Fig3.ipq_drops

let test_tracing_is_free_of_side_effects () =
  (* The same seeded run must produce bit-identical datapoints whether the
     tracer is recording or not: tracing observes, never perturbs. *)
  List.iter
    (fun sys ->
      let plain = Fig3.measure ~seed sys ~rate:9_000. ~duration:dur in
      let traced, tracer, _ =
        Fig3.measure_traced ~seed sys ~rate:9_000. ~duration:dur
      in
      check_point (Common.system_name sys) plain traced;
      Alcotest.(check bool)
        (Common.system_name sys ^ ": recorded events")
        true
        (Trace.length tracer > 0))
    [ Common.Bsd; Common.Ni_lrp ]

let test_jobs_determinism_with_tracing () =
  (* fig3-style sweep: fan the same traced tasks over 1 and 4 domains and
     require identical points (per-kernel tracers cannot race). *)
  let tasks =
    [ (Common.Bsd, 6_000.); (Common.Bsd, 12_000.); (Common.Ni_lrp, 6_000.);
      (Common.Ni_lrp, 12_000.) ]
  in
  let sweep jobs =
    Common.sweep ~jobs
      (fun i (sys, rate) ->
        let p, _, _ =
          Fig3.measure_traced
            ~seed:(Common.job_seed ~seed ~index:i)
            sys ~rate ~duration:dur
        in
        p)
      tasks
  in
  List.iter2 (check_point "jobs 1 vs 4") (sweep 1) (sweep 4)

let test_stage_latency_report () =
  let report sys =
    let _, tracer, _ = Fig3.measure_traced ~seed sys ~rate:8_000. ~duration:dur in
    (sys, Trace.Report.stage_latency (Trace.events tracer))
  in
  Test_experiments.holds
    (Fig3.stage_claims [ report Common.Bsd; report Common.Ni_lrp ])

let test_kernel_metrics_snapshot () =
  let _, _, snap = Fig3.measure_traced ~seed Common.Bsd ~rate:8_000. ~duration:dur in
  let get k =
    match List.assoc_opt k snap with
    | Some v -> v
    | None -> Alcotest.fail ("metric missing: " ^ k)
  in
  Alcotest.(check bool) "rx_frames counted" true (get "kernel.rx_frames" > 0.);
  Alcotest.(check bool)
    "deliveries counted" true
    (get "kernel.udp_delivered" > 0.);
  Alcotest.(check bool) "nic saw packets" true (get "nic.rx_packets" > 0.);
  Alcotest.(check bool)
    "cpu softint time accrued" true
    (get "cpu.time_soft_us" > 0.);
  (* The full name list of a BSD run, in order. *)
  Alcotest.(check (list string))
    "counter names, sorted"
    [ "cpu.ctx_switches"; "cpu.hard_dispatches"; "cpu.procs";
      "cpu.sched.loadavg"; "cpu.sched.runnable"; "cpu.sched.threads";
      "cpu.soft_dispatches"; "cpu.time_hard_us"; "cpu.time_idle_us";
      "cpu.time_soft_us"; "cpu.time_user_us"; "engine.timers_cancelled";
      "engine.timers_fired"; "engine.timers_scheduled"; "kernel.channels";
      "kernel.csum_drops"; "kernel.demux_drops"; "kernel.early_discards";
      "kernel.edemux_early_drops"; "kernel.forwarded"; "kernel.fwd_drops";
      "kernel.ipq_drops"; "kernel.ipq_hwm"; "kernel.ipq_len";
      "kernel.mbuf_drops"; "kernel.no_port_drops"; "kernel.rsts_sent";
      "kernel.rx_frames"; "kernel.rx_wrong_peer"; "kernel.tcp_delivered";
      "kernel.udp_delivered"; "nic.ifq_len"; "nic.rx_packets";
      "nic.rxq_drops"; "nic.rxq_kicks"; "nic.tx_bytes"; "nic.tx_drops";
      "nic.tx_packets"; "reasm.completed"; "reasm.pending";
      "reasm.timed_out"; "tcp.bytes_rcvd"; "tcp.bytes_sent";
      "tcp.retransmits"; "tcp.segs_rcvd"; "tcp.segs_sent";
      "tcp.syn_drops_backlog" ]
    (List.map fst snap);
  (* Added interfaces report under nic1, nic2, ... *)
  let open Lrp_net in
  let engine = Lrp_engine.Engine.create () in
  (* One cell: every network shares the first one's frame pool. *)
  let first = Fabric.create engine () in
  let fabric () = Fabric.create engine ~pool:(Fabric.pool first) () in
  let gw =
    Lrp_kernel.Kernel.create engine first ~name:"gw"
      ~ip:(Packet.ip_of_quad 10 0 0 1)
      (Lrp_kernel.Kernel.default_config Lrp_kernel.Kernel.Bsd)
  in
  List.iter
    (fun net ->
      ignore
        (Lrp_kernel.Kernel.add_interface gw (fabric ())
           ~ip:(Packet.ip_of_quad 10 0 net 1) ()))
    [ 1; 2 ];
  let nic_prefixes =
    List.sort_uniq compare
      (List.filter_map
         (fun (k, _) ->
           match String.split_on_char '.' k with
           | p :: _ when String.starts_with ~prefix:"nic" p -> Some p
           | _ -> None)
         (Lrp_kernel.Kernel.counters gw))
  in
  Alcotest.(check (list string))
    "one prefix per interface" [ "nic"; "nic1"; "nic2" ] nic_prefixes

let suite =
  [ Alcotest.test_case "ring overwrite" `Quick test_ring_overwrite;
    Alcotest.test_case "disabled records nothing" `Quick
      test_disabled_records_nothing;
    Alcotest.test_case "class filter" `Quick test_class_filter;
    Alcotest.test_case "event ordering" `Quick test_event_ordering;
    Alcotest.test_case "chrome JSON round-trips" `Quick test_chrome_roundtrip;
    Alcotest.test_case "chrome spans balanced after overwrite" `Quick
      test_chrome_spans_balanced_under_overwrite;
    Alcotest.test_case "csv and text sinks" `Quick test_csv_and_text;
    Alcotest.test_case "json parser" `Quick test_json_parser;
    Alcotest.test_case "kernel metrics snapshot" `Quick
      test_kernel_metrics_snapshot;
    Alcotest.test_case "tracing does not perturb results" `Quick
      test_tracing_is_free_of_side_effects;
    Alcotest.test_case "traced sweep: jobs 1 = jobs 4" `Quick
      test_jobs_determinism_with_tracing;
    Alcotest.test_case "stage-latency report (BSD vs NI-LRP)" `Quick
      test_stage_latency_report ]
