(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (section 4), the MLFRR measurement, and the design-choice
   ablations; `micro` additionally runs Bechamel microbenchmarks of the
   simulator's hot paths.

   Usage:
     dune exec bench/main.exe                    # everything, full scale
     dune exec bench/main.exe -- --quick         # everything, reduced scale
     dune exec bench/main.exe -- table1 fig3     # a subset
     dune exec bench/main.exe -- --jobs 4        # fan simulations over 4 domains
     dune exec bench/main.exe -- --json out.json # also dump every datapoint
     dune exec bench/main.exe -- micro           # Bechamel microbenchmarks

   Results are independent of --jobs: every simulation runs in its own
   engine seeded deterministically from the root seed and its job index. *)

open Lrp_experiments

let quick = ref false
let jobs = ref (Domain.recommended_domain_count ())
let json_path = ref None
let baseline_out = ref "BENCH_10.json"
let seed = Common.default_seed

(* JSON output goes through the trace library's emitter; integers are
   exact floats, which it prints without a fraction.                    *)

type json = Lrp_trace.Json.t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let int i = Num (float_of_int i)
let json_to_string = Lrp_trace.Json.to_string

(* ------------------------------------------------------------------ *)
(* Paper experiments.  Each bench prints its human-readable output and
   returns the underlying datapoints as JSON.                           *)
(* ------------------------------------------------------------------ *)

let sysname = Common.system_name

let bench_table1 () =
  let rows = Table1.run ~quick:!quick ~jobs:!jobs ~seed () in
  Table1.print rows;
  Arr
    (List.map
       (fun r ->
         Obj
           [ ("system", Str (sysname r.Table1.system));
             ("rtt_us", Num r.Table1.rtt_us);
             ("udp_mbps", Num r.Table1.udp_mbps);
             ("tcp_mbps", Num r.Table1.tcp_mbps) ])
       rows)

let bench_fig3 () =
  let rows = Fig3.run ~quick:!quick ~jobs:!jobs ~seed () in
  Fig3.print rows;
  Arr
    (List.map
       (fun r ->
         Obj
           [ ("system", Str (sysname r.Fig3.system));
             ( "points",
               Arr
                 (List.map
                    (fun p ->
                      Obj
                        [ ("offered", Num p.Fig3.offered);
                          ("delivered", Num p.Fig3.delivered);
                          ("discards", int p.Fig3.discards);
                          ("ipq_drops", int p.Fig3.ipq_drops) ])
                    r.Fig3.points) ) ])
       rows)

let bench_modern () =
  let rows = Modern.run ~quick:!quick ~jobs:!jobs ~seed () in
  Modern.print rows;
  let reorder = Modern.run_reorder ~quick:!quick ~jobs:!jobs ~seed () in
  Modern.print_reorder reorder;
  Obj
    [ ( "throughput",
        Arr
          (List.map
             (fun r ->
               Obj
                 [ ("system", Str (sysname r.Modern.system));
                   ( "points",
                     Arr
                       (List.map
                          (fun p ->
                            Obj
                              [ ("offered", Num p.Fig3.offered);
                                ("delivered", Num p.Fig3.delivered);
                                ("discards", int p.Fig3.discards);
                                ("ipq_drops", int p.Fig3.ipq_drops) ])
                          r.Modern.points) ) ])
             rows) );
      ( "coalesce_reorder",
        Arr
          (List.map
             (fun p ->
               Obj
                 [ ("coalesce_us", Num p.Modern.coalesce_us);
                   ("fabric_faults", Bool p.Modern.fabric_faults);
                   ("observed", int p.Modern.observed);
                   ("inversions", int p.Modern.inversions);
                   ("per_kpkt", Num p.Modern.per_kpkt) ])
             reorder) ) ]

let bench_mlfrr () =
  let rows =
    Fig3.mlfrr_all ~quick:!quick ~jobs:!jobs ~seed
      [ Common.Bsd; Common.Soft_lrp; Common.Ni_lrp ]
  in
  Fig3.print_mlfrr rows;
  Arr
    (List.map
       (fun (sys, rate) ->
         Obj [ ("system", Str (sysname sys)); ("mlfrr", Num rate) ])
       rows)

let bench_fig4 () =
  let rows = Fig4.run ~quick:!quick ~jobs:!jobs ~seed () in
  Fig4.print rows;
  Arr
    (List.map
       (fun r ->
         Obj
           [ ("system", Str (sysname r.Fig4.system));
             ( "points",
               Arr
                 (List.map
                    (fun p ->
                      Obj
                        [ ("bg_rate", Num p.Fig4.bg_rate);
                          ("rtt_us", Num p.Fig4.rtt_us);
                          ("rtt_mean", Num p.Fig4.rtt_mean);
                          ("rtt_p99", Num p.Fig4.rtt_p99);
                          ("probes", int p.Fig4.probes);
                          ("lost", int p.Fig4.lost) ])
                    r.Fig4.points) ) ])
       rows)

let bench_table2 () =
  let rows = Table2.run ~quick:!quick ~jobs:!jobs ~seed () in
  Table2.print rows;
  Arr
    (List.map
       (fun r ->
         Obj
           [ ("system", Str (sysname r.Table2.system));
             ("class", Str (Lrp_workload.Rpc.cls_name r.Table2.cls));
             ("worker_elapsed_s", Num r.Table2.worker_elapsed_s);
             ("rpcs_per_sec", Num r.Table2.rpcs_per_sec);
             ("worker_share", Num r.Table2.worker_share) ])
       rows)

let bench_fig5 () =
  let rows = Fig5.run ~quick:!quick ~jobs:!jobs ~seed () in
  Fig5.print rows;
  Arr
    (List.map
       (fun r ->
         Obj
           [ ("system", Str (sysname r.Fig5.system));
             ( "points",
               Arr
                 (List.map
                    (fun p ->
                      Obj
                        [ ("syn_rate", Num p.Fig5.syn_rate);
                          ("http_per_sec", Num p.Fig5.http_per_sec);
                          ("failed", int p.Fig5.failed);
                          ("syn_discards", int p.Fig5.syn_discards) ])
                    r.Fig5.points) ) ])
       rows)

let bench_ablate_discard () =
  let rows = Ablations.discard ~jobs:!jobs ~seed () in
  Ablations.print_discard rows;
  Arr
    (List.map
       (fun r ->
         Obj
           [ ("bounded", Bool r.Ablations.bounded);
             ("delivered", Num r.Ablations.delivered);
             ("discards", int r.Ablations.discards);
             ("backlog", int r.Ablations.backlog);
             ("queue_delay_ms", Num r.Ablations.queue_delay_ms) ])
       rows)

let bench_ablate_accounting () =
  let rows = Ablations.accounting ~jobs:!jobs ~seed () in
  Ablations.print_accounting rows;
  Arr
    (List.map
       (fun r ->
         Obj
           [ ("fair", Bool r.Ablations.fair);
             ("hog_progress", Num r.Ablations.hog_progress);
             ("receiver_share", Num r.Ablations.receiver_share);
             ("receiver_billed", Num r.Ablations.receiver_billed) ])
       rows)

let bench_accounting () =
  let r = Accounting.run ~quick:!quick ~jobs:!jobs ~seed () in
  Accounting.print r;
  let module Overload = Lrp_check.Overload in
  Obj
    [ ( "ledger",
        Arr
          (List.map
             (fun (a : Accounting.arch_row) ->
               Obj
                 [ ("system", Str (sysname a.Accounting.system));
                   ("offered", int a.Accounting.offered);
                   ("delivered", int a.Accounting.delivered);
                   ("intr_total_us", Num a.Accounting.intr_total);
                   ("mischarged_us", Num a.Accounting.mischarged);
                   ("victim_mis_us", Num a.Accounting.victim_mis);
                   ("receiver_proto_us", Num a.Accounting.receiver_proto);
                   ("app_total_us", Num a.Accounting.app_total) ])
             r.Accounting.arch_rows) );
      ( "detector",
        Arr
          (List.map
             (fun (d : Accounting.det_row) ->
               let rep = d.Accounting.d_report in
               Obj
                 [ ("system", Str (sysname d.Accounting.d_system));
                   ("rate", Num d.Accounting.d_rate);
                   ("offered", int d.Accounting.d_offered);
                   ("delivered", int d.Accounting.d_delivered);
                   ("windows", int rep.Overload.samples);
                   ("judged", int rep.Overload.judged);
                   ("overload_windows", int rep.Overload.overload_windows);
                   ("livelock_windows", int rep.Overload.livelock_windows);
                   ("starved_windows", int rep.Overload.starved_windows);
                   ("worst_delivery", Num rep.Overload.worst_delivery);
                   ("peak_intr_share", Num rep.Overload.peak_intr_share);
                   ("ipq_hwm", int rep.Overload.ipq_hwm);
                   ("chan_hwm", int rep.Overload.chan_hwm);
                   ("sock_hwm", int rep.Overload.sock_hwm) ])
             r.Accounting.det_rows) ) ]

let bench_ablate_demux () =
  let rows = Ablations.demux_cost ~jobs:!jobs ~seed () in
  Ablations.print_demux_cost rows;
  Arr
    (List.map
       (fun r ->
         Obj
           [ ("demux_us", Num r.Ablations.demux_us);
             ("delivered", Num r.Ablations.delivered) ])
       rows)

(* Extension (paper section 3.5): an IP gateway under transit flood.
   Each (rate, architecture) cell is an independent simulation, so the
   grid fans out over the domain pool like the paper experiments. *)
let bench_gateway () =
  let open Lrp_engine in
  let open Lrp_net in
  let open Lrp_kernel in
  let open Lrp_workload in
  let measure ~seed arch rate =
    let engine = Engine.create ~seed () in
    let net_a = Fabric.create engine () in
    let net_b = Fabric.create engine () in
    let cfg = Kernel.default_config arch in
    let gw_cfg = { cfg with Kernel.forwarding = true } in
    let client =
      Kernel.create engine net_a ~name:"client"
        ~ip:(Packet.ip_of_quad 10 0 0 10) cfg
    in
    let gw =
      Kernel.create engine net_a ~name:"gw"
        ~ip:(Packet.ip_of_quad 10 0 0 1) gw_cfg
    in
    ignore (Kernel.add_interface gw net_b ~ip:(Packet.ip_of_quad 10 0 1 1) ());
    let server =
      Kernel.create engine net_b ~name:"server"
        ~ip:(Packet.ip_of_quad 10 0 1 20) cfg
    in
    Fabric.set_default_gateway net_a ~ip:(Packet.ip_of_quad 10 0 0 1);
    Fabric.set_default_gateway net_b ~ip:(Packet.ip_of_quad 10 0 1 1);
    let app = Spinner.start (Kernel.cpu gw) ~nice:0 ~name:"local-app" () in
    ignore (Blast.start_sink server ~port:9000 ());
    ignore
      (Blast.start_source engine (Kernel.nic client)
         ~src:(Kernel.ip_address client)
         ~dst:(Kernel.ip_address server, 9000)
         ~rate ~size:14 ~until:(Time.sec 1.) ());
    Engine.run engine ~until:(Time.sec 1.);
    (float_of_int (Kernel.stats gw).Kernel.forwarded,
     Lrp_sim.Proc.cpu_time app /. Time.sec 1.)
  in
  let rates = [ 2_000.; 8_000.; 14_000.; 20_000. ] in
  let tasks =
    List.concat_map
      (fun rate -> [ (rate, Kernel.Bsd); (rate, Kernel.Soft_lrp) ])
      rates
  in
  let cells =
    Common.sweep ~jobs:!jobs
      (fun i (rate, arch) ->
        measure ~seed:(Common.job_seed ~seed ~index:i) arch rate)
      tasks
  in
  let cell rate arch =
    let rec find ts cs =
      match (ts, cs) with
      | (r, a) :: _, v :: _ when r = rate && a = arch -> v
      | _ :: ts, _ :: cs -> find ts cs
      | _ -> assert false
    in
    find tasks cells
  in
  Common.print_title
    "Extension: IP gateway under transit flood (section 3.5)";
  Printf.printf "  %-14s %12s %12s %16s\n" "rate (pkts/s)" "BSD fwd/s"
    "LRP fwd/s" "LRP local share";
  let rows =
    List.map
      (fun rate ->
        let bsd_fwd, _ = cell rate Kernel.Bsd in
        let lrp_fwd, lrp_share = cell rate Kernel.Soft_lrp in
        Printf.printf "  %-14.0f %12.0f %12.0f %15.1f%%\n" rate bsd_fwd
          lrp_fwd (100. *. lrp_share);
        Obj
          [ ("rate", Num rate); ("bsd_fwd_per_sec", Num bsd_fwd);
            ("lrp_fwd_per_sec", Num lrp_fwd);
            ("lrp_local_share", Num lrp_share) ])
      rates
  in
  Printf.printf
    "\n  BSD forwards at softint priority (and livelocks, taking local\n\
    \  processes with it); LRP's forwarding daemon shares the CPU like any\n\
    \  process.\n";
  Arr rows

(* Observability: trace one fig3 point per architecture with the server
   kernel's structured tracer on, and report the per-packet stage-latency
   breakdown plus the full metrics snapshot.  The paper's architectural
   claim shows up directly: BSD spends its protocol time in
   ["softint-proto"] (software-interrupt context), LRP moves it to
   ["proc-proto"] (receiver's own context, charged to it). *)
let bench_trace () =
  let open Lrp_trace in
  let module S = Lrp_stats.Stats.Samples in
  Common.print_title
    "Trace: per-packet stage latency (fig3 point, tracing enabled)";
  let duration =
    if !quick then Lrp_engine.Time.ms 200. else Lrp_engine.Time.ms 500.
  in
  let rate = 8_000. in
  let rows =
    List.map
      (fun sys ->
        let point, tracer, metrics =
          Fig3.measure_traced ~seed sys ~rate ~duration
        in
        let report = Trace.Report.stage_latency (Trace.events tracer) in
        Printf.printf
          "\n  [%s] offered %.0f p/s, delivered %.0f p/s; %d events \
           buffered (%d overwritten)\n"
          (sysname sys) point.Fig3.offered point.Fig3.delivered
          (Trace.length tracer) (Trace.dropped tracer);
        Format.printf "%a@." Trace.Report.pp report;
        let stage_json (name, s) =
          Obj
            [ ("stage", Str name); ("count", int (S.count s));
              ("mean_us", Num (S.mean s));
              ("p50_us", Num (S.percentile s 50.));
              ("p99_us", Num (S.percentile s 99.)) ]
        in
        Obj
          [ ("system", Str (sysname sys));
            ("offered", Num point.Fig3.offered);
            ("delivered", Num point.Fig3.delivered);
            ("packets", int report.Trace.Report.packets);
            ("events", int (Trace.length tracer));
            ("overwritten", int (Trace.dropped tracer));
            ("stages", Arr (List.map stage_json report.Trace.Report.stages));
            ( "metrics",
              Obj (List.map (fun (k, v) -> (k, Num v)) metrics) ) ])
      [ Common.Bsd; Common.Soft_lrp; Common.Ni_lrp ]
  in
  Arr rows

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks of the hot paths                            *)
(* ------------------------------------------------------------------ *)

let micro_tests () =
  let open Bechamel in
  let open Lrp_engine in
  let open Lrp_net in
  let open Lrp_proto in
  let pkt =
    Packet.udp ~src:(Packet.ip_of_quad 10 0 0 1)
      ~dst:(Packet.ip_of_quad 10 0 0 2) ~src_port:1234 ~dst_port:80
      (Payload.synthetic 14)
  in
  let bytes = Codec.encode pkt in
  let chan = Lrp_core.Channel.create ~limit:64 ~name:"bench" () in
  let heap = Eheap.create () in
  let rng = Rng.create 1 in
  let sched = Lrp_sched.Sched.create ~clock:[| 0. |] in
  let threads =
    List.init 8 (fun i ->
        let th =
          Lrp_sched.Sched.add_thread sched ~name:(Printf.sprintf "t%d" i) ()
        in
        Lrp_sched.Sched.make_runnable sched th;
        th)
  in
  let tab = Lrp_core.Chantab.create () in
  Lrp_core.Chantab.add_udp tab ~port:80
    (Lrp_core.Channel.create ~name:"u80" ());
  (* Engine hot path: slot-table recycling means the schedule/fire cycle
     reuses one event record at steady state. *)
  let engine = Engine.create () in
  (* Periodic re-arm: one handle is kept alive forever; each step fires
     the thunk which reschedules itself via the same handle. *)
  let rearm_engine = Engine.create () in
  let rearm_handle = ref None in
  let rearm_tick () =
    match !rearm_handle with
    | Some h -> Engine.reschedule_after rearm_engine h ~delay:1.0
    | None -> ()
  in
  let () =
    rearm_handle := Some (Engine.schedule_after rearm_engine ~delay:1.0 rearm_tick)
  in
  (* Typed fast path: the dispatcher is registered once; each event stores
     only (target id, argument) in the slot table — no closure, so the
     steady-state schedule/fire cycle allocates zero minor words. *)
  let typed_engine = Engine.create () in
  let typed_sink = ref 0 in
  let typed_tgt = Engine.target typed_engine (fun v -> typed_sink := v) in
  (* Capturing-thunk counterpart: the same work expressed as a closure
     over [v], paying one closure allocation per event. *)
  let thunk_engine = Engine.create () in
  let thunk_sink = ref 0 in
  (* Timer churn, the dominant TCP pattern: schedule two timers, cancel
     one before it fires.  The wheel drops the cancelled entry in O(1) at
     bucket-pour time; a pure heap pays the sift on the way in and again
     when the dead entry reaches the top. *)
  let churn_wheel = Engine.create () in
  let churn_heap = Engine.create ~pure_heap:true () in
  let churn eng () =
    ignore (Engine.schedule_after eng ~delay:50. ignore);
    let b = Engine.schedule_after eng ~delay:100. ignore in
    Engine.cancel eng b;
    ignore (Engine.step eng);
    ignore (Engine.step eng)
  in
  (* Fabric delivery with and without a configured (but all-zero) fault
     state: the cost of the fault-injection guard on the fault-free path. *)
  let fab_pair ~faults =
    let eng = Engine.create () in
    let fab = Fabric.create eng () in
    let a = Fabric.make_nic fab ~name:"a" ~ip:(Packet.ip_of_quad 10 0 0 1) () in
    let b = Fabric.make_nic fab ~name:"b" ~ip:(Packet.ip_of_quad 10 0 0 2) () in
    Nic.set_rx_handler a ignore;
    Nic.set_rx_handler b ignore;
    if faults then Fabric.set_faults fab Fabric.Faults.none;
    let fpkt =
      Packet.udp ~src:(Nic.ip a) ~dst:(Nic.ip b) ~src_port:1234 ~dst_port:80
        (Payload.synthetic 64)
    in
    fun () ->
      Fabric.forward fab fpkt;
      ignore (Engine.step eng)
  in
  let fab_plain = fab_pair ~faults:false in
  let fab_zero = fab_pair ~faults:true in
  [ Test.make ~name:"demux/flow_of_packet (hot path)"
      (Staged.stage (fun () -> ignore (Demux.flow_of_packet pkt)));
    Test.make ~name:"demux/flow_of_bytes (NI firmware form)"
      (Staged.stage (fun () -> ignore (Demux.flow_of_bytes bytes)));
    Test.make ~name:"chantab/resolve"
      (Staged.stage
         (let flow = Demux.flow_of_packet pkt in
          fun () -> ignore (Lrp_core.Chantab.resolve tab flow)));
    Test.make ~name:"codec/encode"
      (Staged.stage (fun () -> ignore (Codec.encode pkt)));
    Test.make ~name:"codec/decode"
      (Staged.stage (fun () -> ignore (Codec.decode bytes)));
    Test.make ~name:"channel/enqueue+dequeue"
      (Staged.stage (fun () ->
           ignore (Lrp_core.Channel.enqueue chan pkt);
           ignore (Lrp_core.Channel.dequeue chan)));
    Test.make ~name:"eheap/add+pop"
      (Staged.stage (fun () ->
           Eheap.add heap ~key:(Rng.uniform rng) 0;
           ignore (Eheap.pop heap)));
    Test.make ~name:"engine/schedule+fire (slot reuse)"
      (Staged.stage (fun () ->
           ignore (Engine.schedule_after engine ~delay:1.0 ignore);
           ignore (Engine.step engine)));
    Test.make ~name:"engine/periodic re-arm (reschedule_after)"
      (Staged.stage (fun () -> ignore (Engine.step rearm_engine)));
    Test.make ~name:"engine/schedule_to+fire (typed target)"
      (Staged.stage (fun () ->
           ignore
             (Engine.schedule_to_after typed_engine ~delay:1.0 typed_tgt 7);
           ignore (Engine.step typed_engine)));
    Test.make ~name:"engine/schedule+fire (capturing thunk)"
      (Staged.stage (fun () ->
           let v = !thunk_sink + 1 in
           ignore
             (Engine.schedule_after thunk_engine ~delay:1.0 (fun () ->
                  thunk_sink := v));
           ignore (Engine.step thunk_engine)));
    Test.make ~name:"engine/timer churn (wheel)"
      (Staged.stage (churn churn_wheel));
    Test.make ~name:"engine/timer churn (pure heap)"
      (Staged.stage (churn churn_heap));
    Test.make ~name:"sched/pick (8 runnable)"
      (Staged.stage (fun () -> ignore (Lrp_sched.Sched.pick sched)));
    Test.make ~name:"sched/charge_tick"
      (Staged.stage
         (let th = List.hd threads in
          fun () -> Lrp_sched.Sched.charge_tick sched th));
    Test.make ~name:"packet/content checksum verify"
      (Staged.stage (fun () -> ignore (Packet.verify pkt)));
    Test.make ~name:"fabric/forward+deliver (no fault state)"
      (Staged.stage fab_plain);
    Test.make ~name:"fabric/forward+deliver (Faults.none configured)"
      (Staged.stage fab_zero);
    Test.make ~name:"rng/bits64"
      (Staged.stage (fun () -> ignore (Rng.bits64 rng))) ]

(* Measure one Bechamel test; returns (name, ns/run, minor words/run). *)
let measure_micro test =
  let open Bechamel in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~stabilize:true ()
  in
  let instances =
    [ Toolkit.Instance.monotonic_clock; Toolkit.Instance.minor_allocated ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results =
    Benchmark.all cfg instances (Test.make_grouped ~name:"g" [ test ])
  in
  let estimate instance =
    let analysed = Analyze.all ols instance results in
    Lrp_det.Det.fold_sorted
      (fun _name est acc ->
        match Analyze.OLS.estimates est with
        | Some [ v ] -> Some v
        | Some _ | None -> acc)
      analysed None
  in
  let ns = estimate Toolkit.Instance.monotonic_clock in
  let words = estimate Toolkit.Instance.minor_allocated in
  let name =
    (* the single test inside the group carries the real name *)
    match Test.elements test with
    | [ e ] -> Test.Elt.name e
    | _ -> "?"
  in
  (name, Option.value ns ~default:nan, Option.value words ~default:nan)

let bench_micro () =
  Common.print_title "Microbenchmarks (Bechamel, per run)";
  Printf.printf "  %-44s %12s %14s\n" "" "time" "minor alloc";
  let rows =
    List.map
      (fun test ->
        let name, ns, words = measure_micro test in
        Printf.printf "  %-44s %9.1f ns %8.1f words\n" name ns words;
        Obj
          [ ("name", Str name);
            ("ns_per_run", Num ns);
            ("minor_words_per_run", Num words) ])
      (micro_tests ())
  in
  Arr rows

(* Flow-table scaling: the packed-key robin-hood table under the four
   operations the demultiplexer performs, at populations from a busy
   server (1 K flows) to a pathological one (1 M).  Keys are synthetic
   but distinct; the miss probes use keys guaranteed absent.  Per-op
   times are loop averages — at these iteration counts a timer read per
   op would dominate. *)
let bench_demux () =
  Common.print_title "Flow-table scaling (packed-key robin-hood probes)";
  let sizes =
    if !quick then [ 1_000; 100_000 ] else [ 1_000; 100_000; 1_000_000 ]
  in
  Printf.printf "  %-10s %12s %12s %12s %12s\n" "flows" "insert" "hit"
    "miss" "delete";
  let sink = ref 0 in
  let rows =
    List.map
      (fun n ->
        let tab = Lrp_core.Flowtab.create ~dummy:0 () in
        (* hi is unique per key, so the pairs are distinct even when the
           packed ports in lo collide. *)
        let key_hi i = i + 1 in
        let key_lo i =
          ((i * 7 land 0xffff) lsl 16) lor (i * 13 land 0xffff)
        in
        let per_op f =
          let t0 = Unix.gettimeofday () in
          f ();
          (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int n
        in
        let insert_ns =
          per_op (fun () ->
              for i = 0 to n - 1 do
                Lrp_core.Flowtab.add_new tab ~hi:(key_hi i) ~lo:(key_lo i) i
              done)
        in
        let hit_ns =
          per_op (fun () ->
              for i = 0 to n - 1 do
                sink :=
                  !sink + Lrp_core.Flowtab.find tab ~hi:(key_hi i) ~lo:(key_lo i)
              done)
        in
        let miss_ns =
          per_op (fun () ->
              for i = 0 to n - 1 do
                (* key_hi never exceeds n, so hi + n + 1 is always absent *)
                sink :=
                  !sink
                  + Lrp_core.Flowtab.find tab ~hi:(key_hi i + n + 1)
                      ~lo:(key_lo i)
              done)
        in
        let delete_ns =
          per_op (fun () ->
              for i = 0 to n - 1 do
                ignore
                  (Lrp_core.Flowtab.remove tab ~hi:(key_hi i) ~lo:(key_lo i))
              done)
        in
        if Lrp_core.Flowtab.length tab <> 0 then
          failwith "bench demux: table not empty after delete pass";
        Printf.printf "  %-10d %9.1f ns %9.1f ns %9.1f ns %9.1f ns\n" n
          insert_ns hit_ns miss_ns delete_ns;
        Obj
          [ ("flows", int n); ("insert_ns", Num insert_ns);
            ("hit_ns", Num hit_ns); ("miss_ns", Num miss_ns);
            ("delete_ns", Num delete_ns) ])
      sizes
  in
  Arr rows

(* Committed perf baseline (BENCH_10.json).  Measures the engine hot paths
   that the two-tier scheduler is responsible for, plus one end-to-end
   wall-clock figure, and writes them to [!baseline_out] for the CI
   regression gate (bench/check_baseline.ml compares a fresh snapshot
   against the committed file with generous tolerances).

   Unlike the Bechamel microbenches above, these loops measure minor
   allocation directly from [Gc.minor_words] deltas — the typed fast
   path's 0.0 words/event is an acceptance criterion, so the number must
   be an exact count, not a regression estimate. *)
let bench_baseline () =
  let open Lrp_engine in
  Common.print_title "Perf baseline (engine hot paths + fig3 wall-clock)";
  let time_and_words ~n f =
    (* Warm-up: enough cycles that every one-time growth — slot table,
       wheel bucket arrays, heap arrays — happens outside the measured
       window.  One call is not enough: the first *bucketed* event may
       come thousands of cycles in (due-tick events heap-route), and its
       bucket array growth would otherwise read as steady-state alloc. *)
    for _ = 1 to 20_000 do
      ignore (f ())
    done;
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do
      ignore (f ())
    done;
    let dt = Unix.gettimeofday () -. t0 in
    let dw = Gc.minor_words () -. w0 in
    (dt *. 1e9 /. float_of_int n, dw /. float_of_int n)
  in
  let reps = 300_000 in
  (* Closure fast path: the thunk is a static function, so the slot-table
     recycling makes the whole schedule/fire cycle allocation-free. *)
  let eng_sched = Engine.create () in
  let schedule_fire () =
    ignore (Engine.schedule_after eng_sched ~delay:1.0 ignore);
    Engine.step eng_sched
  in
  (* Typed fast path: (target id, argument) in the slot table, no closure
     even though the event carries an argument. *)
  let eng_typed = Engine.create () in
  let typed_sink = ref 0 in
  let typed_tgt = Engine.target eng_typed (fun v -> typed_sink := v) in
  let typed_fastpath () =
    ignore (Engine.schedule_to_after eng_typed ~delay:1.0 typed_tgt 7);
    Engine.step eng_typed
  in
  (* The same argument-carrying event as a capturing closure: what every
     per-packet schedule cost before the typed path existed. *)
  let eng_thunk = Engine.create () in
  let thunk_sink = ref 0 in
  let capturing_thunk () =
    let v = !thunk_sink + 1 in
    ignore
      (Engine.schedule_after eng_thunk ~delay:1.0 (fun () -> thunk_sink := v));
    Engine.step eng_thunk
  in
  (* Demux probe: the per-packet classification + packed-key flow-table
     lookup the NI (or interrupt handler) performs on every arrival.  The
     table holds a realistic server port set; the probe hits. *)
  let demux_tab = Lrp_core.Chantab.create () in
  let () =
    for p = 1 to 64 do
      Lrp_core.Chantab.add_udp demux_tab ~port:p
        (Lrp_core.Channel.create ~name:(Printf.sprintf "bench-p%d" p) ())
    done
  in
  let demux_pkt =
    Lrp_net.Packet.udp
      ~src:(Lrp_net.Packet.ip_of_quad 10 0 0 1)
      ~dst:(Lrp_net.Packet.ip_of_quad 10 0 0 2)
      ~src_port:1234 ~dst_port:7
      (Lrp_net.Payload.synthetic 64)
  in
  let demux_probe () =
    ignore (Lrp_core.Chantab.resolve_slot demux_tab demux_pkt)
  in
  (* Arena RX: NI-channel admission and consumption through the handle
     ring — descriptor acquire into the shared arena, FIFO pop, release.
     The whole cycle must stay at 0.0 words/packet. *)
  let rx_arena = Lrp_net.Parena.create () in
  let rx_chan =
    Lrp_core.Channel.create ~arena:rx_arena ~limit:64 ~name:"bench-rx" ()
  in
  let arena_rx () =
    ignore (Lrp_core.Channel.enqueue_code rx_chan demux_pkt);
    ignore (Lrp_core.Channel.pop rx_chan)
  in
  (* Arena TX: the driver's if_output through the NIC's descriptor arena
     — handle-ring push, cached-footprint drain, tx-done fire into a
     no-op fabric.  Like arena RX, the whole cycle must stay at 0.0
     words/packet. *)
  let eng_tx = Engine.create () in
  let tx_nic =
    Lrp_net.Nic.create eng_tx ~name:"bench-tx"
      ~ip:(Lrp_net.Packet.ip_of_quad 10 0 0 9) ()
  in
  let tx_arena () =
    ignore (Lrp_net.Nic.transmit tx_nic demux_pkt);
    Engine.step eng_tx
  in
  (* Recorder on the hot path: the same arena RX cycle plus the packed
     flight-recorder emit the NIC path performs per packet.  The packed
     backend is four word stores into SoA ring columns, so the whole
     traced cycle must stay at 0.0 words/event and close to bare
     [arena_rx] time (check_baseline pins the ratio). *)
  let rec_tracer =
    Lrp_trace.Trace.create ~name:"bench-recorder" ~clock:[| 0. |] ()
  in
  Lrp_trace.Trace.set_enabled rec_tracer true;
  let tracing_on_arena_rx () =
    ignore (Lrp_core.Channel.enqueue_code rx_chan demux_pkt);
    Lrp_trace.Trace.nic_rx rec_tracer ~pkt:42 ~bytes:64;
    ignore (Lrp_core.Channel.pop rx_chan)
  in
  (* Ledger charge: the always-on accounting write behind every CPU
     charge — float-array arithmetic plus one int-keyed probe, with the
     row already warmed so the steady state is allocation-free. *)
  let bench_ledger = Lrp_sim.Ledger.create () in
  let () =
    Lrp_sim.Ledger.charge bench_ledger Lrp_sim.Ledger.Proto ~pid:1 ~flow:3 0.;
    Lrp_sim.Ledger.charge bench_ledger Lrp_sim.Ledger.Intr ~pid:(-1) ~flow:(-1)
      0.
  in
  let ledger_overhead () =
    Lrp_sim.Ledger.charge bench_ledger Lrp_sim.Ledger.Proto ~pid:1 ~flow:3 0.1;
    Lrp_sim.Ledger.charge bench_ledger Lrp_sim.Ledger.Intr ~pid:(-1) ~flow:(-1)
      0.1
  in
  (* Batched dispatch: 64 same-deadline events admitted through the typed
     path and drained by one [Engine.drain] call — the engine dispatches
     equal-key runs as a batch, so the per-event cost amortises the pop
     machinery across the run.  Reported per event. *)
  let eng_batch = Engine.create () in
  let batch_sink = ref 0 in
  let batch_tgt = Engine.target eng_batch (fun v -> batch_sink := v) in
  let batch_n = 64 in
  let batch_dispatch () =
    for i = 1 to batch_n do
      ignore (Engine.schedule_to_after eng_batch ~delay:1.0 batch_tgt i)
    done;
    Engine.drain eng_batch
  in
  (* Periodic re-arm: one slot and one thunk for the clock's lifetime. *)
  let eng_rearm = Engine.create () in
  let rearm_handle = ref Engine.none in
  let () =
    rearm_handle :=
      Engine.schedule_after eng_rearm ~delay:1.0 (fun () ->
          Engine.reschedule_after eng_rearm !rearm_handle ~delay:1.0)
  in
  let periodic_rearm () = Engine.step eng_rearm in
  (* Staged re-arm: the grace-poll / coalesce-timer idiom — the deadline
     staged through the engine's float cell, the (target, argument) pair
     through the slot table.  The whole arm+fire cycle must stay at 0.0
     words/event (the thunk form it replaced paid ~7 words per arm). *)
  let eng_staged = Engine.create () in
  let staged_sink = ref 0 in
  let staged_tgt = Engine.target eng_staged (fun v -> staged_sink := v) in
  let staged_rearm () =
    (Engine.deadline_cell eng_staged).(0) <-
      (Engine.clock_cell eng_staged).(0) +. 1.0;
    ignore (Engine.schedule_to_staged eng_staged staged_tgt 7);
    Engine.step eng_staged
  in
  (* RX coalescing: a sub-threshold train arming the NIC's hold-off
     timer, the timer firing into the kernel's kick, and the poll
     draining the ring — the cycle rebuilt on the staged path so a
     sub-threshold train allocates nothing. *)
  let eng_rxq = Engine.create () in
  let rxq_nic =
    Lrp_net.Nic.create eng_rxq ~name:"bench-rxq"
      ~ip:(Lrp_net.Packet.ip_of_quad 10 0 0 8) ()
  in
  let () =
    Lrp_net.Nic.configure_rx_queues rxq_nic ~queues:1 ~ring:64
      ~coalesce_pkts:64 ~coalesce_us:5.
      ~steer:(fun _ -> 0)
      ~kick:(fun q -> Lrp_net.Nic.rxq_disable_intr rxq_nic q)
  in
  let rxq_coalesce () =
    Lrp_net.Nic.receive rxq_nic demux_pkt;
    ignore (Engine.step eng_rxq);
    ignore (Lrp_net.Nic.rxq_pop rxq_nic 0);
    Lrp_net.Nic.rxq_enable_intr rxq_nic 0
  in
  (* Timer churn at depth: a cancel-heavy schedule stream (7 of 8 timers
     are cancelled before firing — the TCP retransmit pattern).  Under the
     wheel, dead entries are dropped in O(1) when their bucket pours and
     the heap stays small; a pure heap sifts every corpse in and out, and
     grows with every lingering cancellation. *)
  (* Timer churn in the regime the wheel is built for (and the one the
     paper's TCP stack generates): a deep standing population of pending
     retransmit timers, re-armed on every ACK — cancel the old RTO,
     schedule a fresh one ~200 ms out — while the clock creeps forward in
     small steps.  Per re-arm the pure heap pays an O(log n) sift at
     schedule and another at the lazy-cancel pop; the wheel pays an O(1)
     bucket push and an O(1) filtered drop when the bucket pours. *)
  let bulk_churn ~pure_heap () =
    let eng = Engine.create ~pure_heap () in
    let standing = 50_000 in
    let handles = Array.make standing Engine.none in
    for i = 0 to standing - 1 do
      handles.(i) <-
        Engine.schedule_after eng
          ~delay:(200_000. +. float_of_int (i land 4095))
          ignore
    done;
    let n = 200_000 in
    let t0 = Unix.gettimeofday () in
    for i = 0 to n - 1 do
      let c = i mod standing in
      Engine.cancel eng handles.(c);
      handles.(c) <-
        Engine.schedule_after eng
          ~delay:(200_000. +. float_of_int (i land 4095))
          ignore;
      (* the ACK itself: a short event fires and nudges the clock *)
      if i land 63 = 0 then begin
        ignore (Engine.schedule_after eng ~delay:10. ignore);
        ignore (Engine.step eng)
      end
    done;
    Engine.run eng ~until:(Engine.now eng +. 1e9);
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int n
  in
  Printf.printf "  %-44s %12s %14s\n" "" "time" "minor alloc";
  let measure key label f =
    let ns, words = time_and_words ~n:reps f in
    Printf.printf "  %-44s %9.1f ns %8.1f words\n" label ns words;
    (key, ns, words)
  in
  (* Like [measure], but [f] performs [per] events per call; report per
     event so the entry is comparable with the others. *)
  let measure_scaled key label ~per f =
    let ns, words = time_and_words ~n:(reps / per) f in
    let per = float_of_int per in
    let ns = ns /. per and words = words /. per in
    Printf.printf "  %-44s %9.1f ns %8.1f words\n" label ns words;
    (key, ns, words)
  in
  let entries =
    [ measure "schedule_fire" "engine/schedule+fire (static thunk)"
        schedule_fire;
      measure "typed_fastpath" "engine/schedule_to+fire (typed target)"
        typed_fastpath;
      measure "capturing_thunk" "engine/schedule+fire (capturing thunk)"
        capturing_thunk;
      measure "demux_probe" "demux/classify+flow-table probe (hit)"
        demux_probe;
      measure "arena_rx" "channel/arena enqueue_code+pop" arena_rx;
      measure "tx_arena" "nic/arena transmit+tx-done (cached bytes)"
        tx_arena;
      measure "tracing_on_arena_rx" "channel/arena rx + packed recorder"
        tracing_on_arena_rx;
      measure "ledger_overhead" "cpu/ledger charge (warm rows, x2)"
        ledger_overhead;
      measure_scaled "batch_dispatch" "engine/batched dispatch (64-run)"
        ~per:batch_n batch_dispatch;
      measure "periodic_rearm" "engine/periodic re-arm (reschedule_after)"
        periodic_rearm;
      measure "staged_rearm" "engine/staged re-arm (schedule_to_staged)"
        staged_rearm;
      measure "rxq_coalesce" "nic/coalesce arm+fire+poll (staged timer)"
        rxq_coalesce;
      (let ns = bulk_churn ~pure_heap:false () in
       Printf.printf "  %-44s %9.1f ns\n" "engine/bulk timer churn (wheel)" ns;
       ("timer_churn_wheel", ns, 0.));
      (let ns = bulk_churn ~pure_heap:true () in
       Printf.printf "  %-44s %9.1f ns\n" "engine/bulk timer churn (pure heap)"
         ns;
       ("timer_churn_pure_heap", ns, 0.)) ]
  in
  let _, sched_ns, _ =
    List.find (fun (k, _, _) -> k = "schedule_fire") entries
  in
  let events_per_sec = 1e9 /. sched_ns in
  let t0 = Unix.gettimeofday () in
  ignore (Fig3.run ~quick:true ~jobs:1 ~seed ());
  let fig3_wall = Unix.gettimeofday () -. t0 in
  Printf.printf "  %-44s %9.0f events/s\n" "engine throughput" events_per_sec;
  Printf.printf "  %-44s %11.2f s\n" "fig3 (quick, 1 job) wall-clock" fig3_wall;
  (* Sharded cluster: the 64-host spine-leaf topology at 1 and 8 shards.
     The digests must match — byte-identical results are the shard
     engine's contract.  [speedup_available] (total events over the epoch
     schedule's critical path) is deterministic and machine-independent,
     so CI gates on it even on a 1-core runner; measured wall speedup is
     recorded with the core count for context and only judged on
     machines with enough cores to show it. *)
  let run_cluster shards =
    let t0 = Unix.gettimeofday () in
    let r = Cluster.run ~shards ~duration:(if !quick then 50_000. else 200_000.) () in
    (r, Unix.gettimeofday () -. t0)
  in
  let c1, cwall1 = run_cluster 1 in
  let c8, cwall8 = run_cluster 8 in
  let ceps1 = float_of_int c1.Cluster.events /. cwall1 in
  let ceps8 = float_of_int c8.Cluster.events /. cwall8 in
  let cores = Domain.recommended_domain_count () in
  Printf.printf "  %-44s %9.0f events/s\n" "cluster 8x8 (1 shard)" ceps1;
  Printf.printf "  %-44s %9.0f events/s\n" "cluster 8x8 (8 shards)" ceps8;
  Printf.printf "  %-44s %11s\n" "cluster digests (1 vs 8 shards)"
    (if Int64.equal c1.Cluster.digest c8.Cluster.digest then "identical"
     else "MISMATCH");
  Printf.printf "  %-44s %10.2fx (measured %.2fx on %d cores)\n"
    "cluster speedup available"
    (Cluster.speedup_available c8)
    (cwall1 /. cwall8) cores;
  let doc =
    Obj
      [ ("schema", int 1);
        ( "entries",
          Arr
            (List.map
               (fun (key, ns, words) ->
                 Obj
                   [ ("name", Str key);
                     ("ns_per_event", Num ns);
                     ("minor_words_per_event", Num words) ])
               entries) );
        ("events_per_sec", Num events_per_sec);
        ("fig3_quick_wall_s", Num fig3_wall);
        ( "cluster",
          Obj
            [ ("racks", int c1.Cluster.racks);
              ("hosts_per_rack", int c1.Cluster.hosts_per_rack);
              ("events", int c1.Cluster.events);
              ("digest_shards1", Str (Printf.sprintf "%Lx" c1.Cluster.digest));
              ("digest_shards8", Str (Printf.sprintf "%Lx" c8.Cluster.digest));
              ("events_per_sec_shards1", Num ceps1);
              ("events_per_sec_shards8", Num ceps8);
              ("speedup_available", Num (Cluster.speedup_available c8));
              ("speedup_measured", Num (cwall1 /. cwall8));
              ("cores", int cores) ] ) ]
  in
  let oc = open_out !baseline_out in
  output_string oc (json_to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "  Wrote %s\n" !baseline_out;
  doc

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

(* Shard-count sweep of the cluster experiment: the digest column must be
   constant (byte-identical results at any shard count) while the
   critical path shrinks with the partition. *)
let bench_cluster () =
  Common.print_title "Sharded cluster (spine-leaf, shard-count sweep)";
  let duration = if !quick then 50_000. else 200_000. in
  Printf.printf "  %-8s %12s %14s %12s %16s\n" "shards" "wall" "events/s"
    "avail." "digest";
  let rows =
    List.map
      (fun shards ->
        let t0 = Unix.gettimeofday () in
        let r = Cluster.run ~shards ~duration () in
        let wall = Unix.gettimeofday () -. t0 in
        let eps = float_of_int r.Cluster.events /. wall in
        Printf.printf "  %-8d %10.3f s %12.0f %10.2fx %16Lx\n" shards wall
          eps (Cluster.speedup_available r) r.Cluster.digest;
        Obj
          [ ("shards", int shards);
            ("wall_s", Num wall);
            ("events_per_sec", Num eps);
            ("speedup_available", Num (Cluster.speedup_available r));
            ("digest", Str (Printf.sprintf "%Lx" r.Cluster.digest)) ])
      [ 1; 2; 4; 8 ]
  in
  Arr rows

let all_benches =
  [ ("table1", bench_table1); ("fig3", bench_fig3);
    ("modern", bench_modern); ("mlfrr", bench_mlfrr);
    ("fig4", bench_fig4); ("table2", bench_table2); ("fig5", bench_fig5);
    ("accounting", bench_accounting);
    ("ablate-discard", bench_ablate_discard);
    ("ablate-accounting", bench_ablate_accounting);
    ("ablate-demux", bench_ablate_demux); ("gateway", bench_gateway);
    ("trace", bench_trace); ("micro", bench_micro);
    ("demux", bench_demux); ("cluster", bench_cluster);
    ("baseline", bench_baseline) ]

let usage () =
  Printf.eprintf
    "usage: main.exe [--quick] [--jobs N] [--json PATH] [--baseline-out \
     PATH] [bench ...]\n\
     available benches: %s\n"
    (String.concat ", " (List.map fst all_benches));
  exit 1

let () =
  let rec parse acc = function
    | [] -> List.rev acc
    | "--quick" :: rest ->
        quick := true;
        parse acc rest
    | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n >= 1 ->
            jobs := n;
            parse acc rest
        | _ ->
            Printf.eprintf "--jobs expects a positive integer, got %S\n" n;
            exit 1)
    | "--json" :: path :: rest ->
        json_path := Some path;
        parse acc rest
    | "--baseline-out" :: path :: rest ->
        baseline_out := path;
        parse acc rest
    | ("--jobs" | "--json" | "--baseline-out") :: [] | "--help" :: _
    | "-h" :: _ ->
        usage ()
    | a :: _ when String.length a > 0 && a.[0] = '-' ->
        Printf.eprintf "unknown option %S\n" a;
        usage ()
    | name :: rest -> parse (name :: acc) rest
  in
  let args = parse [] (List.tl (Array.to_list Sys.argv)) in
  let selected =
    match args with
    | [] -> List.map fst all_benches
    | names ->
        List.iter
          (fun n -> if not (List.mem_assoc n all_benches) then usage ())
          names;
        names
  in
  Printf.printf
    "LRP (OSDI'96) reproduction — regenerating the paper's evaluation%s \
     (%d job%s)\n"
    (if !quick then " (quick mode)" else "")
    !jobs
    (if !jobs = 1 then "" else "s");
  let t0 = Unix.gettimeofday () in
  let results =
    List.map
      (fun name ->
        let f = List.assoc name all_benches in
        let s = Unix.gettimeofday () in
        let data = f () in
        let wall = Unix.gettimeofday () -. s in
        Printf.printf "  [%s finished in %.1fs wall time]\n" name wall;
        (name, Obj [ ("wall_s", Num wall); ("data", data) ]))
      selected
  in
  let total = Unix.gettimeofday () -. t0 in
  Printf.printf "\nTotal wall time: %.1fs\n" total;
  match !json_path with
  | None -> ()
  | Some path ->
      let doc =
        Obj
          [ ("quick", Bool !quick); ("jobs", int !jobs); ("seed", int seed);
            ("total_wall_s", Num total); ("experiments", Obj results) ]
      in
      let oc = open_out path in
      output_string oc (json_to_string doc);
      output_char oc '\n';
      close_out oc;
      Printf.printf "Wrote %s\n" path
