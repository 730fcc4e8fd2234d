(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (section 4), the MLFRR measurement, and the design-choice
   ablations, plus two scaling sweeps: `demux` (flow-table probes at up
   to 1 M flows) and `cluster` (the sharded spine-leaf cluster at 1-8
   shards).  Simulator cost per layer is measured end to end by
   perfbench/, not here.

   Usage:
     dune exec bench/main.exe                    # everything, full scale
     dune exec bench/main.exe -- --quick         # everything, reduced scale
     dune exec bench/main.exe -- table1 fig3     # a subset
     dune exec bench/main.exe -- --jobs 4        # fan simulations over 4 domains
     dune exec bench/main.exe -- --json out.json # also dump every datapoint

   Results are independent of --jobs: every simulation runs in its own
   engine seeded deterministically from the root seed and its job index. *)

open Lrp_experiments

let quick = ref false
let jobs = ref (Domain.recommended_domain_count ())
let json_path = ref None
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

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

let all_benches =
  [ ("table1", bench_table1); ("fig3", bench_fig3);
    ("modern", bench_modern); ("mlfrr", bench_mlfrr);
    ("fig4", bench_fig4); ("table2", bench_table2); ("fig5", bench_fig5);
    ("accounting", bench_accounting);
    ("ablate-discard", bench_ablate_discard);
    ("ablate-accounting", bench_ablate_accounting);
    ("ablate-demux", bench_ablate_demux); ("gateway", bench_gateway);
    ("trace", bench_trace); ("demux", bench_demux);
    ("cluster", bench_cluster) ]

let usage () =
  Printf.eprintf
    "usage: main.exe [--quick] [--jobs N] [--json PATH] [bench ...]\n\
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
    | ("--jobs" | "--json") :: [] | "--help" :: _ | "-h" :: _ ->
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
