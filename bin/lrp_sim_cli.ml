(* Command-line front end: the one way to run the paper's experiments, or
   a single parameterised scenario, from the shell.

     lrp_sim bench                           # every table and figure
     lrp_sim bench --quick table1 fig3       # a subset, reduced scale
     lrp_sim bench --jobs 4 --json out.json  # 4 domains, dump datapoints
     lrp_sim blast --arch soft-lrp --rate 12000 --duration 2
     lrp_sim gateway --arch bsd --rate 20000

   [bench] regenerates every table and figure of the paper's evaluation
   (section 4), the MLFRR measurement and the design-choice ablations,
   plus [cluster], the sharded spine-leaf cluster swept over 1-8 shards.  Its
   results are independent of --jobs: every simulation runs in its own
   engine seeded from the root seed and its job index.  Simulator cost
   per layer is measured end to end by perfbench/, not here. *)

open Cmdliner
open Lrp_experiments
open Lrp_engine
open Lrp_kernel
open Lrp_workload

(* --- flags --------------------------------------------------------------- *)

(* Numeric flags are checked as they are parsed: a bad value is a usage
   error (exit 124), not a hang, a NaN report or an uncaught exception. *)
let checked conv ok what =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "%S is not %s" s what))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let count = checked Arg.int (fun n -> n >= 1) "an integer >= 1"

let positive =
  checked Arg.float (fun x -> Float.is_finite x && x > 0.) "a finite number > 0"

let quick =
  let doc = "Shrink workloads for a fast smoke run." in
  Arg.(value & flag & info [ "quick" ] ~doc)

let jobs =
  let doc =
    "Fan independent simulations out over $(docv) domains.  Results are \
     identical for any value; 1 runs everything sequentially."
  in
  Arg.(
    value
    & opt count (Domain.recommended_domain_count ())
    & info [ "jobs"; "j" ] ~docv:"N" ~doc)

(* The one table of --arch spellings. *)
let arch_names =
  [ ("bsd", Kernel.Bsd); ("soft-lrp", Kernel.Soft_lrp);
    ("ni-lrp", Kernel.Ni_lrp); ("early-demux", Kernel.Early_demux);
    ("napi", Kernel.Napi); ("napi-gro", Kernel.Napi_gro); ("rss", Kernel.Rss) ]

let arch =
  let doc =
    "Kernel architecture: " ^ String.concat ", " (List.map fst arch_names) ^ "."
  in
  Arg.(value & opt (enum arch_names) Kernel.Soft_lrp & info [ "arch" ] ~doc)

let rate =
  let doc = "Offered load, packets per second." in
  Arg.(value & opt positive 10_000. & info [ "rate" ] ~doc)

let duration =
  let doc = "Run length, simulated seconds." in
  Arg.(value & opt positive 1. & info [ "duration" ] ~doc)

(* --- bench: the paper's evaluation --------------------------------------- *)

(* Each entry prints its human-readable output and returns its datapoints
   as JSON (the trace library's emitter; integers are exact floats, which
   it prints without a fraction) with the claims its experiment evaluates
   on them. *)
module Bench = struct
  open Lrp_trace.Json

  let seed = Common.default_seed
  let int i = Num (float_of_int i)
  let sysname = Common.system_name

  let series sys point points =
    Obj [ ("system", Str (sysname sys)); ("points", Arr (List.map point points)) ]

  let arr f rows = Arr (List.map f rows)

  (* An entry of the paper's evaluation: run it, print its tables, and
     return its rows as JSON with the claims evaluated on them. *)
  let entry run print json claims ~quick ~jobs =
    let rows = run ~quick ~jobs in
    print rows;
    (json rows, claims rows)

  let fig3_point p =
    Obj
      [ ("offered", Num p.Fig3.offered); ("delivered", Num p.Fig3.delivered);
        ("discards", int p.Fig3.discards); ("ipq_drops", int p.Fig3.ipq_drops) ]

  let fig3_series = arr (fun r -> series r.Fig3.system fig3_point r.Fig3.points)

  let table1 =
    entry (fun ~quick ~jobs -> Table1.run ~quick ~jobs ~seed ()) Table1.print
      (arr (fun r ->
           Obj
             [ ("system", Str (sysname r.Table1.system));
               ("rtt_us", Num r.Table1.rtt_us);
               ("udp_mbps", Num r.Table1.udp_mbps);
               ("tcp_mbps", Num r.Table1.tcp_mbps) ]))
      Table1.claims

  let fig3 =
    entry (fun ~quick ~jobs -> Fig3.run ~quick ~jobs ~seed ()) Fig3.print
      fig3_series Fig3.claims

  let modern =
    entry
      (fun ~quick ~jobs ->
        (Modern.run ~quick ~jobs ~seed (), Modern.run_reorder ~quick ~jobs ~seed ()))
      (fun (rows, reorder) ->
        Modern.print rows;
        Modern.print_reorder reorder)
      (fun (rows, reorder) ->
        Obj
          [ ("throughput", fig3_series rows);
            ( "coalesce_reorder",
              arr
                (fun p ->
                  Obj
                    [ ("coalesce_us", Num p.Modern.coalesce_us);
                      ("fabric_faults", Bool p.Modern.fabric_faults);
                      ("observed", int p.Modern.observed);
                      ("inversions", int p.Modern.inversions);
                      ("per_kpkt", Num p.Modern.per_kpkt) ])
                reorder ) ])
      (fun (rows, reorder) -> Modern.claims rows reorder)

  let mlfrr =
    entry
      (fun ~quick ~jobs ->
        Fig3.mlfrr_all ~quick ~jobs ~seed
          [ Common.Bsd; Common.Soft_lrp; Common.Ni_lrp ])
      Fig3.print_mlfrr
      (arr (fun (sys, rate) ->
           Obj [ ("system", Str (sysname sys)); ("mlfrr", Num rate) ]))
      Fig3.mlfrr_claims

  let fig4 =
    let point p =
      Obj
        [ ("bg_rate", Num p.Fig4.bg_rate); ("rtt_us", Num p.Fig4.rtt_us);
          ("rtt_mean", Num p.Fig4.rtt_mean); ("rtt_p99", Num p.Fig4.rtt_p99);
          ("probes", int p.Fig4.probes); ("lost", int p.Fig4.lost) ]
    in
    entry (fun ~quick ~jobs -> Fig4.run ~quick ~jobs ~seed ()) Fig4.print
      (arr (fun r -> series r.Fig4.system point r.Fig4.points))
      Fig4.claims

  let table2 =
    entry (fun ~quick ~jobs -> Table2.run ~quick ~jobs ~seed ()) Table2.print
      (arr (fun r ->
           Obj
             [ ("system", Str (sysname r.Table2.system));
               ("class", Str (Rpc.cls_name r.Table2.cls));
               ("worker_elapsed_s", Num r.Table2.worker_elapsed_s);
               ("rpcs_per_sec", Num r.Table2.rpcs_per_sec);
               ("worker_share", Num r.Table2.worker_share) ]))
      Table2.claims

  let fig5 =
    let point p =
      Obj
        [ ("syn_rate", Num p.Fig5.syn_rate);
          ("http_per_sec", Num p.Fig5.http_per_sec);
          ("failed", int p.Fig5.failed);
          ("syn_discards", int p.Fig5.syn_discards) ]
    in
    entry (fun ~quick ~jobs -> Fig5.run ~quick ~jobs ~seed ()) Fig5.print
      (arr (fun r -> series r.Fig5.system point r.Fig5.points))
      Fig5.claims

  let ablate_discard =
    entry (fun ~quick:_ ~jobs -> Ablations.discard ~jobs ~seed ())
      Ablations.print_discard
      (arr (fun r ->
           Obj
             [ ("bounded", Bool r.Ablations.bounded);
               ("delivered", Num r.Ablations.delivered);
               ("discards", int r.Ablations.discards);
               ("backlog", int r.Ablations.backlog);
               ("queue_delay_ms", Num r.Ablations.queue_delay_ms) ]))
      Ablations.discard_claims

  let ablate_accounting =
    entry (fun ~quick:_ ~jobs -> Ablations.accounting ~jobs ~seed ())
      Ablations.print_accounting
      (arr (fun r ->
           Obj
             [ ("fair", Bool r.Ablations.fair);
               ("hog_progress", Num r.Ablations.hog_progress);
               ("receiver_share", Num r.Ablations.receiver_share);
               ("receiver_billed", Num r.Ablations.receiver_billed) ]))
      Ablations.accounting_claims

  let accounting =
    let module Overload = Lrp_check.Overload in
    entry (fun ~quick ~jobs -> Accounting.run ~quick ~jobs ~seed ())
      Accounting.print
      (fun r ->
        Obj
          [ ( "ledger",
              arr
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
                r.Accounting.arch_rows );
            ( "detector",
              arr
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
                r.Accounting.det_rows ) ])
      Accounting.claims

  let ablate_demux =
    entry (fun ~quick:_ ~jobs -> Ablations.demux_cost ~jobs ~seed ())
      Ablations.print_demux_cost
      (arr (fun r ->
           Obj
             [ ("demux_us", Num r.Ablations.demux_us);
               ("delivered", Num r.Ablations.delivered) ]))
      Ablations.demux_claims

  (* Extension (paper section 3.5): an IP gateway under transit flood. *)
  let gateway =
    entry (fun ~quick:_ ~jobs -> Gateway.run ~jobs ~seed ()) Gateway.print
      (arr (fun r ->
           Obj
             [ ("rate", Num r.Gateway.rate);
               ("bsd_fwd_per_sec", Num r.Gateway.bsd_fwd);
               ("lrp_fwd_per_sec", Num r.Gateway.lrp_fwd);
               ("lrp_local_share", Num r.Gateway.lrp_share) ]))
      Gateway.claims

  (* Observability: trace one fig3 point per architecture with the server
     kernel's structured tracer on, and report the per-packet
     stage-latency breakdown plus the full counter snapshot.  The paper's
     architectural claim shows up directly: BSD spends its protocol time
     in ["softint-proto"] (software-interrupt context), LRP moves it to
     ["proc-proto"] (receiver's own context, charged to it). *)
  let trace ~quick ~jobs:_ =
    let module Trace = Lrp_trace.Trace in
    let module S = Lrp_stats.Stats.Samples in
    Common.print_title
      "Trace: per-packet stage latency (fig3 point, tracing enabled)";
    let duration = if quick then Time.ms 200. else Time.ms 500. in
    let trace_one sys =
      let point, tracer, counters =
        Fig3.measure_traced ~seed sys ~rate:8_000. ~duration
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
      ( Obj
        [ ("system", Str (sysname sys)); ("offered", Num point.Fig3.offered);
          ("delivered", Num point.Fig3.delivered);
          ("packets", int report.Trace.Report.packets);
          ("events", int (Trace.length tracer));
          ("overwritten", int (Trace.dropped tracer));
          ("stages", Arr (List.map stage_json report.Trace.Report.stages));
          ("metrics", Obj (List.map (fun (k, v) -> (k, Num v)) counters)) ],
        (sys, report) )
    in
    let traced =
      List.map trace_one [ Common.Bsd; Common.Soft_lrp; Common.Ni_lrp ]
    in
    (Arr (List.map fst traced), Fig3.stage_claims (List.map snd traced))

  (* Shard-count sweep of the cluster experiment: the digest column must
     be constant (byte-identical results at any shard count; its one
     claim) while the critical path shrinks with the partition. *)
  let cluster ~quick ~jobs:_ =
    Common.print_title "Sharded cluster (spine-leaf, shard-count sweep)";
    let duration = if quick then 50_000. else 200_000. in
    Printf.printf "  %-8s %12s %14s %12s %16s\n" "shards" "wall" "events/s"
      "avail." "digest";
    let row shards =
      let t0 = Unix.gettimeofday () in
      let r = Cluster.run ~shards ~duration () in
      let wall = Unix.gettimeofday () -. t0 in
      let eps = float_of_int r.Cluster.events /. wall in
      Printf.printf "  %-8d %10.3f s %12.0f %10.2fx %16Lx\n" shards wall eps
        (Cluster.speedup_available r) r.Cluster.digest;
      ( Obj
          [ ("shards", int shards); ("wall_s", Num wall);
            ("events_per_sec", Num eps);
            ("speedup_available", Num (Cluster.speedup_available r));
            ("digest", Str (Printf.sprintf "%Lx" r.Cluster.digest)) ],
        r.Cluster.digest )
    in
    let rows = List.map row [ 1; 2; 4; 8 ] in
    let digests = List.sort_uniq Int64.compare (List.map snd rows) in
    ( Arr (List.map fst rows),
      [ Common.claim "cluster.shard-invariant"
          "one report digest at 1, 2, 4 and 8 shards (distinct digests)"
          (float_of_int (List.length digests))
          (List.length digests = 1) ] )

  let all =
    [ ("table1", table1); ("fig3", fig3); ("modern", modern);
      ("mlfrr", mlfrr); ("fig4", fig4); ("table2", table2); ("fig5", fig5);
      ("accounting", accounting); ("ablate-discard", ablate_discard);
      ("ablate-accounting", ablate_accounting);
      ("ablate-demux", ablate_demux); ("gateway", gateway);
      ("trace", trace); ("cluster", cluster) ]

  let claim_json (c : Common.claim) =
    Obj
      [ ("id", Str c.Common.id); ("text", Str c.Common.text);
        ("paper", Num c.Common.paper);
        ("measured", Num c.Common.measured); ("holds", Bool c.Common.holds) ]

  (* Runs [names] (all entries when empty) in order, timing each, and
     prints each one's claims table; [out] is the already-open --json file,
     if any.  Returns the claims that do not hold. *)
  let run ~quick ~jobs out names =
    let names = if names = [] then List.map fst all else names in
    Printf.printf
      "LRP (OSDI'96) reproduction — regenerating the paper's evaluation%s \
       (%d job%s)\n"
      (if quick then " (quick mode)" else "")
      jobs
      (if jobs = 1 then "" else "s");
    let t0 = Unix.gettimeofday () in
    let results =
      List.map
        (fun name ->
          let s = Unix.gettimeofday () in
          let data, claims = (List.assoc name all) ~quick ~jobs in
          Common.print_claims claims;
          let wall = Unix.gettimeofday () -. s in
          Printf.printf "  [%s finished in %.1fs wall time]\n" name wall;
          ( (name,
             Obj
               [ ("wall_s", Num wall); ("data", data);
                 ("claims", Arr (List.map claim_json claims)) ]),
            claims ))
        names
    in
    let total = Unix.gettimeofday () -. t0 in
    Printf.printf "\nTotal wall time: %.1fs\n" total;
    Option.iter
      (fun (path, oc) ->
        output_string oc
          (to_string
             (Obj
                [ ("quick", Bool quick); ("jobs", int jobs); ("seed", int seed);
                  ("total_wall_s", Num total);
                  ("experiments", Obj (List.map fst results)) ]));
        output_char oc '\n';
        close_out oc;
        Printf.printf "Wrote %s\n" path)
      out;
    List.filter (fun (c : Common.claim) -> not c.holds) (List.concat_map snd results)
end

let bench_cmd =
  let names =
    let doc =
      "Experiments to run, in order (default: all): "
      ^ String.concat ", " (List.map fst Bench.all) ^ "."
    in
    let names = List.map (fun (n, _) -> (n, n)) Bench.all in
    Arg.(value & pos_all (enum names) [] & info [] ~docv:"NAME" ~doc)
  in
  let json =
    let doc =
      "Also write every datapoint, per-experiment and total wall time, the \
       root seed and the job count to $(docv) as one JSON document."
    in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"PATH" ~doc)
  in
  (* The JSON file is opened before any experiment runs, so an unwritable
     path fails at once rather than after the whole suite. *)
  let run quick jobs json names =
    match Option.map (fun path -> (path, open_out path)) json with
    | exception Sys_error e -> `Error (false, e)
    | out -> (
        match Bench.run ~quick ~jobs out names with
        | [] -> `Ok ()
        | failed ->
            Printf.eprintf "bench: claims that do not hold: %s\n"
              (String.concat ", " (List.map (fun c -> c.Common.id) failed));
            exit 1)
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Regenerate the paper's tables and figures, the ablations and the \
          scaling sweeps")
    Term.(ret (const run $ quick $ jobs $ json $ names))

(* --- parameterised one-off scenarios ------------------------------------- *)

(* The blast scenarios' common run: a client/server pair of [arch],
   [setup] applied to the server, then a blast at [rate] for [duration]
   simulated seconds. *)
let blast_run arch rate duration setup =
  let w, client, server = World.pair ~cfg:(Kernel.default_config arch) () in
  let x = setup server in
  let until = Time.sec duration in
  let sink, src = Blast.flood ~client ~server ~rate ~until () in
  World.run w ~until;
  (server, sink, src, x)

let blast_cmd =
  let run arch rate duration =
    let server, sink, src, () = blast_run arch rate duration ignore in
    let st = Kernel.stats server in
    let cpu = Kernel.cpu server in
    Printf.printf "%s: offered %.0f pkts/s for %.1fs\n" (Kernel.arch_name arch)
      rate duration;
    Printf.printf "  sent %d, delivered %d (%.0f pkts/s)\n" src.Blast.sent
      sink.Blast.received
      (float_of_int sink.Blast.received /. duration);
    Printf.printf "  early discards %d, ipq drops %d, demux drops %d\n"
      (Kernel.early_discards server) st.Kernel.ipq_drops st.Kernel.demux_drops;
    Printf.printf
      "  server CPU: %.1f%% hardintr, %.1f%% softintr, %.1f%% user, %d switches\n"
      (100. *. Lrp_sim.Cpu.time_hard cpu /. Time.sec duration)
      (100. *. Lrp_sim.Cpu.time_soft cpu /. Time.sec duration)
      (100. *. Lrp_sim.Cpu.time_user cpu /. Time.sec duration)
      (Lrp_sim.Cpu.context_switches cpu)
  in
  Cmd.v
    (Cmd.info "blast" ~doc:"One UDP overload point with full CPU breakdown")
    Term.(const run $ arch $ rate $ duration)

let gateway_cmd =
  let run arch rate duration =
    let engine, client, gw, server =
      World.gateway (Kernel.default_config arch)
    in
    let sink, _ = Blast.flood ~client ~server ~rate ~until:(Time.sec duration) () in
    Engine.run engine ~until:(Time.sec duration);
    Printf.printf "%s gateway: %.0f pkts/s transit for %.1fs\n"
      (Kernel.arch_name arch) rate duration;
    Printf.printf "  forwarded %d, delivered end-to-end %d\n"
      (Kernel.stats gw).Kernel.forwarded sink.Blast.received
  in
  Cmd.v (Cmd.info "gateway" ~doc:"Transit flood through an IP gateway")
    Term.(const run $ arch $ rate $ duration)

let trace_cmd =
  let module Trace = Lrp_trace.Trace in
  let trace_file =
    let doc = "Write the recorded trace to $(docv)." in
    Arg.(
      value & opt string "trace.json" & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let formats = [ ("chrome", `Chrome); ("csv", `Csv); ("text", `Text) ] in
  let trace_format =
    let doc =
      "Trace sink: chrome (Perfetto-loadable trace_event JSON), csv, or \
       text."
    in
    Arg.(
      value & opt (enum formats) `Chrome
      & info [ "trace-format" ] ~docv:"FORMAT" ~doc)
  in
  let classes =
    let names =
      [ ("packet", Trace.Packet_events); ("sched", Trace.Sched_events);
        ("note", Trace.Note_events) ]
    in
    let doc =
      "Record only these event classes (packet, sched, note); repeatable \
       or comma-separated.  Default: all."
    in
    Arg.(
      value
      & opt_all (list (enum names)) []
      & info [ "classes" ] ~docv:"CLASSES" ~doc)
  in
  let run arch rate duration trace_file trace_format classes =
    let setup server =
      Kernel.set_tracing server true;
      match List.concat classes with
      | [] -> ()
      | cs -> Trace.set_filter (Kernel.tracer server) cs
    in
    let server, sink, src, () = blast_run arch rate duration setup in
    let tracer = Kernel.tracer server in
    Trace.write_file tracer ~format:trace_format trace_file;
    Printf.printf "%s: offered %.0f pkts/s for %.1fs; sent %d, delivered %d\n"
      (Kernel.arch_name arch) rate duration src.Blast.sent sink.Blast.received;
    Printf.printf "  %d events buffered (%d overwritten) -> %s (%s)\n"
      (Trace.length tracer) (Trace.dropped tracer) trace_file
      (fst (List.find (fun (_, f) -> f = trace_format) formats));
    (* Self-check: a chrome trace must round-trip through a JSON parser. *)
    (match trace_format with
    | `Chrome -> (
        let ic = open_in_bin trace_file in
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        match Lrp_trace.Json.parse s with
        | Ok _ -> Printf.printf "  chrome JSON validated (%d bytes)\n" n
        | Error e ->
            Printf.eprintf "  chrome JSON INVALID: %s\n" e;
            exit 1)
    | `Csv | `Text -> ());
    Format.printf "%a@."
      Trace.Report.pp
      (Trace.Report.stage_latency (Trace.events tracer))
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run one UDP overload point with structured tracing enabled and \
          write the event stream to a file")
    Term.(
      const run $ arch $ rate $ duration $ trace_file $ trace_format $ classes)

let top_cmd =
  let module Trace = Lrp_trace.Trace in
  let module Overload = Lrp_check.Overload in
  let module Ledger = Lrp_sim.Ledger in
  let dump_file =
    let doc =
      "Also write the server's packed flight-recorder dump to $(docv) \
       (binary; reload with Lrp_trace.Precorder.read_dump)."
    in
    Arg.(value & opt (some string) None & info [ "dump" ] ~docv:"FILE" ~doc)
  in
  let run arch rate duration dump_file =
    let setup server =
      Kernel.set_tracing server true;
      Overload.attach server
    in
    let server, sink, src, det = blast_run arch rate duration setup in
    Overload.detach det;
    let led = Lrp_sim.Cpu.ledger (Kernel.cpu server) in
    Printf.printf "%s: offered %.0f pkts/s for %.1fs; sent %d, delivered %d\n"
      (Kernel.arch_name arch) rate duration src.Blast.sent sink.Blast.received;
    Printf.printf "\nCPU ledger (us charged per process):\n";
    Printf.printf "  %5s %-16s %10s %10s %10s %10s %12s\n" "pid" "name"
      "intr-vict" "soft-vict" "proto" "app" "misaccounted";
    List.iter
      (fun (r : Ledger.row) ->
        Printf.printf "  %5d %-16s %10.0f %10.0f %10.0f %10.0f %12.0f\n"
          r.Ledger.pid r.Ledger.name r.Ledger.intr_victim r.Ledger.soft_victim
          r.Ledger.proto r.Ledger.app (Ledger.misaccounted r))
      (Ledger.rows led);
    (match Ledger.flow_rows led with
    | [] -> ()
    | flows ->
        Printf.printf "\nPer-flow protocol cycles:\n";
        Printf.printf "  %6s %10s\n" "chan" "proto";
        List.iter
          (fun (f : Ledger.flow_row) ->
            Printf.printf "  %6d %10.0f\n" f.Ledger.flow f.Ledger.f_proto)
          flows);
    Printf.printf "\nOverload detector: %s\n"
      (Format.asprintf "%a" Overload.pp_report (Overload.report det));
    match dump_file with
    | None -> ()
    | Some file ->
        let p = Trace.recorder (Kernel.tracer server) in
        Lrp_trace.Precorder.write_dump p file;
        Printf.printf "\nflight recorder: %d events -> %s\n"
          (Lrp_trace.Precorder.length p) file
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Run one UDP overload point and report the per-process CPU \
          accounting ledger, per-flow protocol cycles and the livelock \
          detector's verdict")
    Term.(const run $ arch $ rate $ duration $ dump_file)

let cluster_cmd =
  let shards =
    let doc = "Domains to shard the cluster across (1 = sequential)." in
    Arg.(value & opt count 1 & info [ "shards" ] ~docv:"N" ~doc)
  in
  let racks =
    let doc = "Racks (= shardable cells) in the spine-leaf topology." in
    Arg.(value & opt count Cluster.default_racks & info [ "racks" ] ~doc)
  in
  let hosts =
    let doc = "Hosts per rack." in
    Arg.(value
         & opt count Cluster.default_hosts_per_rack
         & info [ "hosts" ] ~doc)
  in
  let rate =
    let doc = "Per-host intra-rack blast rate, pkts/s (cross-rack runs at \
               half this)." in
    Arg.(value & opt positive 2000. & info [ "rate" ] ~doc)
  in
  let duration_ms =
    let doc = "Simulated duration, milliseconds." in
    Arg.(value & opt positive 200. & info [ "duration-ms" ] ~doc)
  in
  let out_file =
    let doc =
      "Write the shard-invariant report to $(docv); files produced at \
       different --shards must be byte-identical (CI diffs them)."
    in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let dump_file =
    let doc = "Write the merged per-rack recorder dump to $(docv)." in
    Arg.(value & opt (some string) None & info [ "dump" ] ~docv:"FILE" ~doc)
  in
  let write file s =
    let oc = open_out file in
    output_string oc s;
    close_out oc
  in
  let run shards racks hosts rate duration_ms out_file dump_file =
    let r =
      Cluster.run ~racks ~hosts_per_rack:hosts ~shards ~rate
        ~duration:(Time.ms duration_ms) ()
    in
    Cluster.print r;
    Option.iter (fun f -> write f (Cluster.report r)) out_file;
    Option.iter (fun f -> write f r.Cluster.dump) dump_file
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:
         "Run the sharded spine-leaf cluster experiment; results are \
          byte-identical at any --shards")
    Term.(
      const run $ shards $ racks $ hosts $ rate $ duration_ms $ out_file
      $ dump_file)

let dump_cmd =
  let module Trace = Lrp_trace.Trace in
  let module Precorder = Lrp_trace.Precorder in
  let file =
    let doc = "Flight-recorder binary dump (written by top --dump, or by a \
               failing fuzz run)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let run file =
    match Precorder.read_dump file with
    | Error e ->
        Printf.eprintf "%s: %s\n" file e;
        exit 1
    | Ok p ->
        Printf.printf "# %s: %d events (%d overwritten before the dump)\n"
          file (Precorder.length p) (Precorder.dropped p);
        List.iter
          (fun (ts, seq, ev) ->
            Format.printf "%12.1f %8d  %a@." ts seq Trace.pp_event ev)
          (Trace.events_of_precorder p)
  in
  Cmd.v
    (Cmd.info "dump"
       ~doc:
         "Decode a packed flight-recorder binary dump back to typed events, \
          one per line")
    Term.(const run $ file)

let () =
  let info = Cmd.info "lrp_sim" ~doc:"LRP (OSDI'96) reproduction harness" in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [ bench_cmd; blast_cmd; gateway_cmd; trace_cmd; top_cmd;
            cluster_cmd; dump_cmd ]))
