(** Figure 3: UDP throughput versus offered load (the livelock experiment).

    A client blasts 14-byte UDP datagrams at a fixed rate at a server
    process that receives and discards them.  The paper's shapes:

    - 4.4BSD peaks (~7,400 pkts/s) and then collapses toward livelock as
      the offered rate grows (~0 around 20,000 pkts/s);
    - NI-LRP climbs to its maximum (~11,000 pkts/s) and stays flat;
    - SOFT-LRP peaks in between (~9,800 pkts/s) and declines only slowly
      (the soft-demux cost per packet);
    - Early-Demux is stable but reaches only 40-65 % of SOFT-LRP's
      throughput in the overload region.

    The companion MLFRR measurement reports the maximum loss-free receive
    rate (paper: SOFT-LRP 9,210 vs BSD 6,380, +44 %). *)

open Lrp_engine
open Lrp_kernel
open Lrp_workload

type point = {
  offered : float;    (* pkts/s *)
  delivered : float;  (* pkts/s consumed by the server process *)
  discards : int;     (* early discards (LRP) *)
  ipq_drops : int;    (* BSD shared-queue drops *)
}

type row = { system : Common.system; points : point list }

(* One run: blast at [rate] for [duration]; delivered rate measured over
   the steady-state window (skipping warmup).  Returns the server kernel
   too so [measure_traced] can pull its tracer and counters. *)
let measure_on ?(seed = Common.default_seed) ?(trace = false) sys ~rate
    ~duration =
  let cfg = Common.config_of_system sys in
  let w, client, server = World.pair ~seed ~cfg () in
  if trace then Kernel.set_tracing server true;
  let warmup = Time.ms 200. in
  let sink, _ =
    Blast.flood ~client ~server ~rate ~until:(warmup +. duration) ()
  in
  (* Count deliveries only after warmup. *)
  World.run w ~until:warmup;
  let base = sink.Blast.received in
  World.run w ~until:(warmup +. duration);
  let delivered =
    float_of_int (sink.Blast.received - base) *. 1e6 /. duration
  in
  let st = Kernel.stats server in
  ({ offered = rate; delivered;
     discards = Kernel.early_discards server;
     ipq_drops = st.Kernel.ipq_drops },
   server)

let measure ?seed sys ~rate ~duration =
  fst (measure_on ?seed sys ~rate ~duration)

(* [measure] with the server kernel's structured tracer enabled for the
   whole run: returns the datapoint plus the tracer (flight recorder of
   packet-lifecycle events, ready for {!Lrp_trace.Trace.write_file} or
   {!Lrp_trace.Trace.Report.stage_latency}) and the final counters. *)
let measure_traced ?seed sys ~rate ~duration =
  let point, server = measure_on ?seed ~trace:true sys ~rate ~duration in
  (point, Kernel.tracer server, Kernel.counters server)

let default_rates =
  [ 1_000.; 2_000.; 4_000.; 6_000.; 8_000.; 10_000.; 12_000.; 14_000.;
    16_000.; 18_000.; 20_000.; 22_000.; 25_000. ]

let run ?(quick = false) ?(rates = default_rates) ?(jobs = 1)
    ?(seed = Common.default_seed) () =
  let duration = if quick then Time.ms 400. else Time.sec 2. in
  let rates =
    if quick then [ 2_000.; 6_000.; 8_000.; 10_000.; 14_000.; 20_000. ] else rates
  in
  (* Every (system, rate) point is an independent simulation: fan the
     whole grid out as one flat job list. *)
  let tasks =
    List.concat_map
      (fun sys -> List.map (fun rate -> (sys, rate)) rates)
      Common.fig3_systems
  in
  let points =
    Common.sweep ~jobs
      (fun i (sys, rate) ->
        measure ~seed:(Common.job_seed ~seed ~index:i) sys ~rate ~duration)
      tasks
  in
  let tagged = List.map2 (fun (sys, _) p -> (sys, p)) tasks points in
  List.map
    (fun (sys, points) -> { system = sys; points })
    (Common.regroup Common.fig3_systems tagged)

(* Maximum Loss-Free Receive Rate: the highest offered rate at which
   (nearly) every packet is delivered.  Binary search over offered rates.
   The probes of one search are inherently sequential (each bound depends
   on the last verdict); [mlfrr_all] parallelises across systems. *)
let mlfrr ?(quick = false) ?(seed = Common.default_seed) sys =
  let duration = if quick then Time.ms 300. else Time.sec 1. in
  let probes = ref 0 in
  let loss_free rate =
    let probe_seed = Common.job_seed ~seed ~index:!probes in
    incr probes;
    let cfg = Common.config_of_system sys in
    let w, client, server = World.pair ~seed:probe_seed ~cfg () in
    let sink, src = Blast.flood ~client ~server ~rate ~until:duration () in
    (* Drain time after the source stops. *)
    World.run w ~until:(duration +. Time.ms 100.);
    sink.Blast.received >= src.Blast.sent * 999 / 1000
  in
  let rec search lo hi =
    if hi -. lo <= 250. then lo
    else
      let mid = (lo +. hi) /. 2. in
      if loss_free mid then search mid hi else search lo mid
  in
  search 1_000. 25_000.

(* One binary search per system, searches running on separate domains. *)
let mlfrr_all ?(quick = false) ?(jobs = 1) ?(seed = Common.default_seed)
    systems =
  Common.sweep ~jobs
    (fun i sys -> (sys, mlfrr ~quick ~seed:(Common.job_seed ~seed ~index:i) sys))
    systems

let print rows =
  Common.print_title "Figure 3: Throughput versus offered load (14-byte UDP)";
  List.iter
    (fun r ->
      Common.printf "\n  [%s]\n" (Common.system_name r.system);
      Common.print_series ~xlabel:"offered(p/s)" ~ylabel:"delivered"
        ~ymax:12_000.
        (List.map (fun p -> (p.offered, p.delivered)) r.points))
    rows;
  Common.printf
    "\n  Paper shapes: BSD peaks ~7400 then collapses toward 0 by ~20k;\n\
    \  NI-LRP flat at ~11k; SOFT-LRP ~9.8k with a slow decline;\n\
    \  Early-Demux stable but 40-65%% of SOFT-LRP under overload.\n"

let print_mlfrr results =
  Common.print_title "MLFRR: maximum loss-free receive rate (pkts/s)";
  List.iter
    (fun (sys, rate) ->
      Common.printf "  %-12s %8.0f\n" (Common.system_name sys) rate)
    results;
  Common.printf "  Paper: 4.4BSD 6380, SOFT-LRP 9210 (+44%%).\n"
