(** Figure 3: UDP throughput versus offered load (the livelock experiment),
    the MLFRR search and the traced stage split; the shapes are [claims],
    [mlfrr_claims] and [stage_claims]. *)

open Lrp_engine
open Lrp_kernel
open Lrp_workload
module Trace = Lrp_trace.Trace

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

let run ?(quick = false) ?(jobs = 1) ?(seed = Common.default_seed) () =
  let duration = if quick then Time.ms 400. else Time.sec 2. in
  let rates =
    if quick then [ 2_000.; 6_000.; 8_000.; 10_000.; 14_000.; 20_000. ]
    else default_rates
  in
  List.map
    (fun (system, points) -> { system; points })
    (Common.grid ~jobs ~seed Common.fig3_systems rates (fun ~seed sys rate ->
         measure ~seed sys ~rate ~duration))

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

(* One ASCII plot per system: a bar per offered rate, its length
   proportional to the delivered rate. *)
let plot title rows =
  Common.print_title title;
  List.iter
    (fun r ->
      Common.printf "\n  [%s]\n  %-12s %-10s\n" (Common.system_name r.system)
        "offered(p/s)" "delivered";
      List.iter
        (fun p ->
          Common.printf "  %-12.0f %-10.0f %s\n" p.offered p.delivered
            (String.make (max 0 (int_of_float (p.delivered /. 12_000. *. 50.))) '#'))
        r.points)
    rows

let print = plot "Figure 3: Throughput versus offered load (14-byte UDP)"

let print_mlfrr results =
  Common.print_title "MLFRR: maximum loss-free receive rate (pkts/s)";
  List.iter
    (fun (sys, rate) ->
      Common.printf "  %-12s %8.0f\n" (Common.system_name sys) rate)
    results

(* --- claims ------------------------------------------------------------ *)

let claims rows =
  let open Common in
  let pts sys = List.concat_map (fun r -> if r.system = sys then r.points else []) rows in
  let peak sys = List.fold_left (fun m p -> Float.max m p.delivered) 0. (pts sys) in
  let at20 f sys = pick f (fun p -> p.offered = 20_000.) (pts sys) in
  let d20 = at20 (fun p -> p.delivered) in
  let ni_discards = at20 (fun p -> float_of_int p.discards) Ni_lrp in
  let bsd_ipq = at20 (fun p -> float_of_int p.ipq_drops) Bsd in
  let bsd = peak Bsd and ni = peak Ni_lrp and soft = peak Soft_lrp in
  [ claim "fig3.bsd-livelock" "4.4BSD collapses: 20k pkts/s < 0.2 x its peak"
      (d20 Bsd /. bsd) (d20 Bsd < 0.2 *. bsd);
    claim "fig3.ni-lrp-flat" "NI-LRP stays flat: 20k pkts/s > 0.95 x its peak"
      (d20 Ni_lrp /. ni) (d20 Ni_lrp > 0.95 *. ni);
    claim "fig3.peak-order" "peaks order NI-LRP > SOFT-LRP > 4.4BSD (lesser ratio)"
      (Float.min (ni /. soft) (soft /. bsd)) (ni > soft && soft > bsd);
    claim ~paper:1.51 "fig3.ni-lrp-over-bsd" "NI-LRP's peak / 4.4BSD's in (1.3, 1.8)"
      (ni /. bsd) (ni /. bsd > 1.3 && ni /. bsd < 1.8);
    claim ~paper:1.32 "fig3.soft-lrp-over-bsd"
      "SOFT-LRP's peak / 4.4BSD's in (1.15, 1.5)" (soft /. bsd)
      (soft /. bsd > 1.15 && soft /. bsd < 1.5);
    claim "fig3.soft-lrp-graceful" "SOFT-LRP declines slowly: 20k > 0.55 x its peak"
      (d20 Soft_lrp /. soft) (d20 Soft_lrp > 0.55 *. soft);
    claim "fig3.early-demux-share"
      "Early-Demux / SOFT-LRP at 20k in (0.35, 0.75) (paper 0.4-0.65)"
      (d20 Early_demux /. d20 Soft_lrp)
      (d20 Early_demux > 0.35 *. d20 Soft_lrp && d20 Early_demux < 0.75 *. d20 Soft_lrp);
    claim "fig3.ni-lrp-discards" "NI-LRP discards at the channel at 20k" ni_discards
      (ni_discards > 0.);
    claim "fig3.bsd-ipq-drops" "4.4BSD drops at the IP queue at 20k" bsd_ipq
      (bsd_ipq > 0.) ]

let mlfrr_claims results =
  let rate sys = Common.pick snd (fun (s, _) -> s = sys) results in
  let r = rate Common.Soft_lrp /. rate Common.Bsd in
  [ Common.claim ~paper:(9_210. /. 6_380.) "mlfrr.soft-lrp-over-bsd"
      "SOFT-LRP's MLFRR / 4.4BSD's in (1.15, 1.7)" r (r > 1.15 && r < 1.7) ]

(* 4.4BSD does its protocol work in software interrupts, the LRP kernels
   in the receiver's own context: [stage sys own] is the system's own
   protocol stage, or ([own] false) the other one, which must stay empty. *)
let stage_claims reports =
  let module S = Lrp_stats.Stats.Samples in
  let stage sys own (r : Trace.Report.t) =
    List.assoc
      (if (sys = Common.Bsd) = own then "softint-proto" else "proc-proto")
      r.Trace.Report.stages
  in
  let misplaced =
    List.fold_left (fun n (sys, r) -> n + S.count (stage sys false r)) 0 reports
  in
  let ran (sys, r) = S.count (stage sys true r) > 0 && S.mean (stage sys true r) > 0. in
  [ Common.claim "trace.protocol-context"
      "protocol work in softint context on 4.4BSD, in the receiver's on LRP \
       (packets in the other)"
      (float_of_int misplaced)
      (reports <> [] && misplaced = 0 && List.for_all ran reports) ]
