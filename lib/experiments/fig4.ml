(** Figure 4: latency under concurrent load; the shapes are [claims]. *)

open Lrp_engine
open Lrp_kernel
open Lrp_workload

type point = {
  bg_rate : float;      (* background blast, pkts/s *)
  rtt_us : float;       (* median probe RTT *)
  rtt_mean : float;
  rtt_p99 : float;
  probes : int;
  lost : int;
}

type row = { system : Common.system; points : point list }

let measure ?(seed = Common.default_seed) sys ~bg_rate ~duration =
  let cfg = Common.config_of_system sys in
  let w = World.make ~seed () in
  let client = World.add_host w ~name:"A" cfg in
  let server = World.add_host w ~name:"B" cfg in
  let blaster = World.add_host w ~name:"C" cfg in
  (* Ping-pong pair with background spinners on both machines. *)
  ignore (Spinner.start (Kernel.cpu client) ~nice:20 ());
  ignore (Spinner.start (Kernel.cpu server) ~nice:20 ());
  ignore (Pingpong.start_server server ~port:7);
  ignore (Blast.start_sink server ~port:9000 ());
  if bg_rate > 0. then
    ignore
      (Blast.start_source (World.engine w) (Kernel.nic blaster)
         ~src:(Kernel.ip_address blaster)
         ~dst:(Kernel.ip_address server, 9000)
         ~rate:bg_rate ~size:14 ~until:duration ());
  let probe =
    Pingpong.start_probe client ~dst:(Kernel.ip_address server, 7)
      ~until:duration ()
  in
  World.run w ~until:duration;
  { bg_rate;
    rtt_us = Lrp_stats.Stats.Samples.median probe.Pingpong.probe_rtts;
    rtt_mean = Lrp_stats.Stats.Samples.mean probe.Pingpong.probe_rtts;
    rtt_p99 = Lrp_stats.Stats.Samples.percentile probe.Pingpong.probe_rtts 99.;
    probes = probe.Pingpong.probe_sent;
    lost = probe.Pingpong.probe_lost }

let default_rates =
  [ 0.; 1_000.; 2_000.; 4_000.; 6_000.; 8_000.; 10_000.; 12_000.; 14_000.;
    16_000.; 18_000.; 20_000. ]

let run ?(quick = false) ?(jobs = 1) ?(seed = Common.default_seed) () =
  let duration = if quick then Time.ms 500. else Time.sec 2. in
  let rates = if quick then [ 0.; 4_000.; 8_000.; 14_000. ] else default_rates in
  List.map
    (fun (system, points) -> { system; points })
    (Common.grid ~jobs ~seed Common.fig4_systems rates (fun ~seed sys r ->
         measure ~seed sys ~bg_rate:r ~duration))

let print rows =
  Common.print_title "Figure 4: Latency with concurrent load (UDP ping-pong RTT)";
  List.iter
    (fun r ->
      Common.printf "\n  [%s]\n" (Common.system_name r.system);
      Common.printf "  %-12s %-10s %-10s %-8s %s\n" "bg (pkts/s)" "RTT med"
        "RTT p99" "lost" "";
      List.iter
        (fun p ->
          if p.rtt_us = 0. && p.lost > 0 then
            Common.printf "  %-12.0f %-10s %-10s %-8d (unmeasurable: all probes lost)\n"
              p.bg_rate "-" "-" p.lost
          else begin
            let bar = int_of_float (p.rtt_us /. 1_500. *. 50.) in
            Common.printf "  %-12.0f %-10.0f %-10.0f %-8d %s\n" p.bg_rate
              p.rtt_us p.rtt_p99 p.lost
              (String.make (max 0 (min 60 bar)) '#')
          end)
        r.points)
    rows

let claims rows =
  let rtt sys rate =
    Common.pick (fun p -> p.rtt_us) (fun p -> p.bg_rate = rate)
      (List.concat_map (fun r -> if r.system = sys then r.points else []) rows)
  in
  let rise sys = rtt sys 14_000. -. rtt sys 0. in
  let open Common in
  let bsd = rise Bsd and ni = Float.max 1. (rise Ni_lrp) and soft = rise Soft_lrp in
  let lost n r =
    if r.system = Bsd then n else List.fold_left (fun n p -> n + p.lost) n r.points
  in
  let lrp_lost = List.fold_left lost 0 rows in
  [ claim "fig4.bsd-rise" "4.4BSD's RTT rise, idle to 14k, > 4 x NI-LRP's (min 1 us)"
      (bsd /. ni) (bsd > 4. *. ni);
    claim "fig4.soft-lrp-rise" "SOFT-LRP's RTT rise < 4.4BSD's (ratio)" (soft /. bsd)
      (soft < bsd);
    claim ~paper:0. "fig4.lrp-no-probe-loss"
      "LRP loses no probe at any load (traffic separation)"
      (float_of_int lrp_lost) (lrp_lost = 0) ]
