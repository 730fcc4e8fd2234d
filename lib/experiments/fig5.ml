(** Figure 5: HTTP server throughput under a SYN flood; the shapes are
    [claims]. *)

open Lrp_engine
open Lrp_kernel
open Lrp_workload

type point = {
  syn_rate : float;
  http_per_sec : float;
  failed : int;
  syn_discards : int;  (* early discards at the dummy listener's channel *)
}

type row = { system : Common.system; points : point list }

let measure ?(seed = Common.default_seed) sys ~syn_rate ~duration =
  let tune cfg = { cfg with Kernel.time_wait = Time.ms 500. } in
  let cfg = Common.config_of_system ~tune sys in
  let w = World.make ~seed () in
  let server = World.add_host w ~name:"server" cfg in
  let clients = World.add_host w ~name:"clients" cfg in
  let attacker = World.add_host w ~name:"attacker" cfg in
  ignore (Http.start_server server ~port:80 ());
  (* The dummy server: listens on port 99, never accepts. *)
  ignore
    (Lrp_sim.Cpu.spawn (Kernel.cpu server) ~name:"dummy" (fun self ->
         let lsock = Api.socket_stream server in
         Api.tcp_listen server ~self lsock ~port:99 ~backlog:5;
         Lrp_sim.Proc.block (Lrp_sim.Proc.waitq "dummy.forever")));
  let stats =
    Http.start_clients clients ~dst:(Kernel.ip_address server, 80) ~n:8 ()
  in
  if syn_rate > 0. then
    ignore
      (Synflood.start (World.engine w) (Kernel.nic attacker)
         ~dst:(Kernel.ip_address server, 99)
         ~rate:syn_rate ~until:(Time.sec 1_000.) ());
  (* Warm up, then measure over the steady window. *)
  let warmup = Time.sec 2. in
  World.run w ~until:warmup;
  let base = stats.Http.completed in
  World.run w ~until:(warmup +. duration);
  let served = stats.Http.completed - base in
  let syn_discards =
    List.fold_left
      (fun acc ch ->
        acc + Lrp_core.Channel.discarded ch
        + Lrp_core.Channel.discarded_disabled ch)
      0 (Kernel.channels server)
  in
  { syn_rate;
    http_per_sec = float_of_int served *. 1e6 /. duration;
    failed = stats.Http.failed;
    syn_discards }

let default_rates =
  [ 0.; 1_000.; 2_000.; 4_000.; 6_000.; 8_000.; 10_000.; 12_000.; 14_000.;
    16_000.; 20_000. ]

let run ?(quick = false) ?(jobs = 1) ?(seed = Common.default_seed) () =
  let duration = if quick then Time.sec 2. else Time.sec 8. in
  let rates = if quick then [ 0.; 6_000.; 12_000.; 20_000. ] else default_rates in
  List.map
    (fun (system, points) -> { system; points })
    (Common.grid ~jobs ~seed Common.fig5_systems rates (fun ~seed sys r ->
         measure ~seed sys ~syn_rate:r ~duration))

let print rows =
  Common.print_title "Figure 5: HTTP Server Throughput under SYN flood";
  List.iter
    (fun r ->
      Common.printf "\n  [%s]\n" (Common.system_name r.system);
      Common.printf "  %-14s %-12s %-10s\n" "SYN (pkts/s)" "HTTP (op/s)" "";
      let ymax =
        List.fold_left (fun acc p -> Float.max acc p.http_per_sec) 1. r.points
      in
      List.iter
        (fun p ->
          let bar = int_of_float (p.http_per_sec /. ymax *. 50.) in
          Common.printf "  %-14.0f %-12.1f %s\n" p.syn_rate p.http_per_sec
            (String.make (max 0 bar) '#'))
        r.points)
    rows

let claims rows =
  let at f sys rate =
    Common.pick f (fun p -> p.syn_rate = rate)
      (List.concat_map (fun r -> if r.system = sys then r.points else []) rows)
  in
  let open Common in
  let bsd = at (fun p -> p.http_per_sec) Bsd in
  let soft = at (fun p -> p.http_per_sec) Soft_lrp in
  let gap = Float.abs (bsd 0. -. soft 0.) /. soft 0. in
  let discards = at (fun p -> float_of_int p.syn_discards) Soft_lrp 20_000. in
  [ claim "fig5.baselines-comparable"
      "unflooded, |4.4BSD - SOFT-LRP| / SOFT-LRP < 0.2" gap (gap < 0.2);
    claim "fig5.bsd-livelock" "4.4BSD livelocks: 20k SYN/s < 0.1 x unflooded"
      (bsd 20_000. /. bsd 0.) (bsd 20_000. < 0.1 *. bsd 0.);
    claim ~paper:0.5 "fig5.soft-lrp-holds" "SOFT-LRP keeps > 0.35 x unflooded at 20k"
      (soft 20_000. /. soft 0.) (soft 20_000. > 0.35 *. soft 0.);
    claim "fig5.syn-discards" "SOFT-LRP discards > 10,000 flood SYNs at 20k"
      discards (discards > 10_000.) ]
