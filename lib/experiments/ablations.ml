(** Ablations of LRP's individual design choices; each has its claims. *)

open Lrp_engine
open Lrp_sim
open Lrp_net
open Lrp_kernel
open Lrp_workload

(* --- early discard ----------------------------------------------------- *)

type discard_row = {
  bounded : bool;
  delivered : float;       (* pkts/s *)
  discards : int;
  backlog : int;           (* packets stranded in channels at the end *)
  queue_delay_ms : float;  (* rough staleness: backlog / delivery rate *)
}

let discard ?(jobs = 1) ?(seed = Common.default_seed) () =
  let rate = 20_000. and duration = Time.sec 2. in
  let run seed bounded =
    let cfg = Kernel.default_config Kernel.Ni_lrp in
    let cfg =
      (* "Unbounded" has to stay finite: channels preallocate their ring,
         so give the ablated kernel room for every frame the source can
         offer rather than [max_int]. *)
      if bounded then cfg
      else { cfg with Kernel.channel_limit = 1 lsl 20 }
    in
    let w, client, server = World.pair ~seed ~cfg () in
    let sink, _ = Blast.flood ~client ~server ~rate ~until:duration () in
    World.run w ~until:duration;
    let delivered = float_of_int sink.Blast.received *. 1e6 /. duration in
    let backlog =
      List.fold_left
        (fun acc ch -> acc + Lrp_core.Channel.length ch)
        0 (Kernel.channels server)
    in
    { bounded; delivered; discards = Kernel.early_discards server; backlog;
      queue_delay_ms =
        (if delivered > 0. then float_of_int backlog /. delivered *. 1e3
         else 0.) }
  in
  Common.sweep ~jobs
    (fun i bounded -> run (Common.job_seed ~seed ~index:i) bounded)
    [ true; false ]

let print_discard rows =
  Common.print_title "Ablation: early packet discard (NI-LRP, 20k pkts/s)";
  Common.printf "  %-22s %12s %10s %10s %12s\n" "channels" "delivered/s"
    "discards" "backlog" "staleness";
  List.iter
    (fun r ->
      Common.printf "  %-22s %12.0f %10d %10d %9.0f ms\n"
        (if r.bounded then "bounded (LRP)" else "unbounded (ablated)")
        r.delivered r.discards r.backlog r.queue_delay_ms)
    rows

let discard_claims rows =
  let get f bounded = Common.pick f (fun r -> r.bounded = bounded) rows in
  let delivered = get (fun r -> r.delivered) in
  let stale = get (fun r -> r.queue_delay_ms) false in
  [ Common.claim "ablate-discard.throughput-unchanged"
      "unbounded channels deliver exactly what bounded ones do (ratio)"
      (delivered false /. delivered true) (delivered false = delivered true);
    Common.claim "ablate-discard.seconds-stale"
      "without early discard, delivered packets are >= 1 s stale (ms)" stale
      (stale >= 1_000.) ]

(* --- APP accounting ----------------------------------------------------- *)

type accounting_row = {
  fair : bool;
  hog_progress : float;        (* fraction of the CPU the bystander got *)
  receiver_share : float;      (* process + its APP thread, actual CPU *)
  receiver_billed : float;     (* what the scheduler charged the receiver *)
}

let accounting ?(jobs = 1) ?(seed = Common.default_seed) () =
  let duration = Time.sec 8. in
  let run seed fair =
    (* A small MSS and a cheap copy make per-segment protocol processing
       (the APP thread's work) dominate, so the accounting policy is what
       decides who gets billed.  The channel is deepened so a full window
       of small segments fits. *)
    let costs = { Cost.default with Cost.copy_per_byte = 0.01 } in
    let cfg = Kernel.default_config ~costs Kernel.Soft_lrp in
    let cfg =
      { cfg with Kernel.fair_app_accounting = fair; Kernel.mss = 512;
        Kernel.channel_limit = 256 }
    in
    let w, client, server = World.pair ~seed ~cfg () in
    (* A compute-bound bystander... *)
    let hog = Spinner.start (Kernel.cpu server) ~nice:0 ~name:"hog" () in
    (* ... and a process sinking a fast TCP stream. *)
    let receiver = ref None in
    ignore
      (Cpu.spawn (Kernel.cpu server) ~name:"netsink" (fun self ->
           receiver := Some self;
           let lsock = Api.socket_stream server in
           Api.tcp_listen server ~self lsock ~port:5001 ~backlog:4;
           let conn = Api.tcp_accept server ~self lsock in
           let rec drain () =
             match Api.tcp_recv server conn ~max:65_536 with
             | `Data _ -> drain ()
             | `Eof -> ()
           in
           drain ()));
    ignore
      (Cpu.spawn (Kernel.cpu client) ~name:"tx" (fun self ->
           let sock = Api.socket_stream client in
           match
             Api.tcp_connect client ~self sock
               ~remote:(Kernel.ip_address server, 5001)
           with
           | `Refused -> ()
           | `Ok ->
               let rec pump () =
                 match Api.tcp_send client sock (Payload.synthetic 65_536) with
                 | `Ok -> pump ()
                 | `Closed -> ()
               in
               pump ()));
    World.run w ~until:duration;
    let apps_cpu =
      let acc = ref 0. in
      Cpu.iter_procs (Kernel.cpu server) (fun p ->
          if String.length p.Proc.name >= 4 && String.sub p.Proc.name 0 4 = "app-"
          then acc := !acc +. Proc.cpu_time p);
      !acc
    in
    let rx_cpu =
      match !receiver with Some p -> Proc.cpu_time p | None -> 0.
    in
    (* What the decay-usage scheduler believes the receiver consumed: its
       charged ticks (one tick = 10 ms).  Under fair accounting this
       includes the APP thread's protocol processing; ablated, that work
       is billed to the (anonymous) APP thread instead. *)
    let billed =
      match !receiver with
      | Some p ->
          float_of_int (Lrp_sched.Sched.ticks_charged p.Proc.thread)
          *. Lrp_sched.Sched.tick_interval /. duration
      | None -> 0.
    in
    { fair;
      hog_progress = Proc.cpu_time hog /. duration;
      receiver_share = (rx_cpu +. apps_cpu) /. duration;
      receiver_billed = billed }
  in
  Common.sweep ~jobs
    (fun i fair -> run (Common.job_seed ~seed ~index:i) fair)
    [ true; false ]

let print_accounting rows =
  Common.print_title
    "Ablation: APP-thread accounting (TCP sink vs compute-bound bystander)";
  Common.printf "  %-26s %14s %16s %16s\n" "accounting" "bystander CPU"
    "sink used CPU" "sink billed";
  List.iter
    (fun r ->
      Common.printf "  %-26s %13.1f%% %15.1f%% %15.1f%%\n"
        (if r.fair then "charged to receiver (LRP)" else "self-charged (ablated)")
        (100. *. r.hog_progress)
        (100. *. r.receiver_share)
        (100. *. r.receiver_billed))
    rows

let accounting_claims rows =
  let get f fair = Common.pick f (fun r -> r.fair = fair) rows in
  let hog = get (fun r -> r.hog_progress) in
  let billed = get (fun r -> r.receiver_billed /. r.receiver_share) true in
  [ Common.claim "ablate-accounting.bystander-squeezed"
      "self-charged APP threads squeeze the bystander (its CPU, ablated/LRP)"
      (hog false /. hog true) (hog false < hog true);
    Common.claim "ablate-accounting.lrp-bills-receiver"
      "LRP bills the sink at least the CPU its pipeline uses (billed/used)" billed
      (billed >= 1.) ]

(* --- soft-demux cost sensitivity ----------------------------------------- *)

type demux_row = { demux_us : float; delivered : float }

let demux_cost ?(jobs = 1) ?(seed = Common.default_seed) () =
  let rate = 20_000. and duration = Time.sec 1.5 in
  Common.sweep ~jobs
    (fun i demux_us ->
      let costs = { Cost.default with Cost.demux = demux_us } in
      let cfg = Kernel.default_config ~costs Kernel.Soft_lrp in
      let w, client, server =
        World.pair ~seed:(Common.job_seed ~seed ~index:i) ~cfg ()
      in
      let sink, _ = Blast.flood ~client ~server ~rate ~until:duration () in
      World.run w ~until:duration;
      { demux_us;
        delivered = float_of_int sink.Blast.received *. 1e6 /. duration })
    [ 4.; 8.; 16.; 32. ]

let print_demux_cost rows =
  Common.print_title
    "Ablation: soft-demux cost sensitivity (SOFT-LRP at 20k pkts/s)";
  Common.printf "  %-12s %12s\n" "demux (us)" "delivered/s";
  List.iter
    (fun r -> Common.printf "  %-12.0f %12.0f\n" r.demux_us r.delivered)
    rows

let demux_claims rows =
  let rec falls = function
    | a :: (b :: _ as rest) -> b.delivered < a.delivered && falls rest
    | _ -> true
  in
  let first = Common.pick (fun r -> r.delivered) (fun _ -> true) in
  [ Common.claim "ablate-demux.postpones"
      "delivered falls with each step up in demux cost (costliest/cheapest)"
      (first (List.rev rows) /. first rows)
      (rows <> [] && falls rows) ]
