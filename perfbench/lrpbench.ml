(* lrpbench: one timed run of one benchmark workload, in a fresh process.

     lrpbench.exe --workload udp_overload|http_synflood|cluster_8x8
       [--arch A] [--seed N] [--index I] [--shards K] [--trace 0|1]
       [--slices N] [--t0 UNIX-TIME]

   The run builds its world through the simulator's public API, runs a
   simulated warm-up, then advances the simulation by N fixed simulated
   slices, timing each one (times scaled to nominal host speed, see
   speed.ml).  It prints one JSON object: the slice times, counter deltas
   over the timed window, the final simulated outputs and their digest,
   allocation and GC activity of all domains, and — with --trace 1 — the
   per-layer span totals.  perfbench/run.py turns these into metrics. *)

open Lrp_engine
open Lrp_net
open Lrp_kernel
open Lrp_workload
module Common = Lrp_experiments.Common

(* --- command line -------------------------------------------------------- *)

let workload = ref ""
let arch = ref "soft-lrp"
let seed = ref Common.default_seed
let index = ref 0
let shards = ref 1
let traced = ref false
let nslices = ref 1000
let t0 = ref (Unix.gettimeofday ())

let spec =
  [ ("--workload", Arg.Set_string workload, "NAME workload to run");
    ("--arch", Arg.Set_string arch, "ARCH receiver architecture");
    ("--seed", Arg.Set_int seed, "N benchmark seed");
    ("--index", Arg.Set_int index, "I run index (job seed = split(seed, I))");
    ("--shards", Arg.Set_int shards, "K shard domains (cluster_8x8)");
    ("--trace", Arg.Int (fun v -> traced := v <> 0), "0|1 record spans");
    ("--slices", Arg.Set_int nslices, "N simulated slices in the timed window");
    ("--t0", Arg.Set_float t0, "T wall time the process was spawned (default: now)") ]

let system_of_arch = function
  | "bsd" -> Common.Bsd
  | "soft-lrp" -> Common.Soft_lrp
  | "ni-lrp" -> Common.Ni_lrp
  | "early-demux" -> Common.Early_demux
  | "napi" -> Common.Napi
  | "napi-gro" -> Common.Napi_gro
  | "rss" -> Common.Rss
  | a -> raise (Arg.Bad ("unknown arch " ^ a))

(* --- spans around NIC calls ---------------------------------------------- *)

let spanned kind f x =
  let b = Span.buf () in
  Span.enter b kind;
  f x;
  Span.leave b

(* Wrap the NIC's kernel-installed entry points: [deliver] (to
   [Fabric.forward]), [rx_handler] (to [Kernel.rx_dispatch], immediate-mode
   archs) and [rx_kick] (NAPI-family interrupt). *)
let wrap_nic (nic : Nic.t) =
  let deliver = nic.deliver and rx = nic.rx_handler and kick = nic.rx_kick in
  nic.deliver <- spanned Span.deliver deliver;
  nic.rx_handler <- spanned Span.rx rx;
  if Nic.rx_queues nic > 0 then nic.rx_kick <- spanned Span.kick kick

(* The benchmark's in-kernel UDP source: [Blast.start_source]'s open-loop
   generator (14-byte datagrams, one re-armed event), with its
   [Nic.transmit] calls spanned in the traced run.  Its first datagram
   leaves at a phase drawn from the benchmark seed. *)
type source = { mutable sent : int }

let start_source engine nic ~rng ~src ~dst ~port ~rate =
  let s = { sent = 0 } in
  let interval = 1e6 /. rate in
  let phase = Rng.float rng interval in
  let handle = ref Engine.none in
  let send pkt = ignore (Nic.transmit nic pkt) in
  let send = if !traced then spanned Span.tx send else send in
  let tick () =
    send
      (Packet.udp ~src ~dst ~src_port:7777 ~dst_port:port
         (Payload.synthetic 14));
    s.sent <- s.sent + 1;
    Engine.reschedule_after engine !handle ~delay:interval
  in
  handle := Engine.schedule_after engine ~delay:(phase +. interval) tick;
  s

(* --- worlds -------------------------------------------------------------- *)

type world = {
  advance : float -> unit;  (* run the simulation to this virtual time *)
  warmup : float;
  slice_us : float;
  engines : Engine.t array;
  kernels : Kernel.t array;
  fabrics : Fabric.t array;
  sources : source list;
  sinks : Blast.sink list;
  http : Http.client_stats option;
  syn : Synflood.t option ref;
  sim : Shardsim.t option;
}

let nics w = Array.map Kernel.nic w.kernels

(* Figure 3's livelock point: 14-byte UDP at 20k pkts/s on one flow. *)
let udp_overload sys ~seed ~rng =
  let cfg = Common.config_of_system sys in
  let w, client, server = World.pair ~seed ~cfg () in
  let sink = Blast.start_sink server ~port:9000 () in
  let src =
    start_source (World.engine w) (Kernel.nic client) ~rng
      ~src:(Kernel.ip_address client) ~dst:(Kernel.ip_address server)
      ~port:9000 ~rate:20_000.
  in
  { advance = (fun until -> World.run w ~until); warmup = Time.ms 200.;
    slice_us = Time.ms 40.; engines = [| World.engine w |];
    kernels = [| client; server |]; fabrics = [| World.fabric w |];
    sources = [ src ]; sinks = [ sink ]; http = None; syn = ref None;
    sim = None }

(* Figure 5's world: 8 closed-loop HTTP clients against a process-per-
   request server, 500 ms TIME_WAIT, plus a 4k SYN/s spoofed flood at a
   listener that never accepts, starting at a phase drawn from the seed. *)
let http_synflood sys ~seed ~rng =
  let tune cfg = { cfg with Kernel.time_wait = Time.ms 500. } in
  let cfg = Common.config_of_system ~tune sys in
  let w = World.make ~seed () in
  let server = World.add_host w ~name:"server" cfg in
  let clients = World.add_host w ~name:"clients" cfg in
  let attacker = World.add_host w ~name:"attacker" cfg in
  ignore (Http.start_server server ~port:80 ());
  ignore
    (Lrp_sim.Cpu.spawn (Kernel.cpu server) ~name:"dummy" (fun self ->
         let lsock = Api.socket_stream server in
         Api.tcp_listen server ~self lsock ~port:99 ~backlog:5;
         Lrp_sim.Proc.block (Lrp_sim.Proc.waitq "dummy.forever")));
  let http =
    Http.start_clients clients ~dst:(Kernel.ip_address server, 80) ~n:8 ()
  in
  let syn = ref None in
  ignore
    (Engine.schedule (World.engine w) ~at:(Rng.float rng 250.) (fun () ->
         syn :=
           Some
             (Synflood.start (World.engine w) (Kernel.nic attacker)
                ~dst:(Kernel.ip_address server, 99)
                ~rate:4_000. ~until:infinity ())));
  { advance = (fun until -> World.run w ~until); warmup = Time.sec 2.;
    slice_us = Time.ms 100.; engines = [| World.engine w |];
    kernels = [| server; clients; attacker |]; fabrics = [| World.fabric w |];
    sources = []; sinks = []; http = Some http; syn; sim = None }

(* 64 SOFT-LRP hosts in 8 racks; each host sinks an intra-rack 2k pkts/s
   stream and a cross-rack 1k pkts/s stream through the spine. *)
let cluster_8x8 ~seed ~rng ~shards =
  let racks = 8 and hosts = 8 in
  let cfg = Common.config_of_system Common.Soft_lrp in
  let topo = Topology.spine_leaf ~seed ~racks ~hosts_per_rack:hosts ~cfg () in
  let sinks = ref [] and sources = ref [] in
  for r = 0 to racks - 1 do
    Topology.on_cell topo r (fun (cell : Topology.cell) ->
        (* Flight recorders on the first host of each rack, as in the
           repo's cluster experiment. *)
        Kernel.set_tracing cell.kernels.(0) true;
        Array.iter
          (fun k -> sinks := Blast.start_sink k ~port:9000 () :: !sinks)
          cell.kernels;
        Array.iteri
          (fun s k ->
            let stream ~rack ~slot rate =
              sources :=
                start_source cell.engine (Kernel.nic k) ~rng
                  ~src:(Kernel.ip_address k)
                  ~dst:(Topology.host_ip ~rack ~slot) ~port:9000 ~rate
                :: !sources
            in
            stream ~rack:r ~slot:((s + 1) mod hosts) 2_000.;
            stream ~rack:((r + 1) mod racks) ~slot:s 1_000.)
          cell.kernels)
  done;
  let cells = Topology.cells topo in
  let engines = Array.map (fun (c : Topology.cell) -> c.engine) cells in
  let sim =
    Shardsim.create ~shards ~lookahead:(Topology.lookahead topo)
      ~exchange:(Topology.exchange topo) engines
  in
  { advance = (fun until -> Shardsim.run sim ~until); warmup = Time.ms 50.;
    slice_us = Time.ms 5.; engines;
    kernels = Array.concat (Array.to_list (Array.map (fun (c : Topology.cell) -> c.kernels) cells));
    fabrics = Array.map (fun (c : Topology.cell) -> c.fabric) cells;
    sources = !sources; sinks = !sinks; http = None; syn = ref None;
    sim = Some sim }

(* --- counters ------------------------------------------------------------ *)

let sum f a = Array.fold_left (fun acc x -> acc + f x) 0 a
let sum_list f l = List.fold_left (fun acc x -> acc + f x) 0 l

let sum_rxq f nics =
  sum
    (fun n ->
      let s = ref 0 in
      for q = 0 to Nic.rx_queues n - 1 do
        s := !s + f (Nic.rxq_stats n q)
      done;
      !s)
    nics

(* Cumulative counters of everything in the world, in a fixed order.  All
   are simulation state, so they repeat exactly for a seed and do not
   depend on the shard count or on tracing. *)
let counters w =
  let ks = w.kernels and nics = nics w in
  let st f = sum (fun k -> f (Kernel.stats k)) ks in
  let chans f = sum (fun k -> sum_list f (Kernel.channels k)) ks in
  let timers f = sum (fun e -> f (Engine.timer_stats e)) w.engines in
  let cpu f = sum (fun k -> f (Kernel.cpu k)) ks in
  let up f = sum (fun fb -> f (Fabric.uplink_stats fb)) w.fabrics in
  let opt f = function Some x -> f x | None -> 0 in
  [ ("events", sum Engine.events_executed w.engines);
    ("frames", sum (fun n -> (Nic.stats n).rx_packets) nics);
    ("tx_frames", sum (fun n -> (Nic.stats n).tx_packets) nics);
    ("nic_tx_drops", sum (fun n -> (Nic.stats n).tx_drops) nics);
    ("sent", sum_list (fun s -> s.sent) w.sources);
    ("received", sum_list (fun (s : Blast.sink) -> s.received) w.sinks);
    ("http_completed", opt (fun (h : Http.client_stats) -> h.completed) w.http);
    ("http_failed", opt (fun (h : Http.client_stats) -> h.failed) w.http);
    ("syn_sent", opt (fun (s : Synflood.t) -> s.sent) !(w.syn));
    ("timers_scheduled", timers (fun s -> s.scheduled));
    ("timers_cancelled", timers (fun s -> s.cancelled));
    ("timers_wheel", timers (fun s -> s.routed_wheel));
    ("timers_heap", timers (fun s -> s.routed_heap));
    ("rxq_drops", sum_rxq (fun (_, d, _, _) -> d) nics);
    ("rxq_kicks", sum_rxq (fun (_, _, k, _) -> k) nics);
    ("fabric_drops", sum Fabric.drops w.fabrics);
    ("uplink_sent", up (fun u -> u.up_sent));
    ("uplink_dropped", up (fun u -> u.up_dropped));
    ("ipq_drops", st (fun s -> s.ipq_drops));
    ("mbuf_drops", st (fun s -> s.mbuf_drops));
    ("no_port_drops", st (fun s -> s.no_port_drops));
    ("demux_drops", st (fun s -> s.demux_drops));
    ("edemux_early_drops", st (fun s -> s.edemux_early_drops));
    ("csum_drops", st (fun s -> s.csum_drops));
    ("udp_delivered", st (fun s -> s.udp_delivered));
    ("tcp_delivered", st (fun s -> s.tcp_delivered));
    ("rsts_sent", st (fun s -> s.rsts_sent));
    ("chan_discards",
     chans (fun ch ->
         Lrp_core.Channel.discarded ch + Lrp_core.Channel.discarded_disabled ch));
    ("chantab_unmatched", sum (fun k -> Lrp_core.Chantab.unmatched (Kernel.chantab k)) ks);
    ("sockq_drops", sum_list (fun (s : Blast.sink) -> s.sock.stats.rx_sockq_drops) w.sinks);
    ("ctx_switches", cpu Lrp_sim.Cpu.context_switches);
    ("hardirqs", cpu Lrp_sim.Cpu.hardirq_dispatches);
    ("softirqs", cpu Lrp_sim.Cpu.softirq_dispatches) ]

(* End-of-run gauges: what is still queued anywhere, and high watermarks. *)
let gauges w =
  let ks = w.kernels and nics = nics w in
  let chans f = sum (fun k -> sum_list f (Kernel.channels k)) ks in
  [ ("queued",
     sum Nic.ifq_length nics
     + sum
         (fun n ->
           let s = ref 0 in
           for q = 0 to Nic.rx_queues n - 1 do
             s := !s + Nic.rxq_len n q
           done;
           !s)
         nics
     + sum (fun (k : Kernel.t) -> k.ipq_len) ks
     + chans Lrp_core.Channel.length
     + sum_list (fun (s : Blast.sink) -> Queue.length s.sock.udp_rcv) w.sinks
     + sum (fun fb -> (Fabric.uplink_stats fb).up_backlog) w.fabrics);
    ("channel_hwm",
     Array.fold_left
       (fun m k ->
         List.fold_left
           (fun m ch -> max m (Lrp_core.Channel.high_watermark ch))
           m (Kernel.channels k))
       0 ks) ]

let shardsim_counters w =
  match w.sim with
  | None -> [ ("epochs", 0); ("messages", 0); ("events_total", 0); ("events_critical", 0) ]
  | Some s ->
      [ ("epochs", Shardsim.epochs s); ("messages", Shardsim.messages s);
        ("events_total", Shardsim.events_total s);
        ("events_critical", Shardsim.events_critical s) ]

let delta after before = List.map2 (fun (k, a) (_, b) -> (k, a - b)) after before

(* --- engine dispatch calibration ----------------------------------------- *)

(* Nanoseconds per event of the engine alone: a fresh engine holding
   [depth] periodic no-op events, the queue depth the world had, run
   through the same [Engine.run].  The slice's time minus the wrapped
   spans minus [events * dispatch_ns] is the host work done inside
   simulated processes. *)
let dispatch_ns ~depth =
  let saved = Idspace.current () in
  let e = Engine.create ~seed:1 () in
  Idspace.use saved;
  let depth = max 1 depth in
  for i = 1 to depth do
    let period = 10. +. float_of_int (i mod 97) in
    let h = ref Engine.none in
    h := Engine.schedule_after e ~delay:period (fun () ->
        Engine.reschedule_after e !h ~delay:period)
  done;
  let per_us = float_of_int depth /. 58. in
  let round () =
    let n0 = Engine.events_executed e in
    let a = Span.clock () in
    Engine.run e ~until:(Engine.now e +. (300_000. /. per_us));
    float_of_int (Span.clock () - a)
    /. float_of_int (max 1 (Engine.events_executed e - n0))
  in
  ignore (round ());
  let r = Array.init 5 (fun _ -> round ()) in
  Array.sort Float.compare r;
  r.(2)

(* --- output -------------------------------------------------------------- *)

let json_obj fields = "{" ^ String.concat ", " fields ^ "}"
let jf k v = Printf.sprintf "%S: %.17g" k v
let ji k v = Printf.sprintf "%S: %d" k v
let js k v = Printf.sprintf "%S: %S" k v
let jcounters k l = Printf.sprintf "%S: %s" k (json_obj (List.map (fun (n, v) -> ji n v) l))

(* --- main ---------------------------------------------------------------- *)

let () =
  Arg.parse spec (fun a -> raise (Arg.Bad ("stray argument " ^ a))) "lrpbench.exe [options]";
  let seed = Common.job_seed ~seed:!seed ~index:!index in
  (* The benchmark's own stream for input phases; the worlds' engines
     seed theirs from [seed] as the experiments do. *)
  let rng = Rng.create (Rng.split_seed ~seed ~index:1) in
  let w =
    match !workload with
    | "udp_overload" -> udp_overload (system_of_arch !arch) ~seed ~rng
    | "http_synflood" -> http_synflood (system_of_arch !arch) ~seed ~rng
    | "cluster_8x8" -> cluster_8x8 ~seed ~rng ~shards:!shards
    | s -> raise (Arg.Bad ("unknown workload " ^ s))
  in
  if !traced then Array.iter wrap_nic (nics w);
  w.advance w.warmup;
  let setup_end = Unix.gettimeofday () in
  let rt = Rtev.create () in
  let depth = sum Engine.pending_events w.engines / Array.length w.engines in
  let calib =
    if !traced then Span.calibrate ()
    else { Span.inner_ns = 0.; outer_ns = 0.; outer_words = 0. }
  in
  let c0 = counters w and s0 = shardsim_counters w in
  Rtev.mark ~reset:true rt;
  let f0 = Speed.sample () in
  let setup_s = (setup_end -. !t0) *. f0 in
  let tot = Span.totals () in
  Span.reset ();
  let n = !nslices in
  let slice_ms = Array.make n 0. in
  let words_self = ref 0. and raw_ns = ref 0 in
  (* One speed pass after every slice; every ~5 ms of slices, scale the
     chunk's slice times by the passes' factor. *)
  let first = ref 0 and since = ref 0 and passes = ref 0 and pass_ns = ref 0 in
  let rescale upto =
    let f = Speed.factor ~passes:!passes ~ns:!pass_ns in
    for i = !first to upto - 1 do
      slice_ms.(i) <- slice_ms.(i) *. f
    done;
    first := upto;
    since := 0;
    passes := 0;
    pass_ns := 0
  in
  for k = 0 to n - 1 do
    let until = w.warmup +. (float_of_int (k + 1) *. w.slice_us) in
    let wb = Gc.minor_words () in
    let a = Span.clock () in
    if !traced then begin
      let b = Span.buf () in
      Span.enter b Span.slice;
      w.advance until;
      Span.leave b
    end
    else w.advance until;
    let d = Span.clock () - a in
    words_self := !words_self +. (Gc.minor_words () -. wb);
    raw_ns := !raw_ns + d;
    since := !since + d;
    slice_ms.(k) <- float_of_int d /. 1e6;
    if !traced then Span.fold_slice calib tot;
    Rtev.poll rt;
    pass_ns := !pass_ns + Speed.pass ();
    incr passes;
    if !since >= 5_000_000 then rescale (k + 1)
  done;
  if !passes > 0 then rescale n;
  let wall_s = Array.fold_left ( +. ) 0. slice_ms /. 1e3 in
  Rtev.mark rt;
  let c1 = counters w and s1 = shardsim_counters w in
  let final = c1 @ gauges w in
  let outputs =
    String.concat " " (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) c1)
    ^ " sinks="
    ^ String.concat "," (List.map (fun (s : Blast.sink) -> string_of_int s.received) w.sinks)
  in
  let digest = Lrp_experiments.Cluster.fnv1a64 outputs in
  let top_heap_mb =
    float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let spans =
    Array.to_list
      (Array.mapi
         (fun i name ->
           Printf.sprintf "%S: %s" name
             (json_obj
                [ ji "count" tot.count.(i); jf "incl_ns" tot.incl_ns.(i);
                  jf "self_ns" tot.self_ns.(i); jf "words" tot.words.(i) ]))
         Span.names)
  in
  let dispatch = if !traced then dispatch_ns ~depth else 0. in
  let fields =
    [ js "workload" !workload; js "arch" !arch; ji "shards" !shards;
      ji "traced" (if !traced then 1 else 0);
      jf "setup_s" setup_s; jf "wall_s" wall_s;
      jf "raw_wall_s" (float_of_int !raw_ns /. 1e9); ji "slices" n;
      jf "sim_window_us" (float_of_int n *. w.slice_us);
      Printf.sprintf "%S: [%s]" "slice_ms"
        (String.concat ","
           (List.init n (fun i -> Printf.sprintf "%.6f" slice_ms.(i))));
      jcounters "window" (delta c1 c0); jcounters "final" final;
      jcounters "shardsim" (delta s1 s0);
      js "digest" (Printf.sprintf "%016Lx" digest);
      jf "words_self" !words_self; jf "words_all" (Rtev.minor_words rt);
      jf "promoted_all" (Rtev.promoted_words rt);
      ji "minor_collections" rt.c.minors; ji "major_slices" rt.c.major_slices;
      jf "gc_pause_ms_p99" (Rtev.pause_ms_p99 rt); ji "rtev_lost" rt.c.lost;
      jf "top_heap_mb" top_heap_mb;
      Printf.sprintf "%S: %s" "spans" (json_obj spans);
      ji "spans_unbalanced" tot.unbalanced; jf "dispatch_ns" dispatch ]
  in
  print_endline (json_obj fields)
