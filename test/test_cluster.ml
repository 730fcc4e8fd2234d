(* Tests for the sharded multi-host simulation: Shardsim's epoch
   protocol (including the lookahead-boundary case), the spine-leaf
   topology's uplink conservation law, per-engine id streams, and — the
   tentpole contract — shard-count invariance of the cluster experiment's
   digest, asserted both on fixed parameters and over random topologies. *)

open Lrp_engine
open Lrp_net
open Lrp_kernel
open Lrp_workload
open Lrp_experiments

(* --- Shardsim unit behaviour ------------------------------------------- *)

let mk_cells n = Array.init n (fun i -> Engine.create ~seed:(100 + i) ())

let no_exchange () = 0

let test_shardsim_validation () =
  Alcotest.check_raises "zero cells"
    (Invalid_argument "Shardsim.create: no cells") (fun () ->
      ignore
        (Shardsim.create ~lookahead:1. ~exchange:no_exchange (mk_cells 0)));
  Alcotest.check_raises "zero lookahead"
    (Invalid_argument "Shardsim.create: lookahead must be positive and finite")
    (fun () ->
      ignore
        (Shardsim.create ~lookahead:0. ~exchange:no_exchange (mk_cells 2)));
  Alcotest.check_raises "infinite lookahead"
    (Invalid_argument "Shardsim.create: lookahead must be positive and finite")
    (fun () ->
      ignore
        (Shardsim.create ~lookahead:infinity ~exchange:no_exchange
           (mk_cells 2)))

let test_shardsim_clamping () =
  let shards_of n cells =
    Shardsim.shards
      (Shardsim.create ~shards:n ~lookahead:1. ~exchange:no_exchange
         (mk_cells cells))
  in
  Alcotest.(check int) "clamped down to cell count" 3 (shards_of 16 3);
  Alcotest.(check int) "clamped up to one" 1 (shards_of 0 3);
  Alcotest.(check int) "in range untouched" 2 (shards_of 2 4)

(* The boundary case of the conservative-lookahead argument: a cross-cell
   message sent at time [t] lands at exactly [t + lookahead] — the edge of
   the epoch's safe bound — and collides with a local event scheduled at
   the same instant.  The run must be byte-identical at shards 1 and 2,
   with the pre-existing local event firing before the barrier-injected
   arrival (engine FIFO order at equal keys). *)
let run_boundary shards =
  let lookahead = 100. in
  let cells = mk_cells 2 in
  let logs = Array.init 2 (fun _ -> Buffer.create 256) in
  (* Per-cell outboxes: cell [i]'s handlers write only slot [i]; the
     exchange closure (coordinator, at barriers) drains them all. *)
  let outboxes : (int * float * int) list array = Array.make 2 [] in
  let tgts =
    Array.init 2 (fun i ->
        Engine.target cells.(i) (fun hop ->
            Buffer.add_string logs.(i)
              (Printf.sprintf "cell%d hop%d @%.1f\n" i hop
                 (Engine.now cells.(i)));
            if hop < 3 then
              outboxes.(i) <-
                (1 - i, Engine.now cells.(i) +. lookahead, hop + 1)
                :: outboxes.(i)))
  in
  ignore
    (Engine.schedule cells.(0) ~at:0. (fun () ->
         Buffer.add_string logs.(0) "cell0 send @0.0\n";
         outboxes.(0) <- [ (1, lookahead, 1) ]));
  (* The collision: a local event at exactly the first arrival time. *)
  ignore
    (Engine.schedule cells.(1) ~at:lookahead (fun () ->
         Buffer.add_string logs.(1) "cell1 local @100.0\n"));
  let exchange () =
    let moved = ref 0 in
    for src = 0 to 1 do
      List.iter
        (fun (dst, at, hop) ->
          incr moved;
          ignore (Engine.schedule_to cells.(dst) ~at tgts.(dst) hop))
        (List.rev outboxes.(src));
      outboxes.(src) <- []
    done;
    !moved
  in
  let sim = Shardsim.create ~shards ~lookahead ~exchange cells in
  Shardsim.run sim ~until:450.;
  ( Buffer.contents logs.(0) ^ Buffer.contents logs.(1),
    Shardsim.epochs sim,
    Shardsim.messages sim,
    Shardsim.events_total sim )

let test_lookahead_boundary () =
  let log1, epochs1, msgs1, events1 = run_boundary 1 in
  let log2, epochs2, msgs2, events2 = run_boundary 2 in
  Alcotest.(check string) "logs identical at shards 1 and 2" log1 log2;
  Alcotest.(check int) "epochs identical" epochs1 epochs2;
  Alcotest.(check int) "messages identical" msgs1 msgs2;
  Alcotest.(check int) "events identical" events1 events2;
  Alcotest.(check int) "the full ping-pong crossed" 3 msgs1;
  Alcotest.(check string) "local event precedes the boundary arrival"
    "cell0 send @0.0\ncell0 hop2 @200.0\ncell1 local @100.0\n\
     cell1 hop1 @100.0\ncell1 hop3 @300.0\n"
    log1

(* --- per-engine id streams --------------------------------------------- *)

let test_idspace_per_engine () =
  let e1 = Engine.create ~seed:1 () in
  let e2 = Engine.create ~seed:2 () in
  Idspace.use (Engine.ids e1);
  let a = Idspace.next_pkt_ident () in
  Idspace.use (Engine.ids e2);
  let b = Idspace.next_pkt_ident () in
  Idspace.use (Engine.ids e1);
  let c = Idspace.next_pkt_ident () in
  Alcotest.(check int) "fresh stream starts at 1" 1 a;
  Alcotest.(check int) "second engine has its own stream" 1 b;
  Alcotest.(check int) "first stream resumes where it left off" 2 c

(* --- uplink conservation over a small topology ------------------------- *)

let test_uplink_conservation () =
  let cfg = Kernel.default_config Kernel.Soft_lrp in
  let topo = Topology.spine_leaf ~seed:7 ~racks:2 ~hosts_per_rack:2 ~cfg () in
  let until = Time.ms 20. in
  for r = 0 to 1 do
    Topology.on_cell topo r (fun (cell : Topology.cell) ->
        Array.iter
          (fun k -> ignore (Blast.start_sink k ~port:9000 ()))
          cell.Topology.kernels;
        let k = cell.Topology.kernels.(0) in
        ignore
          (Blast.start_source cell.Topology.engine (Kernel.nic k)
             ~src:(Kernel.ip_address k)
             ~dst:(Topology.host_ip ~rack:(1 - r) ~slot:0, 9000)
             ~rate:1_000. ~size:32 ~until ()))
  done;
  ignore (Topology.run ~shards:2 topo ~until);
  let sent, received, backlog =
    Array.fold_left
      (fun (s, r, b) (c : Topology.cell) ->
        let u = Fabric.uplink_stats c.Topology.fabric in
        ( s + u.Fabric.up_sent,
          r + u.Fabric.up_received,
          b + u.Fabric.up_backlog ))
      (0, 0, 0) (Topology.cells topo)
  in
  Alcotest.(check bool) "spine carried traffic" true (sent > 0);
  Alcotest.(check int) "conservation: sent = received + backlog" sent
    (received + backlog);
  Alcotest.(check int) "fully drained after the run" 0 backlog

(* --- the epoch loop allocates nothing per epoch ------------------------- *)

(* An idle two-rack cluster still runs epochs (each kernel's CPU clock
   ticks), so the coordinator's per-epoch work — the global deadline,
   the bound, one advance per shard and the barrier exchange — is all
   that runs.  Words per [Shardsim.run] are a per-call constant (the
   team, the loop closure) plus a per-epoch part, so a run covering twice
   the epochs must allocate exactly as much as the shorter one.  Only
   the calling domain's words are counted: at 2 shards that is the
   caller's side of the team barrier and the serial exchange. *)
let test_epoch_loop_allocation_free shards () =
  let cfg = Kernel.default_config Kernel.Soft_lrp in
  let topo = Topology.spine_leaf ~racks:2 ~hosts_per_rack:1 ~cfg () in
  let engines =
    Array.map (fun (c : Topology.cell) -> c.Topology.engine)
      (Topology.cells topo)
  in
  let sim =
    Shardsim.create ~shards ~lookahead:(Topology.lookahead topo)
      ~exchange:(Topology.exchange topo) engines
  in
  let words_to ms =
    let w0 = Gc.minor_words () in
    Shardsim.run sim ~until:(Time.ms ms);
    Gc.minor_words () -. w0
  in
  ignore (words_to 20.);
  let e0 = Shardsim.epochs sim in
  let short = words_to 40. in
  let e1 = Shardsim.epochs sim in
  let long = words_to 80. in
  let e2 = Shardsim.epochs sim in
  Alcotest.(check bool) "the idle cluster runs epochs" true (e1 > e0);
  Alcotest.(check bool) "the longer run covers more epochs" true
    (e2 - e1 > e1 - e0);
  Alcotest.(check (float 0.)) "words independent of the epoch count" short
    long

(* --- the tentpole contract: shard-count invariance --------------------- *)

let quick_run ?(seed = 42) ?(racks = 3) ?(hosts_per_rack = 2) ~shards () =
  Cluster.run ~seed ~racks ~hosts_per_rack ~shards ~rate:1_500.
    ~duration:(Time.ms 25.) ()

let test_digest_parity () =
  let r1 = quick_run ~shards:1 () in
  Alcotest.(check bool) "traffic flowed" true (r1.Cluster.delivered > 0);
  Alcotest.(check bool) "spine exercised" true (r1.Cluster.cross_frames > 0);
  Alcotest.(check bool) "recorder dump non-empty" true
    (String.length r1.Cluster.dump > 0);
  List.iter
    (fun shards ->
      let r = quick_run ~shards () in
      let name what = Printf.sprintf "shards %d: %s" shards what in
      Alcotest.(check string) (name "dump") r1.Cluster.dump r.Cluster.dump;
      Alcotest.(check int64) (name "digest") r1.Cluster.digest r.Cluster.digest;
      Alcotest.(check int) (name "epochs") r1.Cluster.epochs r.Cluster.epochs;
      Alcotest.(check int) (name "events") r1.Cluster.events r.Cluster.events;
      Alcotest.(check string) (name "report") (Cluster.report r1)
        (Cluster.report r))
    [ 2; 3 ]

(* The default 8x8 cluster at 1 and 8 shards: identical digests, and a
   partition whose epoch schedule exposes at least a 4x critical-path
   speedup.  Both figures are deterministic, so they hold on any machine
   whatever its core count. *)
let test_default_cluster_8_shards () =
  let run shards = Cluster.run ~shards ~duration:(Time.ms 50.) () in
  let r1 = run 1 and r8 = run 8 in
  Alcotest.(check int64) "digest identical at 1 and 8 shards"
    r1.Cluster.digest r8.Cluster.digest;
  let avail = Cluster.speedup_available r8 in
  Alcotest.(check bool)
    (Printf.sprintf "speedup_available %.2fx >= 4x" avail)
    true (avail >= 4.)

(* Random topology and workload parameters: the digest must not depend on
   the shard count, including shard counts above the rack count. *)
let prop_shard_invariance =
  QCheck.Test.make ~count:6 ~name:"cluster digest invariant in shard count"
    QCheck.(
      triple (int_range 0 1_000) (int_range 1 3) (int_range 1 3))
    (fun (seed, racks, hosts_per_rack) ->
      let digest shards =
        (Cluster.run ~seed ~racks ~hosts_per_rack ~shards ~rate:1_200.
           ~duration:(Time.ms 10.) ())
          .Cluster.digest
      in
      let d1 = digest 1 in
      Int64.equal d1 (digest 2) && Int64.equal d1 (digest 8))

(* A 4x4 spine-leaf cluster of SOFT-LRP hosts under the cluster
   experiment's blast load, for [duration]; [advance] moves it to the
   horizon and the summary covers every host, every cell's engine and
   every source and sink. *)
let cluster_4x4 advance =
  let racks = 4 and hosts = 4 and duration = Time.ms 30. in
  let cfg = Common.config_of_system Common.Soft_lrp in
  let topo =
    Topology.spine_leaf ~seed:42 ~racks ~hosts_per_rack:hosts ~cfg ()
  in
  let sinks = ref [] and sources = ref [] in
  for r = 0 to racks - 1 do
    Topology.on_cell topo r (fun (cell : Topology.cell) ->
        Kernel.set_tracing cell.kernels.(0) true;
        Array.iter
          (fun k -> sinks := Blast.start_sink k ~port:9000 () :: !sinks)
          cell.kernels;
        Array.iteri
          (fun s k ->
            let src = Kernel.ip_address k in
            let start dst rate =
              sources :=
                Blast.start_source cell.engine (Kernel.nic k) ~src ~dst ~rate
                  ~size:14 ~until:duration ()
                :: !sources
            in
            let next = (s + 1) mod hosts and over = (r + 1) mod racks in
            start (Topology.host_ip ~rack:r ~slot:next, 9000) 2000.;
            start (Topology.host_ip ~rack:over ~slot:s, 9000) 1000.)
          cell.kernels)
  done;
  advance topo ~until:duration;
  let b = Buffer.create 4096 in
  List.iter
    (fun (s : Blast.source) -> Printf.bprintf b "sent=%d\n" s.Blast.sent)
    !sources;
  List.iter
    (fun (s : Blast.sink) -> Printf.bprintf b "received=%d\n" s.Blast.received)
    !sinks;
  Array.iter
    (fun (c : Topology.cell) ->
      Buffer.add_string b
        (Test_golden.summary_of_engine ~counters:true c.engine
           (Array.to_list c.kernels) ""))
    (Topology.cells topo);
  Buffer.contents b

(* Shardsim's epoch protocol (global min deadline [d], bound
   [min (d + lookahead) until], barrier exchange, drain, snap), with
   every cell advanced one event at a time. *)
let stepped_cluster topo ~until =
  let cells = Topology.cells topo and cell = [| 0. |] in
  let advance bound =
    Array.iteri
      (fun r _ ->
        Topology.on_cell topo r (fun (c : Topology.cell) ->
            Test_golden.stepped c.engine ~until:bound))
      cells
  in
  let rec loop () =
    let d =
      Array.fold_left
        (fun d (c : Topology.cell) ->
          if Engine.next_key_into c.engine ~cell && cell.(0) < d then cell.(0)
          else d)
        Float.infinity cells
    in
    if d <= until then begin
      advance (Float.min (d +. Topology.lookahead topo) until);
      ignore (Topology.exchange topo ());
      loop ()
    end
    else if Topology.exchange topo () > 0 then loop ()
    else advance until
  in
  loop ()

(* Shardsim's batched cell runs, run-ahead segments included, against
   the same epoch loop stepped one event at a time (DESIGN §17). *)
let test_cluster_run_equals_stepping () =
  let want = cluster_4x4 stepped_cluster in
  List.iter
    (fun shards ->
      Alcotest.(check string)
        (Printf.sprintf "4x4 cluster, %d shard(s): run = stepping" shards)
        want
        (cluster_4x4 (fun topo ~until ->
             ignore (Topology.run ~shards topo ~until : Shardsim.t))))
    [ 1; 2 ]

let suite =
  [ Alcotest.test_case "Shardsim rejects bad arguments" `Quick
      test_shardsim_validation;
    Alcotest.test_case "Shardsim clamps the shard count" `Quick
      test_shardsim_clamping;
    Alcotest.test_case "lookahead-boundary arrival is deterministic" `Quick
      test_lookahead_boundary;
    Alcotest.test_case "id streams are per-engine" `Quick
      test_idspace_per_engine;
    Alcotest.test_case "uplink conserves frames across the spine" `Quick
      test_uplink_conservation;
    Alcotest.test_case "cluster digest identical at shards 1/2/3" `Slow
      test_digest_parity;
    Alcotest.test_case "default 8x8 cluster: 1 vs 8 shards" `Slow
      test_default_cluster_8_shards;
    QCheck_alcotest.to_alcotest prop_shard_invariance;
    Alcotest.test_case "epoch loop allocates nothing per epoch" `Quick
      (test_epoch_loop_allocation_free 1);
    Alcotest.test_case "2-shard epoch loop: caller allocates nothing" `Quick
      (test_epoch_loop_allocation_free 2);
    Alcotest.test_case "4x4 cluster: run equals stepping at 1 and 2 shards"
      `Quick test_cluster_run_equals_stepping ]
