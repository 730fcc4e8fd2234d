(* Tests for the domain pool and for the determinism contract of
   parallel experiment sweeps. *)

open Lrp_parallel

let test_map_order () =
  Pool.with_pool ~domains:4 (fun pool ->
      let xs = List.init 100 Fun.id in
      Alcotest.(check (list int))
        "results in submission order"
        (List.map (fun x -> x * x) xs)
        (Pool.map pool (fun x -> x * x) xs))

let test_map_empty_and_singleton () =
  Pool.with_pool ~domains:3 (fun pool ->
      Alcotest.(check (list int)) "empty" [] (Pool.map pool succ []);
      Alcotest.(check (list int)) "singleton" [ 8 ] (Pool.map pool succ [ 7 ]))

let test_exception_propagates () =
  Pool.with_pool ~domains:3 (fun pool ->
      Alcotest.check_raises "worker exception reaches the caller"
        (Failure "boom")
        (fun () ->
          ignore
            (Pool.map pool
               (fun x -> if x = 5 then failwith "boom" else x)
               (List.init 10 Fun.id)));
      (* The pool survives a failed batch. *)
      Alcotest.(check (list int)) "pool reusable after failure" [ 2; 4; 6 ]
        (Pool.map pool (fun x -> 2 * x) [ 1; 2; 3 ]))

let test_map_reduce () =
  Pool.with_pool ~domains:4 (fun pool ->
      Alcotest.(check int) "sum of squares" 285
        (Pool.map_reduce pool
           ~map:(fun x -> x * x)
           ~reduce:( + ) ~init:0
           (List.init 10 Fun.id)))

let test_single_domain_inline () =
  Pool.with_pool ~domains:1 (fun pool ->
      Alcotest.(check int) "one domain" 1 (Pool.domains pool);
      Alcotest.(check (list string)) "inline map" [ "1"; "2"; "3" ]
        (Pool.map pool string_of_int [ 1; 2; 3 ]))

let test_pool_reuse_across_batches () =
  Pool.with_pool ~domains:2 (fun pool ->
      for i = 1 to 5 do
        Alcotest.(check (list int))
          (Printf.sprintf "batch %d" i)
          (List.init 20 (fun x -> x + i))
          (Pool.map pool (fun x -> x + i) (List.init 20 Fun.id))
      done)

(* Workers are a process-wide shared set: repeated pool brackets must
   reuse the spawned domains, not respawn them. *)
let test_workers_survive_pool_brackets () =
  Pool.with_pool ~domains:3 (fun p -> ignore (Pool.map p succ [ 1; 2; 3 ]));
  let spawned = Pool.spawned_domains () in
  Alcotest.(check bool) "workers were spawned" true (spawned >= 2);
  for _ = 1 to 3 do
    Pool.with_pool ~domains:3 (fun p -> ignore (Pool.map p succ [ 1; 2; 3 ]))
  done;
  Alcotest.(check int) "no respawn across brackets" spawned
    (Pool.spawned_domains ())

(* --- team epoch barrier ------------------------------------------------ *)

let test_team_runs_every_member () =
  let team = Team.create ~size:3 in
  Alcotest.(check int) "size" 3 (Team.size team);
  let hits = Array.make 3 0 in
  for _ = 1 to 50 do
    Team.run team (fun i -> hits.(i) <- hits.(i) + 1)
  done;
  Team.shutdown team;
  Alcotest.(check (array int)) "every member ran every epoch"
    [| 50; 50; 50 |] hits

let test_team_exception_and_shutdown () =
  let team = Team.create ~size:2 in
  Alcotest.check_raises "member exception reaches the caller"
    (Failure "member-boom")
    (fun () -> Team.run team (fun i -> if i = 1 then failwith "member-boom"));
  let ok = Array.make 2 false in
  Team.run team (fun i -> ok.(i) <- true);
  Alcotest.(check (array bool)) "team survives a failed epoch"
    [| true; true |] ok;
  Team.shutdown team;
  Team.shutdown team;
  Alcotest.check_raises "run after shutdown is an error"
    (Invalid_argument "Team.run: team is shut down")
    (fun () -> Team.run team ignore)

let test_team_size_one_inline () =
  let team = Team.create ~size:0 in
  Alcotest.(check int) "size clamps to 1" 1 (Team.size team);
  let ran = ref false in
  Team.run team (fun i ->
      Alcotest.(check int) "caller is member 0" 0 i;
      ran := true);
  Alcotest.(check bool) "ran inline" true !ran;
  Team.shutdown team

(* Many short epochs at size 2, the shape of a sharded run.  Each member
   writes the epoch number into its own slot, so a lost wake-up hangs the
   barrier and a member running a stale epoch function leaves an old
   number behind.  The waits spin on a box with two cores or more and
   park on one; the contract is the same either way. *)
let test_team_stress () =
  let epochs = 20_000 in
  let team = Team.create ~size:2 in
  let slots = Array.make 2 0 and stale = ref 0 in
  for e = 1 to epochs do
    Team.run team (fun i -> slots.(i) <- e);
    if slots.(0) <> e || slots.(1) <> e then incr stale
  done;
  Team.shutdown team;
  Alcotest.(check int) "every slot holds its epoch after every run" 0 !stale;
  Alcotest.(check (array int)) "last epoch" [| epochs; epochs |] slots

(* A team with more members than the process has cores (capped, so a
   many-core box does not spawn dozens of domains) parks instead of
   spinning, and still runs every member and re-raises a member's
   exception. *)
let test_team_oversubscribed () =
  let size = min 16 (Domain.recommended_domain_count () + 1) in
  let team = Team.create ~size in
  let hits = Array.make size 0 in
  for _ = 1 to 20 do
    Team.run team (fun i -> hits.(i) <- hits.(i) + 1)
  done;
  Alcotest.(check (array int)) "every member ran every epoch"
    (Array.make size 20) hits;
  Alcotest.check_raises "last member's exception reaches the caller"
    (Failure "oversubscribed")
    (fun () ->
      Team.run team (fun i -> if i = size - 1 then failwith "oversubscribed"));
  Team.shutdown team

(* Shardsim builds and dissolves a team per run: the members go back to
   the pool's idle workers, and the next team reuses them. *)
let test_team_cycles_reuse_workers () =
  let cycle () =
    let team = Team.create ~size:2 in
    Team.run team ignore;
    Team.shutdown team
  in
  cycle ();
  let spawned = Pool.spawned_domains () in
  for _ = 1 to 200 do
    cycle ()
  done;
  Alcotest.(check int) "no worker spawned across 200 team cycles" spawned
    (Pool.spawned_domains ())

(* The tentpole contract: a sweep's results do not depend on how many
   domains it ran on, because each simulation runs in its own engine
   seeded from (root seed, job index). *)
let test_fig3_jobs_deterministic () =
  let open Lrp_experiments in
  let r1 = Fig3.run ~quick:true ~jobs:1 () in
  let r4 = Fig3.run ~quick:true ~jobs:4 () in
  Alcotest.(check bool) "fig3 quick: jobs 1 = jobs 4" true (r1 = r4)

let test_table2_jobs_deterministic () =
  let open Lrp_experiments in
  let r1 = Table2.run ~quick:true ~jobs:1 () in
  let r3 = Table2.run ~quick:true ~jobs:3 () in
  Alcotest.(check bool) "table2 quick: jobs 1 = jobs 3" true (r1 = r3)

(* The same contract under fault injection: a fault-injected sweep (one
   seeded fuzz-style run per datapoint) must be identical at any job
   count.  Each run's fault draws come from its own fabric's split RNG,
   never from shared state, so domain interleaving cannot leak in. *)
let faulty_datapoint seed =
  let open Lrp_engine in
  let open Lrp_kernel in
  let open Lrp_workload in
  let cfg = Kernel.default_config Kernel.Ni_lrp in
  let w, client, server = World.pair ~seed ~cfg () in
  let script = Lrp_check.Fault_script.generate ~seed ~duration_us:(Time.ms 100.) in
  Lrp_check.Fault_script.apply script ~fabric:(World.fabric w)
    ~engine:(World.engine w);
  let sink = Blast.start_sink server ~port:9000 () in
  let src =
    Blast.start_source (World.engine w) (Kernel.nic client)
      ~src:(Kernel.ip_address client)
      ~dst:(Kernel.ip_address server, 9000)
      ~rate:2_000. ~size:64 ~until:(Time.ms 100.) ()
  in
  World.run w ~until:(Time.ms 150.);
  let fs = Lrp_net.Fabric.fault_stats (World.fabric w) in
  (seed, src.Blast.sent, sink.Blast.received, fs.Lrp_net.Fabric.fault_lost,
   fs.Lrp_net.Fabric.duplicated, fs.Lrp_net.Fabric.corrupted,
   fs.Lrp_net.Fabric.reordered)

let test_fault_sweep_jobs_deterministic () =
  let seeds = List.init 8 Fun.id in
  let sweep domains =
    Pool.with_pool ~domains (fun pool -> Pool.map pool faulty_datapoint seeds)
  in
  let r1 = sweep 1 and r4 = sweep 4 in
  Alcotest.(check bool)
    "fault-injected sweep: jobs 1 = jobs 4 per datapoint" true (r1 = r4);
  (* And the runs actually exercised the fault pipeline. *)
  Alcotest.(check bool) "sweep saw fault activity" true
    (List.exists (fun (_, _, _, l, d, c, r) -> l + d + c + r > 0) r1)

let suite =
  [ Alcotest.test_case "map keeps submission order" `Quick test_map_order;
    Alcotest.test_case "map on empty and singleton lists" `Quick
      test_map_empty_and_singleton;
    Alcotest.test_case "worker exceptions propagate" `Quick
      test_exception_propagates;
    Alcotest.test_case "map_reduce folds in order" `Quick test_map_reduce;
    Alcotest.test_case "one-domain pool runs inline" `Quick
      test_single_domain_inline;
    Alcotest.test_case "pool is reusable across batches" `Quick
      test_pool_reuse_across_batches;
    Alcotest.test_case "pool brackets reuse spawned domains" `Quick
      test_workers_survive_pool_brackets;
    Alcotest.test_case "team barrier runs every member" `Quick
      test_team_runs_every_member;
    Alcotest.test_case "team exceptions and shutdown" `Quick
      test_team_exception_and_shutdown;
    Alcotest.test_case "team stress: 20,000 epochs at size 2" `Quick
      test_team_stress;
    Alcotest.test_case "team larger than the core count" `Quick
      test_team_oversubscribed;
    Alcotest.test_case "team cycles reuse pool workers" `Quick
      test_team_cycles_reuse_workers;
    Alcotest.test_case "size-one team runs inline" `Quick
      test_team_size_one_inline;
    Alcotest.test_case "fig3 results independent of jobs" `Slow
      test_fig3_jobs_deterministic;
    Alcotest.test_case "table2 results independent of jobs" `Slow
      test_table2_jobs_deterministic;
    Alcotest.test_case "fault-injected sweep independent of jobs" `Slow
      test_fault_sweep_jobs_deterministic ]
