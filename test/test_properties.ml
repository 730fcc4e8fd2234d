(* Cross-cutting property tests: conservation laws of the CPU model,
   long-run scheduler fairness, TCP stream integrity under randomised
   application behaviour, and engine ordering under random self-scheduling. *)

open Lrp_engine
open Lrp_sim

(* Process-context CPU consumption: stage the cost, then compute. *)
let compute cpu d =
  (Cpu.cost_cell cpu).(0) <- d;
  Cpu.compute cpu

(* Interrupt work that does nothing, posted through a test-local job. *)
let nop cpu ~label = Cpu.job cpu ~label (fun () (_ : int) -> ())

(* --- engine: time ordering under random self-scheduling ----------------- *)

let prop_engine_time_ordering =
  QCheck.Test.make ~count:50 ~name:"engine: events fire in time order"
    QCheck.(pair small_int (int_range 1 50))
    (fun (seed, n) ->
      let eng = Engine.create ~seed () in
      let rng = Rng.create seed in
      let times = ref [] in
      let rec spawn_random depth =
        if depth < 3 then
          for _ = 1 to n / (depth + 1) do
            ignore
              (Engine.schedule_after eng ~delay:(Rng.float rng 1_000.) (fun () ->
                   times := Engine.now eng :: !times;
                   spawn_random (depth + 1)))
          done
      in
      spawn_random 0;
      Engine.run eng ~until:10_000.;
      let rec sorted = function
        | a :: (b :: _ as rest) -> a <= b && sorted rest
        | [ _ ] | [] -> true
      in
      sorted (List.rev !times))

(* --- CPU model: time conservation --------------------------------------- *)

let prop_cpu_time_conservation =
  QCheck.Test.make ~count:25 ~name:"cpu: hard+soft+user+idle = elapsed"
    QCheck.(pair small_int (int_range 1 5))
    (fun (seed, nprocs) ->
      let eng = Engine.create ~seed () in
      let cpu = Cpu.create eng ~ctx_switch_cost:10. () in
      let hard = nop cpu ~label:"hardintr" and soft = nop cpu ~label:"softintr" in
      let rng = Rng.create (seed + 1) in
      for i = 1 to nprocs do
        let busy = 50. +. Rng.float rng 500. in
        let idle = Rng.float rng 300. in
        ignore
          (Cpu.spawn cpu ~name:(Printf.sprintf "p%d" i) (fun _ ->
               for _ = 1 to 20 do
                 compute cpu busy;
                 Proc.sleep_for idle
               done))
      done;
      (* Random interrupt load on top. *)
      let rec storm k =
        if k > 0 then
          ignore
            (Engine.schedule_after eng ~delay:(Rng.float rng 500.) (fun () ->
                 (Cpu.cost_cell cpu).(0) <- Rng.float rng 50.;
                 Cpu.post_hard_job cpu ~tpkt:(-1) hard () 0;
                 (Cpu.cost_cell cpu).(0) <- Rng.float rng 80.;
                 Cpu.post_soft_job cpu ~tpkt:(-1) ~poll:false soft () 0;
                 storm (k - 1)))
      in
      storm 40;
      let horizon = Time.ms 100. in
      Engine.run eng ~until:horizon;
      let total =
        Cpu.time_hard cpu +. Cpu.time_soft cpu +. Cpu.time_user cpu
        +. Cpu.time_idle cpu
      in
      Float.abs (total -. horizon) < 1e-3)

(* --- scheduler: long-run fairness ---------------------------------------- *)

let test_equal_procs_get_equal_shares () =
  let eng = Engine.create () in
  let cpu = Cpu.create eng () in
  let procs =
    List.init 4 (fun i ->
        Cpu.spawn cpu ~name:(Printf.sprintf "p%d" i) (fun _ ->
            let rec loop () =
              compute cpu 500.;
              loop ()
            in
            loop ()))
  in
  Engine.run eng ~until:(Time.sec 10.);
  List.iter
    (fun (p : Proc.t) ->
      let share = Proc.cpu_time p /. Time.sec 10. in
      Alcotest.(check bool)
        (Printf.sprintf "%s share %.3f within 25%% of fair" p.Proc.name share)
        true
        (share > 0.25 *. 0.75 && share < 0.25 *. 1.25))
    procs

let test_nice_gets_less () =
  let eng = Engine.create () in
  let cpu = Cpu.create eng () in
  let mk nice name =
    Cpu.spawn cpu ~name ~nice (fun _ ->
        let rec loop () =
          compute cpu 500.;
          loop ()
        in
        loop ())
  in
  let normal = mk 0 "normal" in
  let niced = mk 10 "niced" in
  Engine.run eng ~until:(Time.sec 10.);
  Alcotest.(check bool)
    (Printf.sprintf "nice +10 got %.2fs vs %.2fs"
       (Time.to_sec (Proc.cpu_time niced))
       (Time.to_sec (Proc.cpu_time normal)))
    true
    (Proc.cpu_time niced < 0.8 *. Proc.cpu_time normal
     && Proc.cpu_time niced > 0.)

let test_interactive_latency_preserved_under_load () =
  (* A mostly-sleeping process must get the CPU promptly when it wakes,
     even with compute-bound competition: the essence of decay-usage
     scheduling. *)
  let eng = Engine.create () in
  let cpu = Cpu.create eng () in
  for i = 1 to 2 do
    ignore
      (Cpu.spawn cpu ~name:(Printf.sprintf "hog%d" i) (fun _ ->
           let rec loop () =
             compute cpu 1_000.;
             loop ()
           in
           loop ()))
  done;
  let wait_latency = Lrp_stats.Stats.Samples.create () in
  ignore
    (Cpu.spawn cpu ~name:"interactive" (fun _ ->
         for _ = 1 to 50 do
           Proc.sleep_for (Time.ms 100.);
           let t0 = Engine.now eng in
           compute cpu 100.;
           Lrp_stats.Stats.Samples.add wait_latency (Engine.now eng -. t0 -. 100.)
         done));
  Engine.run eng ~until:(Time.sec 10.);
  let p90 = Lrp_stats.Stats.Samples.percentile wait_latency 90. in
  Alcotest.(check bool)
    (Printf.sprintf "interactive dispatch p90 = %.0f us" p90)
    true
    (p90 < Time.ms 15.)

(* --- TCP: integrity under randomised application write patterns ---------- *)

let prop_tcp_random_writes =
  QCheck.Test.make ~count:20 ~name:"tcp: random write sizes arrive intact"
    QCheck.(pair small_int (list_of_size (QCheck.Gen.int_range 1 12) (int_range 1 5_000)))
    (fun (seed, sizes) ->
      QCheck.assume (sizes <> []);
      let open Lrp_net in
      let open Lrp_kernel in
      let open Lrp_workload in
      let cfg = Kernel.default_config Kernel.Soft_lrp in
      let w = World.make ~seed () in
      let client = World.add_host w ~name:"client" cfg in
      let server = World.add_host w ~name:"server" cfg in
      let received = Buffer.create 1024 in
      let eof = ref false in
      ignore
        (Lrp_sim.Cpu.spawn (Kernel.cpu server) ~name:"rx" (fun self ->
             let lsock = Api.socket_stream server in
             Api.tcp_listen server ~self lsock ~port:80 ~backlog:2;
             let conn = Api.tcp_accept server ~self lsock in
             let rec drain () =
               match Api.tcp_recv server conn ~max:65_536 with
               | `Data p ->
                   Buffer.add_bytes received (Payload.to_bytes p);
                   drain ()
               | `Eof -> eof := true
             in
             drain ()));
      let sent = Buffer.create 1024 in
      ignore
        (Lrp_sim.Cpu.spawn (Kernel.cpu client) ~name:"tx" (fun self ->
             let sock = Api.socket_stream client in
             match
               Api.tcp_connect client ~self sock
                 ~remote:(Kernel.ip_address server, 80)
             with
             | `Refused -> ()
             | `Ok ->
                 List.iteri
                   (fun i n ->
                     let data =
                       Bytes.init n (fun j -> Char.chr ((i + (j * 7)) land 0xff))
                     in
                     Buffer.add_bytes sent data;
                     ignore (Api.tcp_send client sock (Payload.of_bytes data)))
                   sizes;
                 Api.close client sock));
      World.run w ~until:(Time.sec 60.);
      !eof && String.equal (Buffer.contents sent) (Buffer.contents received))

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_engine_time_ordering; prop_cpu_time_conservation;
      prop_tcp_random_writes ]

let suite =
  [ Alcotest.test_case "equal processes share equally" `Slow
      test_equal_procs_get_equal_shares;
    Alcotest.test_case "nice +10 yields CPU" `Slow test_nice_gets_less;
    Alcotest.test_case "interactive latency under compute load" `Slow
      test_interactive_latency_preserved_under_load ]
  @ qsuite
