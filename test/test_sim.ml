(* Tests for the process/CPU model: coroutine effects, dispatch levels,
   preemption, accounting; and the zero-word table of hot-path cycles. *)

open Lrp_engine
open Lrp_sim

(* Process-context CPU consumption: stage the cost, then compute. *)
let compute cpu d =
  (Cpu.cost_cell cpu).(0) <- d;
  Cpu.compute cpu

(* Interrupt work that runs a closure, posted through a test-local job. *)
let thunk = Cpu.job (fun f (_ : int) -> f ())

let post_hard cpu ~cost f =
  (Cpu.cost_cell cpu).(0) <- cost;
  Cpu.post_hard_job cpu ~label:"hardintr" ~tpkt:(-1) thunk f 0

let post_soft cpu ~cost f =
  (Cpu.cost_cell cpu).(0) <- cost;
  Cpu.post_soft_job cpu ~label:"softintr" ~tpkt:(-1) ~poll:false thunk f 0

let mk () =
  let eng = Engine.create () in
  let cpu = Cpu.create eng ~name:"host" () in
  (eng, cpu)

let test_single_compute () =
  let eng, cpu = mk () in
  let done_at = ref (-1.) in
  let _p =
    Cpu.spawn cpu ~name:"worker" (fun _self ->
        compute cpu 1_000.;
        done_at := Engine.now eng)
  in
  Engine.run eng ~until:(Time.sec 1.);
  Alcotest.(check (float 1e-6)) "work completed after 1000us" 1_000. !done_at;
  Alcotest.(check (float 1e-6)) "user time charged" 1_000. (Cpu.time_user cpu)

let test_sequential_computes () =
  let eng, cpu = mk () in
  let marks = ref [] in
  ignore
    (Cpu.spawn cpu ~name:"worker" (fun _ ->
         compute cpu 100.;
         marks := Engine.now eng :: !marks;
         compute cpu 250.;
         marks := Engine.now eng :: !marks));
  Engine.run eng ~until:(Time.sec 1.);
  Alcotest.(check (list (float 1e-6))) "marks" [ 100.; 350. ] (List.rev !marks)

let test_two_procs_share_cpu () =
  (* Two equal compute-bound processes must finish in roughly twice the
     standalone time, interleaved by the quantum. *)
  let eng, cpu = mk () in
  let finish = Hashtbl.create 4 in
  let spawn_one name =
    ignore
      (Cpu.spawn cpu ~name (fun _ ->
           compute cpu (Time.sec 1.);
           Hashtbl.replace finish name (Engine.now eng)))
  in
  spawn_one "a";
  spawn_one "b";
  Engine.run eng ~until:(Time.sec 5.);
  let fa = Hashtbl.find finish "a" and fb = Hashtbl.find finish "b" in
  Alcotest.(check bool) "both finish near 2s" true
    (Time.to_sec fa > 1.8 && Time.to_sec fa < 2.2
     && Time.to_sec fb > 1.8 && Time.to_sec fb < 2.2);
  Alcotest.(check bool) "many context switches happened" true
    (Cpu.context_switches cpu > 10)

let test_block_wakeup () =
  let eng, cpu = mk () in
  let wq = Proc.waitq "test" in
  let woke_at = ref (-1.) in
  ignore
    (Cpu.spawn cpu ~name:"sleeper" (fun _ ->
         Proc.block wq;
         woke_at := Engine.now eng));
  ignore
    (Engine.schedule eng ~at:500. (fun () -> ignore (Cpu.wakeup_one cpu wq)));
  Engine.run eng ~until:(Time.sec 1.);
  Alcotest.(check (float 1e-6)) "woken at 500" 500. !woke_at

let test_wakeup_all () =
  let eng, cpu = mk () in
  let wq = Proc.waitq "test" in
  let woken = ref 0 in
  for i = 1 to 3 do
    ignore
      (Cpu.spawn cpu ~name:(Printf.sprintf "s%d" i) (fun _ ->
           Proc.block wq;
           incr woken))
  done;
  ignore (Engine.schedule eng ~at:100. (fun () -> ignore (Cpu.wakeup_all cpu wq)));
  Engine.run eng ~until:(Time.sec 1.);
  Alcotest.(check int) "all woken" 3 !woken

let test_wakeup_one_is_fifo () =
  let eng, cpu = mk () in
  let wq = Proc.waitq "test" in
  let order = ref [] in
  for i = 1 to 3 do
    ignore
      (Cpu.spawn cpu ~name:(Printf.sprintf "s%d" i) (fun _ ->
           Proc.block wq;
           order := i :: !order))
  done;
  ignore (Engine.schedule eng ~at:100. (fun () -> ignore (Cpu.wakeup_one cpu wq)));
  ignore (Engine.schedule eng ~at:200. (fun () -> ignore (Cpu.wakeup_one cpu wq)));
  ignore (Engine.schedule eng ~at:300. (fun () -> ignore (Cpu.wakeup_one cpu wq)));
  Engine.run eng ~until:(Time.sec 1.);
  Alcotest.(check (list int)) "FIFO wake order" [ 1; 2; 3 ] (List.rev !order)

let test_sleep_for () =
  let eng, cpu = mk () in
  let woke_at = ref (-1.) in
  ignore
    (Cpu.spawn cpu ~name:"sleeper" (fun _ ->
         Proc.sleep_for (Time.ms 3.);
         woke_at := Engine.now eng));
  Engine.run eng ~until:(Time.sec 1.);
  Alcotest.(check (float 1e-6)) "slept 3ms" (Time.ms 3.) !woke_at

let test_hard_preempts_user () =
  let eng, cpu = mk () in
  let user_done = ref (-1.) in
  let intr_done = ref (-1.) in
  ignore
    (Cpu.spawn cpu ~name:"worker" (fun _ ->
         compute cpu 1_000.;
         user_done := Engine.now eng));
  ignore
    (Engine.schedule eng ~at:200. (fun () ->
         post_hard cpu ~cost:300. (fun () -> intr_done := Engine.now eng)));
  Engine.run eng ~until:(Time.sec 1.);
  Alcotest.(check (float 1e-6)) "interrupt ran immediately" 500. !intr_done;
  Alcotest.(check (float 1e-6)) "user delayed by interrupt" 1_300. !user_done;
  Alcotest.(check (float 1e-6)) "hard time" 300. (Cpu.time_hard cpu)

let test_hard_preempts_soft () =
  let eng, cpu = mk () in
  let log = ref [] in
  ignore
    (Engine.schedule eng ~at:0. (fun () ->
         post_soft cpu ~cost:1_000. (fun () ->
             log := ("soft", Engine.now eng) :: !log)));
  ignore
    (Engine.schedule eng ~at:100. (fun () ->
         post_hard cpu ~cost:50. (fun () ->
             log := ("hard", Engine.now eng) :: !log)));
  Engine.run eng ~until:(Time.sec 1.);
  Alcotest.(check (list (pair string (float 1e-6))))
    "hard finishes first; soft resumes and finishes late"
    [ ("hard", 150.); ("soft", 1_050.) ]
    (List.rev !log)

let test_soft_preempts_user_only () =
  let eng, cpu = mk () in
  let user_done = ref (-1.) in
  ignore
    (Cpu.spawn cpu ~name:"worker" (fun _ ->
         compute cpu 400.;
         user_done := Engine.now eng));
  ignore
    (Engine.schedule eng ~at:100. (fun () ->
         post_soft cpu ~cost:200. (fun () -> ())));
  Engine.run eng ~until:(Time.sec 1.);
  Alcotest.(check (float 1e-6)) "user resumed after softint" 600. !user_done;
  Alcotest.(check (float 1e-6)) "soft time" 200. (Cpu.time_soft cpu)

let test_interrupt_storm_starves_user () =
  (* The livelock mechanism in miniature: interrupt work arriving faster
     than it can be processed leaves zero CPU for processes. *)
  let eng, cpu = mk () in
  let progressed = ref 0. in
  ignore
    (Cpu.spawn cpu ~name:"victim" (fun _ ->
         let rec loop () =
           compute cpu 100.;
           progressed := !progressed +. 100.;
           loop ()
         in
         loop ()));
  (* 100us of hard-interrupt work every 80us: oversubscribed. *)
  let rec storm () =
    post_hard cpu ~cost:100. (fun () -> ());
    if Engine.now eng < Time.ms 50. then
      ignore (Engine.schedule_after eng ~delay:80. storm)
  in
  ignore (Engine.schedule eng ~at:1_000. storm);
  Engine.run eng ~until:(Time.ms 60.);
  Alcotest.(check bool)
    (Printf.sprintf "victim starved (progressed %.0fus of ~1000us)" !progressed)
    true
    (!progressed <= 1_100.)

let test_priority_preemption () =
  (* A woken thread with much better priority preempts a CPU hog. *)
  let eng, cpu = mk () in
  let wq = Proc.waitq "wq" in
  let woke = ref (-1.) in
  ignore
    (Cpu.spawn cpu ~name:"hog" ~nice:10 (fun _ ->
         let rec loop () =
           compute cpu 1_000.;
           loop ()
         in
         loop ()));
  ignore
    (Cpu.spawn cpu ~name:"interactive" (fun _ ->
         Proc.block wq;
         compute cpu 10.;
         woke := Engine.now eng));
  ignore (Engine.schedule eng ~at:50_500. (fun () -> ignore (Cpu.wakeup_one cpu wq)));
  Engine.run eng ~until:(Time.sec 1.);
  Alcotest.(check bool)
    (Printf.sprintf "interactive ran promptly (at %.0fus)" !woke)
    true
    (!woke >= 50_510. && !woke < 52_000.)

let test_ctx_switch_penalty () =
  (* With a working-set penalty, alternating processes pay cache reloads:
     total completion takes longer than the pure compute time. *)
  let eng = Engine.create () in
  let cpu = Cpu.create eng ~ctx_switch_cost:50. ~name:"host" () in
  let finish = ref Time.zero in
  let spawn_one name =
    ignore
      (Cpu.spawn cpu ~name ~working_set:500. (fun _ ->
           compute cpu (Time.sec 0.5);
           if Engine.now eng > !finish then finish := Engine.now eng))
  in
  spawn_one "a";
  spawn_one "b";
  Engine.run eng ~until:(Time.sec 5.);
  let overhead = Time.to_sec !finish -. 1.0 in
  Alcotest.(check bool)
    (Printf.sprintf "switch overhead visible (%.3fs extra)" overhead)
    true
    (overhead > 0.003);
  Alcotest.(check bool) "overhead accounted" true
    (Cpu.time_user cpu > Time.sec 1.)

let test_tick_misaccounting () =
  (* Interrupt time is charged to the interrupted process: a process that
     merely coexists with an interrupt storm accumulates p_cpu. *)
  let eng, cpu = mk () in
  let victim =
    Cpu.spawn cpu ~name:"victim" (fun _ ->
        let rec loop () =
          compute cpu 1_000.;
          loop ()
        in
        loop ())
  in
  (* Interrupt work eats 90% of the CPU. *)
  let rec storm () =
    post_hard cpu ~cost:900. (fun () -> ());
    if Engine.now eng < Time.ms 900. then
      ignore (Engine.schedule_after eng ~delay:1_000. storm)
  in
  ignore (Engine.schedule eng ~at:0. storm);
  Engine.run eng ~until:(Time.ms 990.);
  let ticks = Lrp_sched.Sched.ticks_charged victim.Proc.thread in
  (* ~99 ticks happen in 990ms; the victim only ran ~10% of the time but is
     charged for nearly all of them. *)
  Alcotest.(check bool)
    (Printf.sprintf "victim charged %d ticks despite ~10%% CPU" ticks)
    true
    (ticks > 80)

let test_join () =
  let eng, cpu = mk () in
  let joined_at = ref (-1.) in
  let child =
    Cpu.spawn cpu ~name:"child" (fun _ -> compute cpu 700.)
  in
  ignore
    (Cpu.spawn cpu ~name:"parent" (fun _ ->
         Cpu.join child;
         joined_at := Engine.now eng));
  Engine.run eng ~until:(Time.sec 1.);
  Alcotest.(check (float 1e-6)) "joined when child exited" 700. !joined_at;
  Alcotest.(check bool) "child exited" true child.Proc.exited;
  Alcotest.(check int) "only parent was reaped too" 0 (Cpu.proc_count cpu)

let test_join_exited () =
  let eng, cpu = mk () in
  let ok = ref false in
  let child = Cpu.spawn cpu ~name:"child" (fun _ -> ()) in
  ignore
    (Cpu.spawn cpu ~name:"parent" (fun _ ->
         Proc.sleep_for 100.;
         Cpu.join child;
         (* joining an already-dead process returns immediately *)
         ok := true));
  Engine.run eng ~until:(Time.sec 1.);
  Alcotest.(check bool) "join on exited child returns" true !ok

let test_yield_round_robin () =
  let eng, cpu = mk () in
  let log = ref [] in
  let spawn_one name =
    ignore
      (Cpu.spawn cpu ~name (fun _ ->
           for _ = 1 to 3 do
             compute cpu 10.;
             log := name :: !log;
             Proc.yield ()
           done))
  in
  spawn_one "a";
  spawn_one "b";
  Engine.run eng ~until:(Time.sec 1.);
  Alcotest.(check (list string)) "yield alternates"
    [ "a"; "b"; "a"; "b"; "a"; "b" ]
    (List.rev !log)

let test_idle_time () =
  let eng, cpu = mk () in
  ignore (Cpu.spawn cpu ~name:"w" (fun _ -> compute cpu 1_000.));
  Engine.run eng ~until:(Time.ms 10.);
  Alcotest.(check (float 1.)) "idle = elapsed - busy" 9_000. (Cpu.time_idle cpu);
  Alcotest.(check bool) "utilization = 10%" true
    (Float.abs (Cpu.utilization cpu -. 0.1) < 0.01)

let test_zero_cost_work () =
  let eng, cpu = mk () in
  let ran = ref false in
  ignore
    (Engine.schedule eng ~at:10. (fun () ->
         post_hard cpu ~cost:0. (fun () -> ran := true)));
  Engine.run eng ~until:(Time.ms 1.);
  Alcotest.(check bool) "zero-cost interrupt action ran" true !ran

(* Minor words allocated by [f ()], net of the measurement's own cost. *)
let minor_words f =
  let words g =
    let w0 = Gc.minor_words () in
    g ();
    Gc.minor_words () -. w0
  in
  let overhead = words ignore in
  words f -. overhead

(* Typed interrupt jobs are the per-packet path: once the work rings,
   the engine's slot table and the ledger rows are warm, posting work at
   both levels, dispatching it (a hard post preempts the running soft
   item, which goes back to the front of its ring), completing the
   segments and running the jobs allocates nothing at all. *)
let test_typed_jobs_allocation_free () =
  let eng = Engine.create () in
  let cpu = Cpu.create eng ~start_clock:false ~name:"host" () in
  let ran = ref 0 in
  let j = Cpu.job (fun (r : int ref) n -> r := !r + n) in
  let cost = Cpu.cost_cell cpu in
  let cycle () =
    for _ = 1 to 50 do
      cost.(0) <- 5.;
      Cpu.post_soft_job cpu ~label:"softnet" ~tpkt:7 ~poll:false j ran 1;
      cost.(0) <- 3.;
      Cpu.post_hard_job cpu ~label:"rx-intr" ~tpkt:7 j ran 1
    done;
    Engine.drain eng
  in
  cycle ();
  cycle ();
  let measured = minor_words (fun () -> for _ = 1 to 20 do cycle () done) in
  Alcotest.(check int) "every posted job ran" (22 * 100) !ran;
  Alcotest.(check (float 0.)) "0.0 minor words per posted item" 0.
    (measured /. 2000.);
  Alcotest.(check (float 1e-6)) "hard time" (22. *. 50. *. 3.)
    (Cpu.time_hard cpu);
  Alcotest.(check (float 1e-6)) "soft time" (22. *. 50. *. 5.)
    (Cpu.time_soft cpu)

let udp_pkt () =
  Lrp_net.Packet.udp
    ~src:(Lrp_net.Packet.ip_of_quad 10 0 0 1)
    ~dst:(Lrp_net.Packet.ip_of_quad 10 0 0 2)
    ~src_port:1234 ~dst_port:7
    (Lrp_net.Payload.synthetic 64)

(* The steady-state cycles of the per-packet hot paths, one row each.
   A row builds its fixture and returns one cycle; after a warm-up long
   enough for every one-time growth (slot table, heap and ring arrays)
   the cycle must allocate exactly 0.0 minor words.
   lrp_allocheck proves the same statically for the functions these
   cycles call; this table checks it on the running code. *)
let zero_word_cycles =
  let module Channel = Lrp_core.Channel in
  let module Nic = Lrp_net.Nic in
  let module Kernel = Lrp_kernel.Kernel in
  let module Api = Lrp_kernel.Api in
  let module Tcp = Lrp_proto.Tcp in
  let bsd () = Kernel.default_config Kernel.Bsd in
  let arena_chan () =
    Channel.create ~arena:(Lrp_net.Parena.create ()) ~limit:64 ()
  in
  let typed_sink eng = Engine.target eng (fun (_ : int) -> ()) in
  [ ( "schedule_fire",
      (* a static thunk: slot-table recycling reuses one event record *)
      fun () ->
        let eng = Engine.create () in
        fun () ->
          ignore (Engine.schedule_after eng ~delay:1.0 ignore);
          ignore (Engine.step eng) );
    ( "typed_fastpath",
      (* (target id, argument) in the slot table, no closure *)
      fun () ->
        let eng = Engine.create () in
        let tgt = typed_sink eng in
        fun () ->
          ignore (Engine.schedule_to_after eng ~delay:1.0 tgt 7);
          ignore (Engine.step eng) );
    ( "periodic_rearm",
      (* one slot and one thunk for the clock's lifetime *)
      fun () ->
        let eng = Engine.create () in
        let h = ref Engine.none in
        h :=
          Engine.schedule_after eng ~delay:1.0 (fun () ->
              Engine.reschedule_after eng !h ~delay:1.0);
        fun () -> ignore (Engine.step eng) );
    ( "staged_rearm",
      (* the grace-poll idiom: deadline staged through the engine's cell *)
      fun () ->
        let eng = Engine.create () in
        let tgt = typed_sink eng in
        fun () ->
          (Engine.deadline_cell eng).(0) <- (Engine.clock_cell eng).(0) +. 1.0;
          ignore (Engine.schedule_to_staged eng tgt 7);
          ignore (Engine.step eng) );
    ( "batch_dispatch",
      (* 64 same-deadline events drained as one batch *)
      fun () ->
        let eng = Engine.create () in
        let tgt = typed_sink eng in
        fun () ->
          for i = 1 to 64 do
            ignore (Engine.schedule_to_after eng ~delay:1.0 tgt i)
          done;
          Engine.drain eng );
    ( "demux_probe",
      (* classify + packed-key flow-table probe over 64 bound ports *)
      fun () ->
        let tab = Lrp_core.Chantab.create () in
        for port = 1 to 64 do
          Lrp_core.Chantab.add_udp tab ~port
            (Channel.create ())
        done;
        let pkt = udp_pkt () in
        fun () -> ignore (Lrp_core.Chantab.resolve_slot tab pkt) );
    ( "arena_rx",
      (* NI-channel admission and consumption through the handle ring *)
      fun () ->
        let ch = arena_chan () and pkt = udp_pkt () in
        fun () ->
          ignore (Channel.enqueue_code ch pkt);
          ignore (Channel.pop ch) );
    ( "tracing_on_arena_rx",
      (* the same cycle plus the packed flight-recorder emit *)
      fun () ->
        let ch = arena_chan () and pkt = udp_pkt () in
        let tracer = Lrp_trace.Trace.create ~name:"rec" ~clock:[| 0. |] () in
        Lrp_trace.Trace.set_enabled tracer true;
        fun () ->
          ignore (Channel.enqueue_code ch pkt);
          Lrp_trace.Trace.nic_rx tracer ~pkt:42 ~bytes:64;
          ignore (Channel.pop ch) );
    ( "tx_arena",
      (* if_output through the NIC's descriptor arena, tx-done fired *)
      fun () ->
        let eng = Engine.create () in
        let nic =
          Nic.create eng ~name:"tx" ~ip:(Lrp_net.Packet.ip_of_quad 10 0 0 9) ()
        in
        let pkt = udp_pkt () in
        fun () ->
          ignore (Nic.transmit nic pkt);
          ignore (Engine.step eng) );
    ( "rxq_coalesce",
      (* a sub-threshold train: hold-off timer armed, fired, ring polled *)
      fun () ->
        let eng = Engine.create () in
        let nic =
          Nic.create eng ~name:"rxq" ~ip:(Lrp_net.Packet.ip_of_quad 10 0 0 8) ()
        in
        Nic.configure_rx_queues nic ~queues:1 ~ring:64 ~coalesce_pkts:64
          ~coalesce_us:5. ~steer:(fun _ -> 0)
          ~kick:(fun q -> Nic.rxq_disable_intr nic q);
        let pkt = udp_pkt () in
        fun () ->
          Nic.receive nic pkt;
          ignore (Engine.step eng);
          ignore (Nic.rxq_pop nic 0);
          Nic.rxq_enable_intr nic 0 );
    ( "deliver_tcp_full_listener",
      (* BSD PCB lookup of a SYN that the listener's full backlog drops *)
      fun () ->
        let w = Lrp_workload.World.make () in
        let k = Lrp_workload.World.add_host w ~name:"server" (bsd ()) in
        ignore
          (Cpu.spawn (Kernel.cpu k) ~name:"listener" (fun self ->
               let sock = Api.socket_stream k in
               Api.tcp_listen k ~self sock ~port:99 ~backlog:0;
               Proc.block (Proc.waitq "forever")));
        Lrp_workload.World.run w ~until:(Time.ms 1.);
        let syn =
          Lrp_net.Packet.tcp ~src:(Lrp_net.Packet.ip_of_quad 11 0 0 1)
            ~dst:(Kernel.ip_address k) ~src_port:1024 ~dst_port:99 ~seq:0
            ~ack_no:0 ~flags:Lrp_net.Packet.flags_syn ~window:16_384
            Lrp_net.Packet.empty_payload
        in
        fun () -> ignore (Kernel.deliver_tcp k syn ~ctx:`Soft) );
    ( "tcp_timer",
      (* a connection's timer armed, fired and delivered at softint
         level (BSD).  Nanosecond delays and costs keep the window inside
         the first 10 ms, before the CPU clock's own events start. *)
      fun () ->
        let w = Lrp_workload.World.make () in
        let costs =
          { Lrp_kernel.Cost.default with
            Lrp_kernel.Cost.soft_dispatch = 0.001; tcp_in = 0.001 }
        in
        let k =
          Lrp_workload.World.add_host w ~name:"host"
            (Kernel.default_config ~costs Kernel.Bsd)
        in
        let env = Kernel.tcp_env_exn k in
        let conn =
          Tcp.create_listener env ~local_ip:(Kernel.ip_address k)
            ~local_port:7 ~backlog:1 ()
        in
        let tm = conn.Tcp.rtx_timer and fired = ref 0 in
        tm.Tcp.on_fire <- (fun _ -> incr fired);
        fun () ->
          let before = !fired in
          tm.Tcp.tgen <- tm.Tcp.tgen + 1;
          tm.Tcp.armed <- true;
          env.Tcp.start_timer tm 0.01;
          while !fired = before do
            ignore (Engine.step (Lrp_workload.World.engine w))
          done );
    ( "ledger_overhead",
      (* the always-on accounting write behind every CPU charge *)
      fun () ->
        let l = Ledger.create () in
        Ledger.charge l Ledger.Proto ~pid:1 ~flow:3 0.;
        Ledger.charge l Ledger.Intr ~pid:(-1) ~flow:(-1) 0.;
        fun () ->
          Ledger.charge l Ledger.Proto ~pid:1 ~flow:3 0.1;
          Ledger.charge l Ledger.Intr ~pid:(-1) ~flow:(-1) 0.1 ) ]

let test_zero_words ?(warm = 20_000) ?(n = 50_000) make () =
  let cycle = make () in
  for _ = 1 to warm do
    cycle ()
  done;
  let words = minor_words (fun () -> for _ = 1 to n do cycle () done) in
  Alcotest.(check (float 0.)) "minor words per cycle" 0.
    (words /. float_of_int n)

(* Kernel IP output of a datagram within the MTU: route, transmit, tx
   done; no switch port has its address, so the fabric drops it.  Each
   cycle takes one 2.7 us ATM cell time, so the default warm-up and
   window would run about 190 ms of virtual time.  The row's short window
   ends before the kernel CPU's first 10 ms clock tick, whose events
   allocate and are not this path. *)
let ip_output_cycle () =
  let w = Lrp_workload.World.make () in
  let k =
    Lrp_workload.World.add_host w ~name:"tx"
      (Lrp_kernel.Kernel.default_config Lrp_kernel.Kernel.Bsd)
  in
  let pkt =
    Lrp_net.Packet.udp ~src:(Lrp_kernel.Kernel.ip_address k)
      ~dst:(Lrp_net.Packet.ip_of_quad 10 0 0 2) ~src_port:1234 ~dst_port:7
      Lrp_net.Packet.empty_payload
  in
  fun () ->
    Lrp_kernel.Kernel.ip_output k pkt;
    ignore (Engine.step (Lrp_workload.World.engine w))

let suite =
  [ Alcotest.test_case "single compute" `Quick test_single_compute;
    Alcotest.test_case "sequential computes" `Quick test_sequential_computes;
    Alcotest.test_case "two procs share the CPU" `Quick test_two_procs_share_cpu;
    Alcotest.test_case "block / wakeup_one" `Quick test_block_wakeup;
    Alcotest.test_case "wakeup_all" `Quick test_wakeup_all;
    Alcotest.test_case "wakeup_one is FIFO" `Quick test_wakeup_one_is_fifo;
    Alcotest.test_case "sleep_for" `Quick test_sleep_for;
    Alcotest.test_case "hard interrupt preempts user" `Quick test_hard_preempts_user;
    Alcotest.test_case "hard preempts soft" `Quick test_hard_preempts_soft;
    Alcotest.test_case "soft preempts user only" `Quick test_soft_preempts_user_only;
    Alcotest.test_case "interrupt storm starves processes" `Quick
      test_interrupt_storm_starves_user;
    Alcotest.test_case "wakeup preempts worse-priority hog" `Quick
      test_priority_preemption;
    Alcotest.test_case "context-switch / cache penalty" `Quick test_ctx_switch_penalty;
    Alcotest.test_case "tick mis-accounting charges the interrupted" `Quick
      test_tick_misaccounting;
    Alcotest.test_case "join" `Quick test_join;
    Alcotest.test_case "join on exited process" `Quick test_join_exited;
    Alcotest.test_case "yield round-robins" `Quick test_yield_round_robin;
    Alcotest.test_case "idle time accounting" `Quick test_idle_time;
    Alcotest.test_case "zero-cost interrupt work" `Quick test_zero_cost_work;
    Alcotest.test_case "typed jobs: post/dispatch/complete allocate nothing"
      `Quick test_typed_jobs_allocation_free ]
  @ List.map
      (fun (name, make) ->
        Alcotest.test_case ("0.0 words per cycle: " ^ name) `Quick
          (test_zero_words make))
      zero_word_cycles
  @ [ Alcotest.test_case "0.0 words per cycle: ip_output" `Quick
        (test_zero_words ~warm:1_600 ~n:2_000 ip_output_cycle) ]
