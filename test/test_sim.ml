(* Tests for the process/CPU model: coroutine effects, dispatch levels,
   preemption, accounting; and the zero-word table of hot-path cycles. *)

open Lrp_engine
open Lrp_sim

(* Process-context CPU consumption: stage the cost, then compute. *)
let compute cpu d =
  (Cpu.cost_cell cpu).(0) <- d;
  Cpu.compute cpu

(* Interrupt work that runs a closure, posted through a test-local job
   registered with the CPU it is posted to. *)
let thunk cpu ~label = Cpu.job cpu ~label (fun f (_ : int) -> f ())

let post_hard cpu ~cost f =
  (Cpu.cost_cell cpu).(0) <- cost;
  Cpu.post_hard_job cpu ~tpkt:(-1) (thunk cpu ~label:"hardintr") f 0

let post_soft cpu ~cost f =
  (Cpu.cost_cell cpu).(0) <- cost;
  Cpu.post_soft_job cpu ~tpkt:(-1) ~poll:false (thunk cpu ~label:"softintr") f 0

let mk () =
  let eng = Engine.create () in
  let cpu = Cpu.create eng () in
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
  let cpu = Cpu.create eng ~ctx_switch_cost:50. () in
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
  let cpu = Cpu.create eng ~start_clock:false () in
  let ran = ref 0 in
  let soft = Cpu.job cpu ~label:"softnet" (fun (r : int ref) n -> r := !r + n) in
  let hard = Cpu.job cpu ~label:"rx-intr" (fun (r : int ref) n -> r := !r + n) in
  let cost = Cpu.cost_cell cpu in
  let cycle () =
    for _ = 1 to 50 do
      cost.(0) <- 5.;
      Cpu.post_soft_job cpu ~tpkt:7 ~poll:false soft ran 1;
      cost.(0) <- 3.;
      Cpu.post_hard_job cpu ~tpkt:7 hard ran 1
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
  let module Parena = Lrp_net.Parena in
  let pool () = Parena.create () and chan () = Channel.create ~limit:64 () in
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
        let tab =
          Lrp_core.Chantab.create ~dummy:(-1) ~has_chan:(fun _ -> true) ()
        in
        for port = 1 to 64 do
          Lrp_core.Chantab.add_udp tab ~port port
        done;
        let pool = pool () in
        let row = Parena.copy_in pool (udp_pkt ()) in
        fun () -> ignore (Lrp_core.Chantab.resolve_slot tab pool row) );
    ( "arena_rx",
      (* a frame copied into the pool, admitted to an NI channel, popped
         and released *)
      fun () ->
        let pool = pool () and ch = chan () and pkt = udp_pkt () in
        fun () ->
          ignore (Channel.enqueue_code ch (Parena.copy_in pool pkt));
          Parena.release pool (Channel.pop_row ch) );
    ( "tracing_on_arena_rx",
      (* the same cycle plus the packed flight-recorder emit *)
      fun () ->
        let pool = pool () and ch = chan () and pkt = udp_pkt () in
        let tracer = Lrp_trace.Trace.create ~name:"rec" ~clock:[| 0. |] () in
        Lrp_trace.Trace.set_enabled tracer true;
        fun () ->
          ignore (Channel.enqueue_code ch (Parena.copy_in pool pkt));
          Lrp_trace.Trace.nic_rx tracer ~pkt:42 ~bytes:64;
          Parena.release pool (Channel.pop_row ch) );
    ( "drop_disabled",
      (* a drop on a disabled tracer: its reason's total still counts *)
      fun () ->
        let tracer = Lrp_trace.Trace.create ~name:"rec" ~clock:[| 0. |] () in
        fun () ->
          Lrp_trace.Trace.drop tracer ~reason:Lrp_trace.Trace.Ni_channel
            ~pkt:42 ~arg:3 );
    ( "drop_enabled",
      (* the same drop, also recorded in the packed ring *)
      fun () ->
        let tracer = Lrp_trace.Trace.create ~name:"rec" ~clock:[| 0. |] () in
        Lrp_trace.Trace.set_enabled tracer true;
        fun () ->
          Lrp_trace.Trace.drop tracer ~reason:Lrp_trace.Trace.Ni_channel
            ~pkt:42 ~arg:3 );
    ( "tx_ifq",
      (* if_output on an idle NIC and through the interface queue behind
         it, both tx-dones fired and their rows released *)
      fun () ->
        let eng = Engine.create () in
        let nic =
          Nic.create eng ~ip:(Lrp_net.Packet.ip_of_quad 10 0 0 9) ()
        in
        Nic.set_deliver nic (Parena.release (Nic.pool nic));
        let pkt = udp_pkt () in
        fun () ->
          ignore (Nic.transmit nic pkt);
          ignore (Nic.transmit nic pkt);
          ignore (Engine.step eng);
          ignore (Engine.step eng) );
    ( "rxq_coalesce",
      (* a sub-threshold train: hold-off timer armed, fired, ring polled *)
      fun () ->
        let eng = Engine.create () in
        let nic =
          Nic.create eng ~ip:(Lrp_net.Packet.ip_of_quad 10 0 0 8) ()
        in
        Nic.configure_rx_queues nic ~queues:1 ~ring:64 ~coalesce_pkts:64
          ~coalesce_us:5. ~steer:(fun _ -> 0)
          ~kick:(fun q -> Nic.rxq_disable_intr nic q);
        let pool = Nic.pool nic and pkt = udp_pkt () in
        fun () ->
          Nic.receive nic (Parena.copy_in pool pkt);
          ignore (Engine.step eng);
          Parena.release pool (Nic.rxq_pop nic 0);
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
          Parena.tcp k.Kernel.parena ~src:(Lrp_net.Packet.ip_of_quad 11 0 0 1)
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
          env.Tcp.deadline.(0) <- env.Tcp.clock.(0) +. 0.01;
          env.Tcp.start_timer tm;
          while !fired = before do
            ignore (Engine.step (Lrp_workload.World.engine w))
          done );
    ( "tcp_ack_established",
      (* a pure ACK on an established connection (the kernel's TCP env):
         an RTT sample, congestion-window growth and a retransmit-timer
         re-arm; the cycle rewinds [snd_una] so the same ACK is new data
         again *)
      fun () ->
        let w = Lrp_workload.World.make () in
        let k = Lrp_workload.World.add_host w ~name:"host" (bsd ()) in
        let env = Kernel.tcp_env_exn k in
        let local = Kernel.ip_address k
        and peer = Lrp_net.Packet.ip_of_quad 10 0 0 7 in
        let conn =
          Tcp.create_active env ~local_ip:local ~local_port:5000
            ~remote:(peer, 80) ()
        in
        let pool = k.Kernel.parena in
        let seg ~seq ~ack_no flags =
          Parena.tcp pool ~src:peer ~dst:local ~src_port:80 ~dst_port:5000
            ~seq ~ack_no ~flags ~window:65_535 Lrp_net.Packet.empty_payload
        in
        Tcp.input conn pool (seg ~seq:0 ~ack_no:1 Lrp_net.Packet.flags_syn_ack);
        (* one segment in flight, acknowledged a byte at a time *)
        ignore (Tcp.send conn (Lrp_net.Payload.synthetic env.Tcp.mss) : int);
        let ack = seg ~seq:1 ~ack_no:2 Lrp_net.Packet.flags_ack in
        fun () ->
          conn.Tcp.snd_una <- 1;
          conn.Tcp.timing_seq <- 2;
          Tcp.input conn pool ack );
    ( "tcp_data_established",
      (* one MSS of data on a warm established pair (the kernel's TCP env,
         its segments handed straight to the other end): the sender's
         [Tcp.send] queues and segments it, the peer's [Tcp.input] queues
         it for reading and ACKs it, the ACK's [Tcp.input] frees the
         retransmission row, and the peer's [Tcp.recv] takes the chunk
         and sends the window update *)
      fun () ->
        let w = Lrp_workload.World.make () in
        let k = Lrp_workload.World.add_host w ~name:"host" (bsd ()) in
        let pool = k.Kernel.parena and ip = Kernel.ip_address k in
        let out = ref Parena.none and child = ref Tcp.null_conn in
        let env =
          { (Kernel.tcp_env_exn k) with
            Tcp.emit = (fun row -> out := row);
            on_syn_received = (fun _ c -> child := c) }
        in
        let pass c =
          let row = !out in
          Tcp.input c pool row;
          Parena.release pool row
        in
        let l = Tcp.create_listener env ~local_ip:ip ~local_port:80 ~backlog:1 () in
        let a =
          Tcp.create_active env ~local_ip:ip ~local_port:5000 ~remote:(ip, 80) ()
        in
        pass l;
        pass a;
        pass !child;
        let b = !child and mss = env.Tcp.mss in
        assert (Tcp.state a = Tcp.Established && Tcp.state b = Tcp.Established);
        let data = Lrp_net.Payload.synthetic mss in
        fun () ->
          ignore (Tcp.send a data : int);
          pass b;
          pass a;
          ignore (Tcp.recv b ~max:mss : Lrp_net.Payload.t);
          pass a );
    ( "tcp_conn_cycle_warm_pool",
      (* a connection's whole life at the Tcp and Kernel level, on a warm
         pool (BSD kernel, its segments routed by the kernel's PCB lookup
         straight to the other end): an active open and its endpoint, the
         listener's child and its endpoint, the accept, both closes and
         the TIME_WAIT expiry, after which both connections and both
         endpoints are back in their pools.  The two sockets are reused,
         reopened each cycle.  Nanosecond TIME_WAIT and costs keep the
         window inside the first 10 ms *)
      fun () ->
        let w = Lrp_workload.World.make () in
        let costs =
          { Lrp_kernel.Cost.default with
            Lrp_kernel.Cost.soft_dispatch = 0.001; tcp_in = 0.001 }
        in
        let k =
          Lrp_workload.World.add_host w ~name:"host"
            { (Kernel.default_config ~costs Kernel.Bsd) with
              Kernel.time_wait = 0.01 }
        in
        let eng = Lrp_workload.World.engine w in
        let pool = k.Kernel.parena and ip = Kernel.ip_address k in
        let out = ref Parena.none in
        let env =
          { (Kernel.tcp_env_exn k) with Tcp.emit = (fun row -> out := row) }
        in
        let pass () =
          let row = !out in
          out := Parena.none;
          ignore (Kernel.deliver_tcp k row ~ctx:`Soft : bool);
          Parena.release pool row
        in
        let l = Tcp.create_listener env ~local_ip:ip ~local_port:80 ~backlog:4 () in
        Kernel.open_conn k (Api.socket_stream k) l ~owner:Proc.none;
        let sa = Api.socket_stream k and sb = Api.socket_stream k in
        let remote = (ip, 80) in
        let cycle () =
          sa.Lrp_kernel.Socket.closed <- false;
          sb.Lrp_kernel.Socket.closed <- false;
          let a =
            Tcp.create_active env ~local_ip:ip ~local_port:5000 ~remote ()
          in
          Kernel.open_conn k sa a ~owner:Proc.none;
          pass () (* SYN *);
          pass () (* SYN-ACK *);
          pass () (* ACK: the child is established and queued *);
          let b = Tcp.accept_pop l in
          Kernel.attach k sb b ~owner:Proc.none;
          sa.Lrp_kernel.Socket.closed <- true;
          Tcp.close a;
          pass () (* FIN *);
          pass () (* its ACK *);
          sb.Lrp_kernel.Socket.closed <- true;
          Tcp.close b;
          pass () (* FIN: [a] enters TIME_WAIT *);
          pass () (* the last ACK: [b] is recycled *);
          while Tcp.state a = Tcp.Time_wait do
            ignore (Engine.step eng)
          done
        in
        cycle ();
        (* only the listener is live: both connections and their
           endpoints are spare *)
        let sp = env.Tcp.spare and eps = k.Kernel.ep_pool in
        assert (sp.Tcp.live = 1 && sp.Tcp.nfree = 2);
        assert (eps.Kernel.made - eps.Kernel.n = 1 && eps.Kernel.n = 2);
        cycle );
    ( "busy_tick_decay",
      (* one process spinning on a single long segment: each cycle fires
         the CPU's 10 ms tick (charging the process) or its 1 s usage
         decay, so the window covers about 500 s of simulated time *)
      fun () ->
        let eng = Engine.create () in
        let cpu = Cpu.create eng () in
        ignore
          (Cpu.spawn cpu ~name:"spin" (fun _ ->
               (Cpu.cost_cell cpu).(0) <- 1e15;
               Cpu.compute cpu));
        fun () -> ignore (Engine.step eng) );
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

(* Kernel IP output of a datagram within the MTU, written into a row of
   the kernel's pool: route, transmit, tx done; no switch port has its
   address, so the fabric drops it.  Each cycle takes one 2.7 us ATM
   cell time, so the window runs about 190 ms of virtual time, the
   kernel CPU's clock ticks included.  A cycle steps until its frame has
   left the interface queue: a step taken by a tick must not leave a
   backlog behind. *)
let ip_output_cycle () =
  let w = Lrp_workload.World.make () in
  let k =
    Lrp_workload.World.add_host w ~name:"tx"
      (Lrp_kernel.Kernel.default_config Lrp_kernel.Kernel.Bsd)
  in
  let src = Lrp_kernel.Kernel.ip_address k
  and dst = Lrp_net.Packet.ip_of_quad 10 0 0 2 in
  let eng = Lrp_workload.World.engine w and nic = Lrp_kernel.Kernel.nic k in
  fun () ->
    Lrp_kernel.Kernel.ip_output_row k
      (Lrp_net.Parena.udp k.Lrp_kernel.Kernel.parena ~src ~dst ~src_port:1234
         ~dst_port:7 Lrp_net.Packet.empty_payload);
    ignore (Engine.step eng);
    while Lrp_net.Nic.ifq_length nic > 0 do
      ignore (Engine.step eng)
    done

(* A sender's prebuilt UDP packet, from [Nic.transmit] through the fabric,
   the receiving NIC and its kernel to the frame's release, on a world
   whose sink socket is bound but never read: once its queues are full,
   BSD carries each frame through the driver, the IP queue and the socket
   queue, which drops it; SOFT-LRP's demux interrupt discards it at the
   full NI channel.  A cycle transmits one frame and runs the engine
   300 us (staged: a float bound would box), longer than the frame's
   path; the warm-up fills the queues.  The frame pool's live count stays
   flat across the window: every frame is released in its cycle. *)
let frame_path arch =
  let module World = Lrp_workload.World in
  let module Kernel = Lrp_kernel.Kernel in
  let module Api = Lrp_kernel.Api in
  let w, client, server = World.pair ~cfg:(Kernel.default_config arch) () in
  Api.bind server (Api.socket_dgram ()) ~owner:None ~port:9000;
  let pkt =
    Lrp_net.Packet.udp ~src:(Kernel.ip_address client)
      ~dst:(Kernel.ip_address server) ~src_port:7777 ~dst_port:9000
      (Lrp_net.Payload.synthetic 14)
  in
  let eng = World.engine w and nic = Kernel.nic client in
  let stage = Engine.deadline_cell eng and clock = Engine.clock_cell eng in
  let cycle () =
    ignore (Lrp_net.Nic.transmit nic pkt);
    stage.(0) <- clock.(0) +. 300.;
    Engine.run_staged eng
  in
  let rx_nic = Kernel.nic server in
  (Lrp_net.Nic.pool nic,
   (fun () -> (Lrp_net.Nic.stats rx_nic).Lrp_net.Nic.rx_packets),
   cycle)

(* A SYN-flood frame, written by the row writer and carried through the
   client's NIC, the fabric, the server's NIC and kernel to its drop at
   the full listener.  The listener's backlog is 0, so it is full from
   the start: BSD drops each SYN at the backlog after its protocol
   processing at softint level; SOFT-LRP has gated the listener's channel
   (section 3.4), so its demux interrupt discards the SYN at the NI
   channel.  A cycle writes and transmits one SYN and runs the engine
   300 us, as [frame_path] does. *)
let syn_flood_path arch =
  let module World = Lrp_workload.World in
  let module Kernel = Lrp_kernel.Kernel in
  let module Api = Lrp_kernel.Api in
  let module Packet = Lrp_net.Packet in
  let w, client, server = World.pair ~cfg:(Kernel.default_config arch) () in
  ignore
    (Cpu.spawn (Kernel.cpu server) ~name:"listener" (fun self ->
         let sock = Api.socket_stream server in
         Api.tcp_listen server ~self sock ~port:99 ~backlog:0;
         Proc.block (Proc.waitq "forever")));
  let eng = World.engine w and nic = Kernel.nic client in
  let pool = Lrp_net.Nic.pool nic in
  let src = Packet.ip_of_quad 11 0 0 1 and dst = Kernel.ip_address server in
  let stage = Engine.deadline_cell eng and clock = Engine.clock_cell eng in
  let cycle () =
    ignore
      (Lrp_net.Nic.transmit_row nic
         (Lrp_net.Parena.tcp pool ~src ~dst ~src_port:1024 ~dst_port:99 ~seq:0
            ~ack_no:0 ~flags:Packet.flags_syn ~window:16_384
            Packet.empty_payload));
    stage.(0) <- clock.(0) +. 300.;
    Engine.run_staged eng
  in
  let totals = (Kernel.tcp_env_exn server).Lrp_proto.Tcp.totals in
  (pool,
   (fun () -> totals.Lrp_proto.Tcp.backlog_drops + Kernel.early_discards server),
   cycle)

(* A frame path's cycles after a warm-up that fills its queues: each
   frame reaches the path's end ([arrived] counts it) and is released in
   its cycle, and the window allocates exactly 0.0 minor words. *)
let test_path_words path arch () =
  let pool, arrived, cycle = path arch in
  for _ = 1 to 2_000 do
    cycle ()
  done;
  let live = Lrp_net.Parena.live pool and before = arrived () in
  let n = 5_000 in
  let words = minor_words (fun () -> for _ = 1 to n do cycle () done) in
  Alcotest.(check int) "every frame arrived" (before + n) (arrived ());
  Alcotest.(check int) "every frame released in its cycle" live
    (Lrp_net.Parena.live pool);
  Alcotest.(check (float 0.)) "minor words per cycle" 0.
    (words /. float_of_int n)

(* Run-ahead (DESIGN §17), process side: a process computing in a quiet
   world.  Spawning is no tail entry, so its first segment is queued;
   from its completion on, every compute is run ahead and returns without
   performing the effect, whose continuation would cost minor words.  The
   cycles run inside the process, so the window is measured there. *)
let test_run_ahead_compute_words () =
  let eng = Engine.create () in
  let cpu = Cpu.create eng ~start_clock:false () in
  let words = ref Float.nan in
  let cycle () =
    (Cpu.cost_cell cpu).(0) <- 1.;
    Cpu.compute cpu
  in
  ignore
    (Cpu.spawn cpu ~name:"spin" (fun _ ->
         for _ = 1 to 20_000 do cycle () done;
         words :=
           minor_words (fun () -> for _ = 1 to 50_000 do cycle () done)
           /. 50_000.));
  Engine.drain eng;
  Alcotest.(check (float 0.)) "minor words per cycle" 0. !words

(* Run-ahead, interrupt side: an event whose last act is a hard-interrupt
   post through the tail entry, in a quiet world.  The post completes the
   job's segment before it returns (checked once, before the window). *)
let run_ahead_hardirq_cycle () =
  let eng = Engine.create () in
  let cpu = Cpu.create eng ~start_clock:false () in
  let finished = ref 0 and inline = ref 0 in
  let rx = Cpu.job cpu ~label:"rx-intr" (fun () _ -> incr finished) in
  let frame =
    Engine.target eng (fun () ->
        let before = !finished in
        (Cpu.cost_cell cpu).(0) <- 2.;
        Cpu.post_hard_job_tail cpu ~tpkt:(-1) rx () 0;
        if !finished > before then incr inline)
  in
  let dl = Engine.deadline_cell eng and clock = Engine.clock_cell eng in
  let cycle () =
    dl.(0) <- clock.(0) +. 1.;
    ignore (Engine.schedule_to_staged eng frame ());
    Engine.drain eng
  in
  let events = Engine.events_executed eng in
  cycle ();
  Alcotest.(check (pair int int)) "the job ran inside the posting event"
    (1, 1) (!finished, !inline);
  Alcotest.(check int) "and counts as an event of its own" (events + 2)
    (Engine.events_executed eng);
  cycle

(* Only the last member of an equal-key batch may run ahead: the batch's
   later members are already out of the queue, so a segment completed
   inline by an earlier member would move the clock under them. *)
let test_run_ahead_last_member_only () =
  let eng = Engine.create () in
  let cpu = Cpu.create eng ~start_clock:false () in
  let ran = ref 0 and seen = ref Float.nan in
  let rx = Cpu.job cpu ~label:"rx-intr" (fun () _ -> incr ran) in
  ignore
    (Engine.schedule eng ~at:10. (fun () ->
         (Cpu.cost_cell cpu).(0) <- 3.;
         Cpu.post_hard_job_tail cpu ~tpkt:(-1) rx () 0));
  ignore (Engine.schedule eng ~at:10. (fun () -> seen := Engine.now eng));
  Engine.run eng ~until:100.;
  Alcotest.(check (float 0.)) "the second event sees the key" 10. !seen;
  Alcotest.(check int) "the tail job ran" 1 !ran


(* --- what a blocking receive allocates ------------------------------------ *)

type _ Effect.t += Probe : unit Effect.t

(* Minor words one perform allocates: its continuation, measured on a
   bare perform under a Deep handler that parks the continuation the way
   the CPU model's handler does. *)
let continuation_words () =
  let saved = ref Proc.no_k in
  let park = Some (fun k -> saved := k) in
  let handler =
    { Effect.Deep.retc = ignore;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) Effect.Deep.continuation -> unit) option ->
          match eff with Probe -> park | _ -> None) }
  in
  Effect.Deep.match_with
    (fun () ->
      while true do
        Effect.perform Probe
      done)
    () handler;
  let cycle () = Effect.Deep.continue !saved () in
  for _ = 1 to 1_000 do
    cycle ()
  done;
  let n = 10_000 in
  minor_words (fun () -> for _ = 1 to n do cycle () done) /. float_of_int n

(* A block/wake cycle on a wait queue: [wakeup_one] from outside the
   dispatcher runs the woken process at once, and it blocks again.  One
   perform per cycle, and the queue links through the process and
   performs its one Block value, so the cycle allocates exactly one
   continuation. *)
let test_block_wake_words () =
  let cont = continuation_words () in
  Alcotest.(check bool) "a continuation costs minor words" true (cont > 0.);
  let eng = Engine.create () in
  let cpu = Cpu.create eng ~start_clock:false () in
  let wq = Proc.waitq "rx" in
  let wakes = ref 0 in
  ignore
    (Cpu.spawn cpu ~name:"sleeper" (fun _ ->
         while true do
           Proc.block wq;
           incr wakes
         done));
  let cycle () = ignore (Cpu.wakeup_one cpu wq) in
  for _ = 1 to 1_000 do
    cycle ()
  done;
  let n = 10_000 in
  let words = minor_words (fun () -> for _ = 1 to n do cycle () done) in
  Alcotest.(check int) "every wake resumed the sleeper" (1_000 + n) !wakes;
  Alcotest.(check (float 0.)) "minor words per cycle = one continuation"
    cont (words /. float_of_int n)

(* [recvfrom] of a datagram already on a BSD socket queue: the syscall
   and the copyout each perform one compute, and the datagram is copied
   into the caller's buffer, so the call allocates exactly two
   continuations.  The engine is stepped (no run-ahead, which completes a
   compute without performing it), and the receiving process measures
   each call itself; refilling the queue happens outside the window. *)
let test_recvfrom_queued_words () =
  let module Kernel = Lrp_kernel.Kernel in
  let module Api = Lrp_kernel.Api in
  let module Socket = Lrp_kernel.Socket in
  let module Parena = Lrp_net.Parena in
  let cont = continuation_words () in
  let w = Lrp_workload.World.make () in
  let k =
    Lrp_workload.World.add_host w ~name:"rx" (Kernel.default_config Kernel.Bsd)
  in
  let pkt =
    Lrp_net.Packet.udp
      ~src:(Lrp_net.Packet.ip_of_quad 10 0 0 1)
      ~dst:(Kernel.ip_address k) ~src_port:1234 ~dst_port:9000
      (Lrp_net.Payload.synthetic 14)
  in
  let sock = Api.socket_dgram () in
  let n = 5_000 in
  let words = ref Float.nan and got = ref 0 and filled = ref true in
  ignore
    (Cpu.spawn (Kernel.cpu k) ~name:"rx" (fun self ->
         Api.bind k sock ~owner:(Some self) ~port:9000;
         let dg = Api.dgram () in
         let refill () =
           while Socket.has_room sock do
             Socket.deposit_udp sock (Parena.copy_in k.Kernel.parena pkt)
           done
         in
         let recv () = Api.recvfrom k sock dg in
         for _ = 1 to 1_000 do
           refill ();
           recv ()
         done;
         let total = ref 0. in
         for _ = 1 to n do
           refill ();
           dg.Api.dg_sport <- 0;
           total := !total +. minor_words recv;
           incr got;
           if dg.Api.dg_sport <> 1234
              || Lrp_net.Payload.length dg.Api.dg_payload <> 14
           then filled := false
         done;
         words := !total /. float_of_int n));
  let eng = Lrp_workload.World.engine w in
  while !got < n && Engine.step eng do
    ()
  done;
  Alcotest.(check int) "every receive returned" n !got;
  Alcotest.(check bool) "each filled the caller's datagram" true !filled;
  Alcotest.(check (float 0.)) "minor words per recvfrom = two continuations"
    (2. *. cont) !words

(* --- the intrusive wait queue against a list model ------------------------ *)

type wq_op =
  | Block of int * int  (* an idle process blocks on a shared queue *)
  | Join of int * int  (* an idle process waits for another's exit *)
  | Wake_one of int
  | Wake_all of int
  | Exit of int  (* an idle process returns *)

let show_wq_op = function
  | Block (p, q) -> Printf.sprintf "block p%d q%d" p q
  | Join (p, j) -> Printf.sprintf "join p%d p%d" p j
  | Wake_one q -> Printf.sprintf "wakeup_one q%d" q
  | Wake_all q -> Printf.sprintf "wakeup_all q%d" q
  | Exit p -> Printf.sprintf "exit p%d" p

(* Property: processes driven through random block / join / wakeup_one /
   wakeup_all / exit scripts are woken in the order, and in the numbers,
   that FIFO lists predict, and a woken process goes on to block on
   other queues.  An idle process waits on its own control queue for its
   next command, so each step runs inside the wakeup that starts it. *)
let prop_waitq_matches_model =
  let np = 4 and nq = 2 in
  let op =
    QCheck.Gen.(
      frequency
        [ (4, map2 (fun p q -> Block (p, q)) (int_bound (np - 1))
                (int_bound (nq - 1)));
          (1, map2 (fun p j -> Join (p, j)) (int_bound (np - 1))
                (int_bound (np - 1)));
          (3, map (fun q -> Wake_one q) (int_bound (nq - 1)));
          (2, map (fun q -> Wake_all q) (int_bound (nq - 1)));
          (1, map (fun p -> Exit p) (int_bound (np - 1))) ])
  in
  QCheck.Test.make ~count:300
    ~name:"intrusive wait queue agrees with a FIFO list model"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_wq_op ops))
       QCheck.Gen.(list_size (int_bound 60) op))
    (fun ops ->
      let eng = Engine.create () in
      let cpu = Cpu.create eng ~start_clock:false () in
      let queues = Array.init nq (fun _ -> Proc.waitq "shared") in
      let ctl = Array.init np (fun _ -> Proc.waitq "ctl") in
      let cmd = Array.make np (Exit 0) in
      let procs = ref [||] and log = ref [] in
      let body i _ =
        let rec idle () =
          Proc.block ctl.(i);
          match cmd.(i) with
          | Block (_, q) -> resumed (Proc.block queues.(q))
          | Join (_, j) -> resumed (Cpu.join !procs.(j))
          | Exit _ -> ()
          | Wake_one _ | Wake_all _ -> assert false
        and resumed () =
          log := i :: !log;
          idle ()
        in
        idle ()
      in
      procs :=
        Array.init np (fun i ->
            Cpu.spawn cpu ~name:(Printf.sprintf "p%d" i) (body i));
      (* The model: each queue's waiters oldest first (queue [nq + j] is
         process [j]'s exit queue), each process's state, the wake log. *)
      let mq = Array.make (nq + np) [] in
      let state = Array.make np `Idle and mlog = ref [] in
      let wake_head qi =
        match mq.(qi) with
        | [] -> false
        | p :: rest ->
            mq.(qi) <- rest;
            state.(p) <- `Idle;
            mlog := p :: !mlog;
            true
      in
      let rec wake_all qi n = if wake_head qi then wake_all qi (n + 1) else n in
      let command p op =
        cmd.(p) <- op;
        if not (Cpu.wakeup_one cpu ctl.(p)) then
          QCheck.Test.fail_reportf "p%d was not idle" p
      in
      let wait p qi =
        mq.(qi) <- mq.(qi) @ [ p ];
        state.(p) <- `Waiting
      in
      List.iter
        (fun op ->
          match op with
          | Block (p, q) when state.(p) = `Idle ->
              wait p q;
              command p op
          | Join (p, j) when state.(p) = `Idle && p <> j ->
              if state.(j) = `Gone then mlog := p :: !mlog
              else wait p (nq + j);
              command p op
          | Exit p when state.(p) = `Idle ->
              state.(p) <- `Gone;
              ignore (wake_all (nq + p) 0);
              command p op
          | Wake_one q ->
              let want = wake_head q in
              if Cpu.wakeup_one cpu queues.(q) <> want then
                QCheck.Test.fail_reportf "wakeup_one q%d: model says %b" q
                  want
          | Wake_all q ->
              let want = wake_all q 0 in
              let got = Cpu.wakeup_all cpu queues.(q) in
              if got <> want then
                QCheck.Test.fail_reportf "wakeup_all q%d woke %d, model %d" q
                  got want
          | Block _ | Join _ | Exit _ -> ())
        ops;
      let live = Array.fold_left (fun n s -> if s = `Gone then n else n + 1) 0 state in
      List.rev !log = List.rev !mlog && Cpu.proc_count cpu = live)

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
      `Quick test_typed_jobs_allocation_free;
    Alcotest.test_case "run-ahead only by a batch's last member" `Quick
      test_run_ahead_last_member_only ]
  @ List.map
      (fun (name, make) ->
        Alcotest.test_case ("0.0 words per cycle: " ^ name) `Quick
          (test_zero_words make))
      zero_word_cycles
  @ [ Alcotest.test_case "0.0 words per cycle: ip_output" `Quick
        (test_zero_words ip_output_cycle);
      Alcotest.test_case "0.0 words per cycle: run_ahead_compute" `Quick
        test_run_ahead_compute_words;
      Alcotest.test_case "0.0 words per cycle: run_ahead_hardirq" `Quick
        (test_zero_words run_ahead_hardirq_cycle);
      Alcotest.test_case "0.0 words per cycle: frame_path (bsd)" `Quick
        (test_path_words frame_path Lrp_kernel.Kernel.Bsd);
      Alcotest.test_case "0.0 words per cycle: frame_path (soft-lrp)" `Quick
        (test_path_words frame_path Lrp_kernel.Kernel.Soft_lrp);
      Alcotest.test_case "0.0 words per cycle: syn_flood_path (bsd)" `Quick
        (test_path_words syn_flood_path Lrp_kernel.Kernel.Bsd);
      Alcotest.test_case "0.0 words per cycle: syn_flood_path (soft-lrp)"
        `Quick (test_path_words syn_flood_path Lrp_kernel.Kernel.Soft_lrp);
      Alcotest.test_case "block/wake cycle: one continuation" `Quick
        test_block_wake_words;
      Alcotest.test_case "recvfrom of a queued datagram: two continuations"
        `Quick test_recvfrom_queued_words;
      QCheck_alcotest.to_alcotest prop_waitq_matches_model ]
