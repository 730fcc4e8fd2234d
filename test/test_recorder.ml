(* Tests for the packed flight recorder, the CPU accounting ledger and
   the livelock/overload detector: ring semantics of the SoA recorder,
   lossless packed -> typed decoding, binary dump round-trips, the
   non-perturbation contract (recorder on/off and --jobs 1 vs 4 produce
   byte-identical figure data), ledger conservation against the CPU
   model's own clocks (aggregate rows of exited processes included), the
   paper's misaccounting contrast, and the detector's BSD-fires /
   LRP-silent discrimination. *)

open Lrp_engine
open Lrp_sim
open Lrp_kernel
open Lrp_workload
open Lrp_experiments
module Trace = Lrp_trace.Trace
module Precorder = Lrp_trace.Precorder
module Overload = Lrp_check.Overload

(* --- packed ring semantics --------------------------------------------- *)

let test_precorder_wrap () =
  let clock = [| 0. |] in
  let p = Precorder.create ~capacity:8 ~clock () in
  for i = 0 to 19 do
    clock.(0) <- float_of_int i;
    Precorder.record p ~kind:0 ~ident:i ~a:(i * 2) ~b:(i * 3)
  done;
  Alcotest.(check int) "length capped at capacity" 8 (Precorder.length p);
  Alcotest.(check int) "dropped counts overwrites" 12 (Precorder.dropped p);
  Alcotest.(check int) "recorded is monotone" 20 (Precorder.recorded p);
  let seen = ref [] in
  Precorder.iter p (fun ~ts ~seq ~kind:_ ~ident ~a ~b ->
      seen := (ts, seq, ident, a, b) :: !seen);
  let seen = List.rev !seen in
  Alcotest.(check int) "iter visits the survivors" 8 (List.length seen);
  List.iteri
    (fun off (ts, seq, ident, a, b) ->
      let i = 12 + off in
      Alcotest.(check (float 0.)) "timestamp survives" (float_of_int i) ts;
      Alcotest.(check int) "sequence reconstructed" i seq;
      Alcotest.(check int) "ident survives" i ident;
      Alcotest.(check (pair int int)) "packed args survive" (i * 2, i * 3)
        (a, b))
    seen

let test_precorder_arg_sentinel () =
  let clock = [| 0. |] in
  let p = Precorder.create ~capacity:4 ~clock () in
  Precorder.record p ~kind:1 ~ident:(-1) ~a:(-1) ~b:Precorder.arg_max;
  Precorder.iter p (fun ~ts:_ ~seq:_ ~kind:_ ~ident ~a ~b ->
      Alcotest.(check int) "-1 ident round-trips" (-1) ident;
      Alcotest.(check int) "-1 arg round-trips" (-1) a;
      Alcotest.(check int) "arg_max round-trips" Precorder.arg_max b)

(* --- packed -> typed decode -------------------------------------------- *)

(* Emit one event of every constructor through [t], advancing the given
   clock cell so timestamps are distinct. *)
let emit_all t clock =
  let tick ts = clock.(0) <- ts in
  tick 1.;
  Trace.nic_rx t ~pkt:7 ~bytes:1500;
  Trace.demux t ~pkt:7 ~chan:3 ~flow:9000;
  tick 2.;
  Trace.ipq_enqueue t ~pkt:7 ~qlen:4;
  Trace.drop t ~reason:Trace.Ip_queue ~pkt:8 ~arg:64;
  Trace.drop t ~reason:Trace.Ni_channel ~pkt:9 ~arg:3;
  tick 3.5;
  Trace.softint_begin t ~pkt:7;
  Trace.proto_deliver t ~pkt:7 ~conn:11 ~in_proc:false;
  Trace.proto_deliver t ~pkt:7 ~conn:(-1) ~in_proc:true;
  Trace.softint_end t ~pkt:7;
  tick 4.;
  Trace.sock_enqueue t ~pkt:7 ~sock:2;
  Trace.drop t ~reason:Trace.Sock_buf ~pkt:10 ~arg:2;
  Trace.syscall_copyout t ~pkt:7 ~sock:2 ~bytes:1472;
  Trace.drop t ~reason:Trace.Checksum ~pkt:11 ~arg:(-1);
  Trace.drop t ~reason:Trace.Mbuf_pool ~pkt:12 ~arg:(-1);
  Trace.drop t ~reason:Trace.Nic_ring ~pkt:15 ~arg:256;
  Trace.drop t ~reason:Trace.Edemux_discard ~pkt:16 ~arg:(-1);
  Trace.drop t ~reason:Trace.Sock_close ~pkt:17 ~arg:2;
  Trace.drop t ~reason:Trace.No_port ~pkt:18 ~arg:9000;
  Trace.drop t ~reason:Trace.Demux_miss ~pkt:19 ~arg:(-1);
  Trace.drop t ~reason:Trace.Not_forwarding ~pkt:20 ~arg:(-1);
  Trace.drop t ~reason:Trace.Wrong_peer ~pkt:21 ~arg:2;
  Trace.drop t ~reason:Trace.Reasm_timeout ~pkt:22 ~arg:(-1);
  tick 5.;
  Trace.intr_enter t ~level:Trace.Hard ~label:"rx-intr";
  Trace.intr_exit t ~level:Trace.Hard ~label:"rx-intr";
  Trace.intr_enter t ~level:Trace.Soft ~label:"softnet";
  Trace.intr_exit t ~level:Trace.Soft ~label:"softnet";
  tick 6.;
  Trace.ctx_switch t ~from_pid:1 ~to_pid:2;
  Trace.thread_state t ~pid:2 ~state:Trace.Spawned;
  Trace.thread_state t ~pid:2 ~state:Trace.Runnable;
  Trace.thread_state t ~pid:2 ~state:Trace.Sleeping;
  Trace.thread_state t ~pid:2 ~state:Trace.Exited;
  tick 7.;
  Trace.note t "checkpoint";
  Trace.notef t "formatted %d" 42;
  Trace.alarm t ~alarm:Trace.Overload ~a:200 ~b:30;
  Trace.alarm t ~alarm:Trace.Livelock ~a:200 ~b:95;
  Trace.alarm t ~alarm:Trace.Starvation ~a:2 ~b:95;
  Trace.alarm t ~alarm:Trace.Queue_watermark ~a:1 ~b:64;
  tick 8.;
  Trace.poll_begin t ~q:1 ~pending:5;
  Trace.poll_end t ~q:1 ~served:4;
  Trace.coalesce_fire t ~q:0 ~pending:8;
  Trace.gro_merge t ~pkt:14 ~into:13;
  Trace.gro_flush t ~pkt:13 ~segs:2

(* What [emit_all] must decode to, written out by hand. *)
let emit_all_expected =
  let open Trace in
  List.mapi
    (fun seq (ts, ev) -> (ts, seq, ev))
    [ (1., Nic_rx { pkt = 7; bytes = 1500 });
      (1., Demux { pkt = 7; chan = 3; flow = 9000 });
      (2., Ipq_enqueue { pkt = 7; qlen = 4 });
      (2., Drop { pkt = 8; reason = Ip_queue; arg = 64 });
      (2., Drop { pkt = 9; reason = Ni_channel; arg = 3 });
      (3.5, Softint_begin { pkt = 7 });
      (3.5, Proto_deliver { pkt = 7; conn = 11; in_proc = false });
      (3.5, Proto_deliver { pkt = 7; conn = -1; in_proc = true });
      (3.5, Softint_end { pkt = 7 });
      (4., Sock_enqueue { pkt = 7; sock = 2 });
      (4., Drop { pkt = 10; reason = Sock_buf; arg = 2 });
      (4., Syscall_copyout { pkt = 7; sock = 2; bytes = 1472 });
      (4., Drop { pkt = 11; reason = Checksum; arg = -1 });
      (4., Drop { pkt = 12; reason = Mbuf_pool; arg = -1 });
      (4., Drop { pkt = 15; reason = Nic_ring; arg = 256 });
      (4., Drop { pkt = 16; reason = Edemux_discard; arg = -1 });
      (4., Drop { pkt = 17; reason = Sock_close; arg = 2 });
      (4., Drop { pkt = 18; reason = No_port; arg = 9000 });
      (4., Drop { pkt = 19; reason = Demux_miss; arg = -1 });
      (4., Drop { pkt = 20; reason = Not_forwarding; arg = -1 });
      (4., Drop { pkt = 21; reason = Wrong_peer; arg = 2 });
      (4., Drop { pkt = 22; reason = Reasm_timeout; arg = -1 });
      (5., Intr_enter { level = Hard; label = "rx-intr" });
      (5., Intr_exit { level = Hard; label = "rx-intr" });
      (5., Intr_enter { level = Soft; label = "softnet" });
      (5., Intr_exit { level = Soft; label = "softnet" });
      (6., Ctx_switch { from_pid = 1; to_pid = 2 });
      (6., Thread_state { pid = 2; state = Spawned });
      (6., Thread_state { pid = 2; state = Runnable });
      (6., Thread_state { pid = 2; state = Sleeping });
      (6., Thread_state { pid = 2; state = Exited });
      (7., Note "checkpoint");
      (7., Note "formatted 42");
      (7., Alarm { alarm = Overload; a = 200; b = 30 });
      (7., Alarm { alarm = Livelock; a = 200; b = 95 });
      (7., Alarm { alarm = Starvation; a = 2; b = 95 });
      (7., Alarm { alarm = Queue_watermark; a = 1; b = 64 });
      (8., Poll_begin { q = 1; pending = 5 });
      (8., Poll_end { q = 1; served = 4 });
      (8., Coalesce_fire { q = 0; pending = 8 });
      (8., Gro_merge { pkt = 14; into = 13 });
      (8., Gro_flush { pkt = 13; segs = 2 }) ]

let make_tracer () =
  let clock = [| 0. |] in
  let t = Trace.create ~name:"recorder" ~clock () in
  Trace.set_enabled t true;
  (t, clock)

let events =
  Alcotest.(list (triple (float 0.) int (testable Trace.pp_event ( = ))))

let test_packed_typed_equal () =
  let t, clock = make_tracer () in
  emit_all t clock;
  Alcotest.check events "packed ring decodes to the emitted events"
    emit_all_expected (Trace.events t)

(* Drop totals count every call, recorded or not: on a disabled tracer,
   one filtered to scheduler events, and a one-slot ring that wrapped.
   On a ring that has not wrapped, each total is the decoded count. *)
let test_drop_totals () =
  let drop_some t =
    Trace.drop t ~reason:Trace.Nic_ring ~pkt:1 ~arg:256;
    Trace.drop t ~reason:Trace.Ni_channel ~pkt:2 ~arg:3;
    Trace.drop t ~reason:Trace.Ni_channel ~pkt:3 ~arg:3;
    Trace.drop t ~reason:Trace.Sock_close ~pkt:4 ~arg:2
  in
  let totals t =
    List.map (Trace.drops t)
      [ Trace.Nic_ring; Trace.Ni_channel; Trace.Sock_close; Trace.Ip_queue ]
  in
  let check what t =
    drop_some t;
    Alcotest.(check (list int)) (what ^ ": totals") [ 1; 2; 1; 0 ] (totals t)
  in
  let disabled = Trace.create ~name:"off" ~clock:[| 0. |] () in
  check "disabled" disabled;
  Alcotest.(check int) "disabled: nothing recorded" 0 (Trace.length disabled);
  let sched, _ = make_tracer () in
  Trace.set_filter sched [ Trace.Sched_events ];
  check "filtered to sched" sched;
  Alcotest.(check int) "filtered: nothing recorded" 0 (Trace.length sched);
  let one = Trace.create ~capacity:1 ~name:"one" ~clock:[| 0. |] () in
  Trace.set_enabled one true;
  check "wrapped" one;
  Alcotest.(check int) "wrapped: three overwritten" 3 (Trace.dropped one);
  let t, clock = make_tracer () in
  emit_all t clock;
  drop_some t;
  List.iter
    (fun (_, _, ev) ->
      match ev with
      | Trace.Drop { reason; _ } ->
          let n =
            List.length
              (List.filter
                 (function
                   | _, _, Trace.Drop { reason = r; _ } -> r = reason
                   | _ -> false)
                 (Trace.events t))
          in
          Alcotest.(check int)
            (Format.asprintf "%a: total = decoded" Trace.pp_event ev)
            n (Trace.drops t reason)
      | _ -> ())
    (Trace.events t)

(* --- binary dump round-trip -------------------------------------------- *)

let test_dump_roundtrip () =
  let t, clock = make_tracer () in
  emit_all t clock;
  let p = Trace.recorder t in
  let file = Filename.temp_file "lrprec" ".bin" in
  Precorder.write_dump p file;
  let q =
    match Precorder.read_dump file with
    | Ok q -> q
    | Error e -> Alcotest.fail ("read_dump: " ^ e)
  in
  Sys.remove file;
  Alcotest.(check int) "length survives the dump" (Precorder.length p)
    (Precorder.length q);
  Alcotest.check events "dump decodes to the emitted events"
    emit_all_expected
    (Trace.events_of_precorder q)

(* A dump header claiming [count] records, then [records] 4-word records
   of [kind]; with [str_len], a one-entry string table whose length word
   is [str_len] and whose bytes are missing. *)
let dump_bytes ?(magic = "LRPREC02") ?str_len ~count ~records ~kind () =
  let b = Buffer.create 128 in
  let word v =
    let w = Bytes.create 8 in
    Bytes.set_int64_le w 0 (Int64.of_int v);
    Buffer.add_bytes b w
  in
  Buffer.add_string b magic;
  List.iter word [ count; count; 0; (if str_len = None then 0 else 1) ];
  Option.iter word str_len;
  for _ = 1 to records do
    List.iter word [ kind; 0; 1; 0 ]
  done;
  Buffer.contents b

let test_dump_rejects_garbage () =
  let rejects what s =
    match Precorder.of_string s with
    | Ok _ -> Alcotest.fail (what ^ " accepted")
    | Error _ -> ()
  in
  rejects "garbage" "not a dump";
  rejects "truncated dump" "LRPREC02\x01\x02";
  (* 72 bytes whose header claims 2^40 records: rejected before the ring
     is sized for them. *)
  rejects "oversized record count"
    (dump_bytes ~count:(1 lsl 40) ~records:1 ~kind:0 ());
  rejects "unknown kind code" (dump_bytes ~count:1 ~records:1 ~kind:999 ());
  (* A length whose padding overflows must not wrap past the bounds check. *)
  rejects "overflowing string length"
    (dump_bytes ~str_len:(max_int - 3) ~count:0 ~records:0 ~kind:0 ());
  (* The previous format numbered its kinds differently: no reading it. *)
  (match
     Precorder.of_string
       (dump_bytes ~magic:"LRPREC01" ~count:1 ~records:1 ~kind:0 ())
   with
   | Ok _ -> Alcotest.fail "LRPREC01 dump accepted"
   | Error e ->
       Alcotest.(check bool) ("the error names the version: " ^ e) true
         (String.starts_with ~prefix:"unsupported dump version LRPREC01" e));
  match Precorder.of_string (dump_bytes ~count:1 ~records:1 ~kind:0 ()) with
  | Ok p ->
      Alcotest.(check int) "well-formed dump reads back" 1 (Precorder.length p)
  | Error e -> Alcotest.fail ("well-formed dump rejected: " ^ e)

(* --- non-perturbation: recorder on/off, any --jobs --------------------- *)

let point = Alcotest.testable (fun fmt (p : Fig3.point) ->
    Format.fprintf fmt "{offered=%.1f delivered=%.1f}" p.Fig3.offered
      p.Fig3.delivered)
    ( = )

let test_recorder_does_not_perturb () =
  List.iter
    (fun sys ->
      let off = Fig3.measure sys ~rate:12_000. ~duration:(Time.ms 300.) in
      let on_, tracer, _counters =
        Fig3.measure_traced sys ~rate:12_000. ~duration:(Time.ms 300.)
      in
      Alcotest.check point
        (Common.system_name sys ^ ": datapoint identical with recorder on")
        off on_;
      Alcotest.(check bool)
        (Common.system_name sys ^ ": the recorder actually recorded")
        true
        (Trace.length tracer > 0))
    [ Common.Bsd; Common.Soft_lrp ]

let test_accounting_jobs_invariant () =
  let a = Accounting.run ~quick:true ~jobs:1 () in
  let b = Accounting.run ~quick:true ~jobs:4 () in
  Alcotest.(check bool) "ledger rows identical at --jobs 1 and 4" true
    (a.Accounting.arch_rows = b.Accounting.arch_rows);
  Alcotest.(check bool) "detector rows identical at --jobs 1 and 4" true
    (a.Accounting.det_rows = b.Accounting.det_rows)

(* --- ledger conservation ----------------------------------------------- *)

let run_blast sys ~rate ~duration =
  let cfg = Common.config_of_system sys in
  let w, client, server = World.pair ~cfg () in
  let sink = Blast.start_sink server ~port:9000 () in
  ignore
    (Blast.start_source (World.engine w) (Kernel.nic client)
       ~src:(Kernel.ip_address client)
       ~dst:(Kernel.ip_address server, 9000)
       ~rate ~size:14 ~until:duration ());
  World.run w ~until:duration;
  (server, sink)

let check_close what expected actual =
  let tol = 1e-6 *. Float.max 1. (Float.abs expected) in
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: ledger %.9g vs cpu %.9g" what actual expected

(* The ledger against the CPU model's own clocks.  NAPI poll cycles are
   in [time_soft] (softirq rounds) or [time_user] (ksoftirqd) and in the
   ledger's [Poll] class, so those two clocks net of [time_poll] hold the
   other classes. *)
let check_conservation name cpu =
  let led = Cpu.ledger cpu in
  let total = Ledger.total led in
  check_close (name ^ " Intr = time_hard") (Cpu.time_hard cpu) (total Ledger.Intr);
  check_close (name ^ " Poll = time_poll") (Cpu.time_poll cpu) (total Ledger.Poll);
  check_close
    (name ^ " Soft+Proto+App = time_soft+time_user-time_poll")
    (Cpu.time_soft cpu +. Cpu.time_user cpu -. Cpu.time_poll cpu)
    (total Ledger.Soft +. total Ledger.Proto +. total Ledger.App);
  if Cpu.time_poll cpu = 0. then begin
    check_close (name ^ " Soft = time_soft") (Cpu.time_soft cpu) (total Ledger.Soft);
    check_close (name ^ " Proto+App = time_user") (Cpu.time_user cpu)
      (total Ledger.Proto +. total Ledger.App)
  end;
  check_close
    (name ^ " grand total = busy cycles")
    (Cpu.time_hard cpu +. Cpu.time_soft cpu +. Cpu.time_user cpu)
    (Ledger.grand_total led);
  (* Per-row columns, the exited processes' aggregate row included, sum
     back to the class totals. *)
  let by_rows =
    List.fold_left
      (fun acc (r : Ledger.row) ->
        acc +. r.Ledger.intr_victim +. r.Ledger.soft_victim +. r.Ledger.proto
        +. r.Ledger.poll +. r.Ledger.app)
      0. (Ledger.rows led)
  in
  check_close (name ^ " rows sum to grand total") (Ledger.grand_total led) by_rows

let test_ledger_conservation () =
  List.iter
    (fun sys ->
      let server, _ = run_blast sys ~rate:10_000. ~duration:(Time.ms 300.) in
      check_conservation (Common.system_name sys) (Kernel.cpu server))
    [ Common.Bsd; Common.Ni_lrp; Common.Soft_lrp; Common.Napi ]

(* Figure 5's world, where every request forks a server process that
   exits and every connection's channel closes: the ledger has folded
   their rows into its aggregate rows, and conservation still holds. *)
let test_ledger_conservation_http () =
  List.iter
    (fun arch ->
      let w, kernels = Test_tcp_e2e.http_syn_world arch in
      World.run w ~until:(Time.sec 3.);
      List.iter
        (fun k ->
          let name = Kernel.arch_name arch ^ " " ^ Kernel.name k in
          check_conservation name (Kernel.cpu k))
        kernels;
      let rows = Ledger.rows (Cpu.ledger (Kernel.cpu (List.hd kernels))) in
      Alcotest.(check bool)
        (Kernel.arch_name arch ^ ": the server's exited processes were folded")
        true
        (List.exists (fun (r : Ledger.row) -> r.Ledger.pid = Ledger.exited_pid) rows))
    [ Kernel.Soft_lrp; Kernel.Bsd ]

(* --- the paper's accounting contrast ----------------------------------- *)

let test_misaccounting_contrast () =
  let bsd =
    Accounting.measure_arch Common.Bsd ~rate:8_000. ~duration:(Time.ms 300.)
  in
  let ni =
    Accounting.measure_arch Common.Ni_lrp ~rate:8_000. ~duration:(Time.ms 300.)
  in
  Alcotest.(check bool) "BSD mischarges most interrupt work" true
    (bsd.Accounting.mischarged > 5. *. ni.Accounting.mischarged);
  Alcotest.(check bool) "BSD does no receiver-context protocol work" true
    (bsd.Accounting.receiver_proto = 0.);
  Alcotest.(check bool) "NI-LRP charges protocol work to the receiver" true
    (ni.Accounting.receiver_proto > 0.)

(* --- detector discrimination ------------------------------------------- *)

let test_detector_discriminates () =
  let rate = 14_000. and duration = Time.ms 500. in
  let bsd = Accounting.measure_detector Common.Bsd ~rate ~duration in
  let lrp = Accounting.measure_detector Common.Soft_lrp ~rate ~duration in
  let brep = bsd.Accounting.d_report and lrep = lrp.Accounting.d_report in
  Alcotest.(check bool) "BSD livelocks under a 14k pkts/s blast" true
    (brep.Overload.livelock_windows > 0);
  Alcotest.(check bool) "BSD collapse is also an overload" true
    (brep.Overload.overload_windows >= brep.Overload.livelock_windows);
  Alcotest.(check bool) "SOFT-LRP never livelocks at the same load" true
    (lrep.Overload.livelock_windows = 0);
  Alcotest.(check bool) "SOFT-LRP keeps interrupt share low" true
    (lrep.Overload.peak_intr_share < 0.8);
  Alcotest.(check bool) "SOFT-LRP out-delivers BSD" true
    (lrp.Accounting.d_delivered > bsd.Accounting.d_delivered)

let test_detector_silent_when_healthy () =
  let cfg = Common.config_of_system Common.Soft_lrp in
  let w, client, server = World.pair ~cfg () in
  let det = Overload.attach server in
  let _sink = Blast.start_sink server ~port:9000 () in
  ignore
    (Blast.start_source (World.engine w) (Kernel.nic client)
       ~src:(Kernel.ip_address client)
       ~dst:(Kernel.ip_address server, 9000)
       ~rate:4_000. ~size:14 ~until:(Time.ms 500.) ());
  World.run w ~until:(Time.ms 500.);
  Overload.detach det;
  let rep = Overload.report det in
  Alcotest.(check int) "no overload at a healthy rate" 0
    rep.Overload.overload_windows;
  Alcotest.(check int) "no starvation at a healthy rate" 0
    rep.Overload.starved_windows;
  Alcotest.(check bool) "windows were actually judged" true
    (rep.Overload.judged > 0)

(* --- detector alarms land in the flight recorder ----------------------- *)

let test_alarms_recorded () =
  let cfg = Common.config_of_system Common.Bsd in
  let w, client, server = World.pair ~cfg () in
  Kernel.set_tracing server true;
  Trace.set_filter (Kernel.tracer server) [ Trace.Note_events ];
  let det = Overload.attach server in
  let _sink = Blast.start_sink server ~port:9000 () in
  ignore
    (Blast.start_source (World.engine w) (Kernel.nic client)
       ~src:(Kernel.ip_address client)
       ~dst:(Kernel.ip_address server, 9000)
       ~rate:20_000. ~size:14 ~until:(Time.ms 500.) ());
  World.run w ~until:(Time.ms 500.);
  Overload.detach det;
  let events = Trace.events (Kernel.tracer server) in
  let count k =
    List.length
      (List.filter
         (function
           | _, _, Trace.Alarm { alarm; _ } -> alarm = k | _ -> false)
         events)
  in
  let rep = Overload.report det in
  Alcotest.(check int) "every overload window left an alarm event"
    rep.Overload.overload_windows (count Trace.Overload);
  Alcotest.(check int) "every livelock window left an alarm event"
    rep.Overload.livelock_windows (count Trace.Livelock);
  Alcotest.(check bool) "queue watermarks were recorded" true
    (count Trace.Queue_watermark > 0)

let suite =
  [ Alcotest.test_case "packed ring wraps and reconstructs sequences" `Quick
      test_precorder_wrap;
    Alcotest.test_case "packed args keep -1 sentinel and arg_max" `Quick
      test_precorder_arg_sentinel;
    Alcotest.test_case "packed ring decodes to the typed event stream" `Quick
      test_packed_typed_equal;
    Alcotest.test_case "drop totals count recorded or not" `Quick
      test_drop_totals;
    Alcotest.test_case "binary dump round-trips losslessly" `Quick
      test_dump_roundtrip;
    Alcotest.test_case "dump reader rejects malformed input" `Quick
      test_dump_rejects_garbage;
    Alcotest.test_case "recorder on/off gives identical datapoints" `Quick
      test_recorder_does_not_perturb;
    Alcotest.test_case "accounting tables identical at --jobs 1 and 4" `Quick
      test_accounting_jobs_invariant;
    Alcotest.test_case "ledger conserves every simulated cycle" `Quick
      test_ledger_conservation;
    Alcotest.test_case "ledger conserves cycles across exits and closes (HTTP+SYN)"
      `Quick test_ledger_conservation_http;
    Alcotest.test_case "BSD mischarges, LRP bills the receiver" `Quick
      test_misaccounting_contrast;
    Alcotest.test_case "detector: BSD livelocks, SOFT-LRP does not" `Quick
      test_detector_discriminates;
    Alcotest.test_case "detector stays silent at healthy load" `Quick
      test_detector_silent_when_healthy;
    Alcotest.test_case "alarms and watermarks land in the recorder" `Quick
      test_alarms_recorded ]
