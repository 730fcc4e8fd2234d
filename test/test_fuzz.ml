(* Differential fuzz harness: random fault scripts (deterministic in their
   seed) replayed across all seven kernel architectures under the same
   workload.  Every run must satisfy the trace oracle; TCP runs must also
   keep byte-stream integrity.  A failing run writes its script to
   [_fuzz_failures/] as a repro artifact — replay by re-running the seed.

   The seed count is fixed so CI is reproducible; set LRP_FUZZ_SEEDS to
   widen the matrix (the extended-fuzz CI job does). *)

open Lrp_engine
open Lrp_sim
open Lrp_net
open Lrp_kernel
open Lrp_workload
open Lrp_check
module Trace = Lrp_trace.Trace

let archs =
  [ Kernel.Bsd; Kernel.Soft_lrp; Kernel.Ni_lrp; Kernel.Early_demux;
    Kernel.Napi; Kernel.Napi_gro; Kernel.Rss ]

(* BSD and the NAPI-family back-ends run eager protocol processing with
   no demux step; the LRP architectures must demultiplex before any
   socket enqueue. *)
let require_demux = function
  | Kernel.Bsd | Kernel.Napi | Kernel.Napi_gro | Kernel.Rss -> false
  | Kernel.Soft_lrp | Kernel.Ni_lrp | Kernel.Early_demux -> true

let n_seeds =
  match int_of_string_opt (try Sys.getenv "LRP_FUZZ_SEEDS" with Not_found -> "") with
  | Some n when n > 0 -> n
  | _ -> 50

let failures_dir = "_fuzz_failures"

(* Repro artifacts: the fault script as JSON, and the kernel's flight
   recorder as a binary dump, so the post-mortem event stream ships with
   the failing seed. *)
let save_failure ?tracer script arch =
  if not (Sys.file_exists failures_dir) then Sys.mkdir failures_dir 0o755;
  let base =
    Printf.sprintf "%s/seed_%d_%s" failures_dir script.Fault_script.seed
      (Kernel.arch_name arch)
  in
  Fault_script.save script (base ^ ".json");
  Option.iter
    (fun tr ->
      Lrp_trace.Precorder.write_dump (Trace.recorder tr) (base ^ ".lrprec"))
    tracer;
  base ^ ".json"

let fail_run ?tracer script arch what =
  let path = save_failure ?tracer script arch in
  Alcotest.fail
    (Printf.sprintf "seed %d on %s: %s (script saved to %s)"
       script.Fault_script.seed (Kernel.arch_name arch) what path)

(* Advance to [until] in 250 us slices, logging the clock (exactly, in
   hex) and the event count after each, as the golden suite's "run equals
   stepping" case does: a run-ahead that lands an event at another's key
   or crosses a run's bound shows in the log even where the end state
   converges. *)
let in_slices advance engine ~until log =
  let t = ref (Engine.now engine) in
  while !t < until do
    t := Float.min until (!t +. 250.);
    advance engine ~until:!t;
    Printf.bprintf log "%h %d\n" (Engine.now engine)
      (Engine.events_executed engine)
  done

(* One UDP blast under a fault script; oracle checked on the receiver.
   [step] advances the engine one event at a time instead of through the
   batched loop (which may run CPU segments ahead, DESIGN §17), both in
   logged slices; [counters] are both kernels' counter tables, engine
   timer stats included. *)
let udp_fuzz_run ?(step = false) ~arch ~seed () =
  let cfg = Kernel.default_config arch in
  let w, client, server = World.pair ~cfg () in
  let tr = Kernel.tracer server in
  Trace.set_enabled tr true;
  Trace.set_filter tr [ Trace.Packet_events ];
  let script = Fault_script.generate ~seed ~duration_us:(Time.ms 100.) in
  Fault_script.apply script ~fabric:(World.fabric w)
    ~engine:(World.engine w);
  let sink = Blast.start_sink server ~port:9000 () in
  let src =
    Blast.start_source (World.engine w) (Kernel.nic client)
      ~src:(Kernel.ip_address client)
      ~dst:(Kernel.ip_address server, 9000)
      ~rate:2_000. ~size:64 ~until:(Time.ms 100.) ()
  in
  (* Slack past the send window so reorder-held frames flush. *)
  let until = Time.ms 150. in
  let advance =
    if step then fun e ~until -> Engine.run_while e (fun () -> true) ~until
    else Engine.run
  in
  let log = Buffer.create 4096 in
  in_slices advance (World.engine w) ~until log;
  let v = Oracle.check_tracer ~require_demux:(require_demux arch) tr in
  let counters = Kernel.counters client @ Kernel.counters server in
  ( script, v, src.Blast.sent, sink.Blast.received, tr, counters,
    Buffer.contents log )

(* Every seed also replays one arch, in turn, one event at a time: the
   batched run must give the same counts, counters, server trace and
   per-slice clock and event count.
   One arch per seed keeps the replay's cost at a seventh of the
   matrix's while every arch is replayed under many scripts. *)
let test_udp_fuzz_matrix () =
  for seed = 0 to n_seeds - 1 do
    let replayed = List.nth archs (seed mod List.length archs) in
    List.iter
      (fun arch ->
        let script, v, sent, received, tr, counters, log =
          udp_fuzz_run ~arch ~seed ()
        in
        if sent = 0 then fail_run ~tracer:tr script arch "source sent nothing";
        if v.Oracle.ring_wrapped then
          fail_run ~tracer:tr script arch "trace ring wrapped";
        if not v.Oracle.ok then
          fail_run ~tracer:tr script arch
            (Format.asprintf "oracle violation: %a" Oracle.pp_verdict v);
        if arch = replayed then begin
          let _, _, sent', received', tr', counters', log' =
            udp_fuzz_run ~step:true ~arch ~seed ()
          in
          if (sent, received) <> (sent', received') || counters <> counters'
             || Trace.events tr <> Trace.events tr' || log <> log'
          then
            fail_run ~tracer:tr script arch
              "the batched run differs from stepping one event at a time"
        end)
      archs
  done

(* One TCP bulk transfer under a fault script.  Loss, burst loss,
   duplication, corruption (caught by the checksum-verify drop path),
   reordering and jitter may all occur; TCP must never surface bytes out
   of order or corrupted, so the received stream is always a prefix of the
   sent stream, and equal to it if the transfer completed. *)
let tcp_fuzz_run ~arch ~seed ~bytes =
  let cfg = Kernel.default_config arch in
  let w, client, server = World.pair ~cfg () in
  let tr = Kernel.tracer server in
  Trace.set_enabled tr true;
  Trace.set_filter tr [ Trace.Packet_events ];
  let script = Fault_script.generate ~seed ~duration_us:(Time.sec 1.) in
  Fault_script.apply script ~fabric:(World.fabric w)
    ~engine:(World.engine w);
  let received = Buffer.create bytes in
  let done_at = ref None in
  ignore
    (Cpu.spawn (Kernel.cpu server) ~name:"rx" (fun self ->
         let lsock = Api.socket_stream server in
         Api.tcp_listen server ~self lsock ~port:5001 ~backlog:4;
         let conn = Api.tcp_accept server ~self lsock in
         let rec drain () =
           match Api.tcp_recv server conn ~max:65_536 with
           | `Data p ->
               Buffer.add_bytes received (Payload.to_bytes p);
               drain ()
           | `Eof -> ()
         in
         drain ();
         Api.close server conn;
         done_at := Some (Engine.now (World.engine w))));
  let data =
    Bytes.init bytes (fun i -> Char.chr ((i * 131 + (i lsr 8) * 17) land 0xff))
  in
  ignore
    (Cpu.spawn (Kernel.cpu client) ~name:"tx" (fun self ->
         let sock = Api.socket_stream client in
         match
           Api.tcp_connect client ~self sock
             ~remote:(Kernel.ip_address server, 5001)
         with
         | `Refused -> ()
         | `Ok ->
             ignore (Api.tcp_send client sock (Payload.of_bytes data));
             Api.close client sock));
  World.run w ~until:(Time.sec 30.);
  let v = Oracle.check_tracer ~require_demux:(require_demux arch) tr in
  (script, v, Bytes.to_string data, Buffer.contents received, !done_at, tr)

let is_prefix ~full s =
  String.length s <= String.length full
  && String.equal (String.sub full 0 (String.length s)) s

let test_tcp_fuzz_matrix () =
  (* A subset of the seed space: bulk runs are ~100x the cost of a UDP
     blast, and the UDP matrix already covers every seed. *)
  let tcp_seeds = max 8 (n_seeds / 4) in
  for seed = 0 to tcp_seeds - 1 do
    List.iter
      (fun arch ->
        let script, v, sent, received, done_at, tr =
          tcp_fuzz_run ~arch ~seed ~bytes:20_000
        in
        if v.Oracle.ring_wrapped then
          fail_run ~tracer:tr script arch "trace ring wrapped";
        if not v.Oracle.ok then
          fail_run ~tracer:tr script arch
            (Format.asprintf "oracle violation: %a" Oracle.pp_verdict v);
        if not (is_prefix ~full:sent received) then
          fail_run ~tracer:tr script arch
            "received stream is not a prefix of the sent stream";
        if done_at <> None && not (String.equal sent received) then
          fail_run ~tracer:tr script arch
            (Printf.sprintf
               "transfer completed but only %d/%d bytes match"
               (String.length received) (String.length sent)))
      archs
  done

(* Packet / socket / connection / channel ids come from process-global
   counters, so two runs in the same process see different raw ids.
   Renumber each id space by first appearance so event streams from
   equivalent runs compare equal. *)
let canon_events evs =
  let renumber () =
    let tbl = Hashtbl.create 256 in
    let next = ref 0 in
    fun id ->
      if id < 0 then id
      else
        match Hashtbl.find_opt tbl id with
        | Some v -> v
        | None ->
            incr next;
            Hashtbl.add tbl id !next;
            !next
  in
  let c = renumber () and sk = renumber () in
  let cn = renumber () and ch = renumber () and fl = renumber () in
  List.map
    (fun (t, seq, ev) ->
      let ev =
        match ev with
        | Trace.Nic_rx e -> Trace.Nic_rx { e with pkt = c e.pkt }
        | Trace.Demux e ->
            Trace.Demux { pkt = c e.pkt; chan = ch e.chan; flow = fl e.flow }
        | Trace.Ipq_enqueue e -> Trace.Ipq_enqueue { e with pkt = c e.pkt }
        | Trace.Drop ({ reason = Trace.Ni_channel; _ } as e) ->
            Trace.Drop { e with pkt = c e.pkt; arg = ch e.arg }
        | Trace.Drop
            ({ reason = Trace.Sock_buf | Trace.Sock_close | Trace.Wrong_peer; _ }
             as e) ->
            Trace.Drop { e with pkt = c e.pkt; arg = sk e.arg }
        | Trace.Drop e -> Trace.Drop { e with pkt = c e.pkt }
        | Trace.Softint_begin e -> Trace.Softint_begin { pkt = c e.pkt }
        | Trace.Softint_end e -> Trace.Softint_end { pkt = c e.pkt }
        | Trace.Proto_deliver e ->
            Trace.Proto_deliver { e with pkt = c e.pkt; conn = cn e.conn }
        | Trace.Sock_enqueue e ->
            Trace.Sock_enqueue { pkt = c e.pkt; sock = sk e.sock }
        | Trace.Syscall_copyout e ->
            Trace.Syscall_copyout { e with pkt = c e.pkt; sock = sk e.sock }
        | Trace.Gro_merge e ->
            Trace.Gro_merge { pkt = c e.pkt; into = c e.into }
        | Trace.Gro_flush e -> Trace.Gro_flush { e with pkt = c e.pkt }
        | (Trace.Intr_enter _ | Trace.Intr_exit _ | Trace.Ctx_switch _
          | Trace.Thread_state _ | Trace.Note _ | Trace.Alarm _
          | Trace.Poll_begin _ | Trace.Poll_end _ | Trace.Coalesce_fire _)
          as other -> other
      in
      (t, seq, ev))
    evs

(* A configured-but-all-zero fault state must be byte-identical to an
   unconfigured fabric: same deliveries, same virtual timestamps, same
   trace event stream (modulo the global ident counter).  This is the
   determinism contract that keeps every experiment datapoint unchanged
   when faults are off. *)
let test_none_faults_byte_identical () =
  List.iter
    (fun arch ->
      let run ~configure =
        let cfg = Kernel.default_config arch in
        let w, client, server = World.pair ~cfg () in
        let tr = Kernel.tracer server in
        Trace.set_enabled tr true;
        (* Packet events only: scheduler events carry process ids, yet
           another global id space. *)
        Trace.set_filter tr [ Trace.Packet_events ];
        if configure then Fabric.set_faults (World.fabric w) Fabric.Faults.none;
        let sink = Blast.start_sink server ~port:9000 () in
        let src =
          Blast.start_source (World.engine w) (Kernel.nic client)
            ~src:(Kernel.ip_address client)
            ~dst:(Kernel.ip_address server, 9000)
            ~rate:5_000. ~size:128 ~until:(Time.ms 50.) ()
        in
        World.run w ~until:(Time.ms 80.);
        (src.Blast.sent, sink.Blast.received, Trace.events tr)
      in
      let sent_a, recv_a, ev_a = run ~configure:false in
      let sent_b, recv_b, ev_b = run ~configure:true in
      Alcotest.(check (pair int int))
        (Printf.sprintf "%s: counts identical with Faults.none"
           (Kernel.arch_name arch))
        (sent_a, recv_a) (sent_b, recv_b);
      Alcotest.(check bool)
        (Printf.sprintf "%s: trace streams byte-identical with Faults.none"
           (Kernel.arch_name arch))
        true
        (canon_events ev_a = canon_events ev_b))
    archs

(* Same seed, same arch, run twice: outcome identical — scripts and fault
   draws are deterministic, so a failure seed is always reproducible. *)
let test_fuzz_run_reproducible () =
  List.iter
    (fun arch ->
      let _, v1, s1, r1, _, _, _ = udp_fuzz_run ~arch ~seed:7 () in
      let _, v2, s2, r2, _, _, _ = udp_fuzz_run ~arch ~seed:7 () in
      Alcotest.(check (pair int int))
        (Printf.sprintf "%s: replayed run identical" (Kernel.arch_name arch))
        (s1, r1) (s2, r2);
      Alcotest.(check bool)
        (Printf.sprintf "%s: replayed verdict identical" (Kernel.arch_name arch))
        true
        (v1.Oracle.arrivals = v2.Oracle.arrivals
        && v1.Oracle.enqueued = v2.Oracle.enqueued
        && v1.Oracle.ok = v2.Oracle.ok))
    [ Kernel.Bsd; Kernel.Ni_lrp ]

let suite =
  [ Alcotest.test_case
      (Printf.sprintf "UDP fault scripts x 7 archs, oracle green (%d seeds)"
         n_seeds)
      `Slow test_udp_fuzz_matrix;
    Alcotest.test_case "TCP fault scripts x 7 archs, stream prefix + oracle"
      `Slow test_tcp_fuzz_matrix;
    Alcotest.test_case "Faults.none is byte-identical to unconfigured" `Quick
      test_none_faults_byte_identical;
    Alcotest.test_case "fuzz runs are reproducible per seed" `Quick
      test_fuzz_run_reproducible ]
