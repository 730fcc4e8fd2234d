(* Unit tests for the TCP state machine in isolation, using a loop-back
   harness: two connections wired through in-memory queues with an explicit
   virtual clock, no CPU model.  This pins down protocol behaviour
   independent of the kernel architectures. *)

open Lrp_net
open Lrp_proto

(* ------------------------------------------------------------------ *)
(* Harness                                                              *)
(* ------------------------------------------------------------------ *)

type harness = {
  clock : float array;  (* the virtual clock: [clock.(0)] is now *)
  deadline : float array;  (* where TCP stages a timer's expiry *)
  mutable wire_ab : (float * Parena.handle) list;
      (* in-flight a->b, (arrival, the segment's row in [pool]) *)
  mutable wire_ba : (float * Parena.handle) list;
  mutable timers : (float * Tcp.timer * int) list;
      (* (deadline, timer, generation at arm time); a stop or re-arm bumps
         the timer's generation, so stale entries fire as no-ops *)
  latency : float;
  mutable drop_next : int;  (* drop the next n frames (loss injection) *)
  mutable events : string list;
}

let mk_harness ?(latency = 100.) () =
  { clock = [| 0. |]; deadline = [| 0. |]; wire_ab = []; wire_ba = [];
    timers = []; latency; drop_next = 0; events = [] }

let log h fmt = Printf.ksprintf (fun s -> h.events <- s :: h.events) fmt

(* The frame pool both ends write their segments into: a segment is a
   row, released once the receiving connection has read it (or lost). *)
let pool = Parena.create ()

let mk_env h ~dir =
  let emit row =
    if h.drop_next > 0 then begin
      h.drop_next <- h.drop_next - 1;
      Parena.release pool row
    end
    else begin
      let entry = (h.clock.(0) +. h.latency, row) in
      match dir with
      | `Ab -> h.wire_ab <- h.wire_ab @ [ entry ]
      | `Ba -> h.wire_ba <- h.wire_ba @ [ entry ]
    end
  in
  { Tcp.clock = h.clock;
    deadline = h.deadline;
    pool;
    emit;
    start_timer =
      (fun tm ->
        h.timers <- (h.deadline.(0), tm, Tcp.timer_gen tm) :: h.timers);
    stop_timer = (fun _ -> () (* generation check drops stale entries *));
    on_readable = (fun c -> log h "readable:%d" c.Tcp.id);
    on_writable = (fun _ -> ());
    on_established = (fun c -> log h "established:%d" c.Tcp.id);
    on_accept_ready = (fun _ c -> log h "accept:%d" c.Tcp.id);
    on_syn_received = (fun _ _ -> ());
    on_connect_failed = (fun c -> log h "connfail:%d" c.Tcp.id);
    on_reset = (fun c -> log h "reset:%d" c.Tcp.id);
    on_time_wait = (fun _ -> ());
    on_closed = (fun c -> log h "closed:%d" c.Tcp.id);
    mss = 1460;
    time_wait_duration = 1_000_000.;
    initial_rto = 500_000.;
    max_syn_retries = 3;
    totals = Tcp.new_totals ();
    rows = Tcp.new_rows ();
    spare = Tcp.new_spare () }

(* Advance virtual time, delivering wire packets and firing timers in
   order.  [route] maps an inbound segment's row to the connection that should
   receive it. *)
(* Hand a segment's row to a connection as the kernel does, releasing it
   once the connection has read it. *)
let input c row =
  Tcp.input c pool row;
  Parena.release pool row

let run h ~until ~route_a ~route_b =
  let rec step () =
    (* earliest pending event *)
    let next_wire l = List.fold_left (fun acc (t, _) -> min acc t) infinity l in
    let next_timer =
      List.fold_left (fun acc (t, tm, gen) ->
          if Tcp.timer_armed tm && Tcp.timer_gen tm = gen then min acc t
          else acc)
        infinity h.timers
    in
    let t = min (min (next_wire h.wire_ab) (next_wire h.wire_ba)) next_timer in
    if t <= until then begin
      h.clock.(0) <- t;
      (* deliver due frames a->b *)
      let due, rest = List.partition (fun (at, _) -> at <= t) h.wire_ab in
      h.wire_ab <- rest;
      List.iter (fun (_, row) -> match route_b row with
          | Some c -> input c row
          | None -> Parena.release pool row) due;
      let due, rest = List.partition (fun (at, _) -> at <= t) h.wire_ba in
      h.wire_ba <- rest;
      List.iter (fun (_, row) -> match route_a row with
          | Some c -> input c row
          | None -> Parena.release pool row) due;
      (* fire due timers (stale entries are dropped by the gen check) *)
      let due, rest = List.partition (fun (at, _, _) -> at <= t) h.timers in
      h.timers <- rest;
      List.iter (fun (_, tm, gen) -> Tcp.timer_fired tm ~gen) due;
      step ()
    end
    else h.clock.(0) <- until
  in
  step ()

(* Simpler: wire routing via the env's on_syn_received to capture the
   child.  [drop] loses that many frames from the active open's SYN on. *)
let make_pair ?latency ?(backlog = 4) ?(drop = 0) () =
  let h = mk_harness ?latency () in
  let env_a = mk_env h ~dir:`Ab in
  let env_b = mk_env h ~dir:`Ba in
  let child = ref None in
  let env_b = { env_b with Tcp.on_syn_received = (fun _ c -> child := Some c) } in
  let listener = Tcp.create_listener env_b ~local_ip:2 ~local_port:80 ~backlog () in
  h.drop_next <- drop;
  let client = Tcp.create_active env_a ~local_ip:1 ~local_port:5000 ~remote:(2, 80) () in
  let route_a _ = Some client in
  let route_b _ = match !child with Some c -> Some c | None -> Some listener in
  (h, client, listener, child, route_a, route_b)

(* ------------------------------------------------------------------ *)
(* Tests                                                                *)
(* ------------------------------------------------------------------ *)

let test_handshake () =
  let h, client, listener, child, route_a, route_b = make_pair () in
  run h ~until:10_000. ~route_a ~route_b;
  Alcotest.(check string) "client established" "ESTABLISHED"
    (Tcp.state_name (Tcp.state client));
  (match !child with
   | Some c ->
       Alcotest.(check string) "server established" "ESTABLISHED"
         (Tcp.state_name (Tcp.state c))
   | None -> Alcotest.fail "no child connection");
  Alcotest.(check bool) "accept queue has the child" true
    (Tcp.accept_ready listener)

let test_data_transfer () =
  let h, client, _listener, child, route_a, route_b = make_pair () in
  run h ~until:10_000. ~route_a ~route_b;
  let server = Option.get !child in
  Alcotest.(check int) "send accepted" 11
    (Tcp.send client (Payload.of_string "hello world"));
  run h ~until:20_000. ~route_a ~route_b;
  Alcotest.(check string) "payload" "hello world"
    (Bytes.to_string (Payload.to_bytes (Tcp.recv server ~max:100)))

let test_mss_segmentation () =
  let h, client, _listener, child, route_a, route_b = make_pair () in
  run h ~until:10_000. ~route_a ~route_b;
  let server = Option.get !child in
  ignore (Tcp.send client (Payload.synthetic 5_000));
  run h ~until:100_000. ~route_a ~route_b;
  Alcotest.(check int) "all bytes arrive" 5_000 server.Tcp.rcvq_bytes;
  Alcotest.(check bool) "multiple segments used" true
    (Tcp.(client.env.totals.segs_sent) >= 4)

let test_retransmit_on_loss () =
  let h, client, _listener, child, route_a, route_b = make_pair () in
  run h ~until:10_000. ~route_a ~route_b;
  let server = Option.get !child in
  h.drop_next <- 1 (* lose the next data segment *);
  ignore (Tcp.send client (Payload.of_string "precious"));
  run h ~until:3_000_000. ~route_a ~route_b;
  Alcotest.(check int) "data recovered via retransmit" 8 server.Tcp.rcvq_bytes;
  Alcotest.(check bool) "a retransmission happened" true
    (Tcp.(client.env.totals.retransmits) >= 1)

let test_out_of_order_delivery () =
  (* Two segments; the first is lost and retransmitted, so the second
     arrives out of order and must be buffered. *)
  let h, client, _listener, child, route_a, route_b = make_pair () in
  run h ~until:10_000. ~route_a ~route_b;
  let server = Option.get !child in
  (* Send two segments back to back, losing only the first. *)
  h.drop_next <- 1;
  ignore (Tcp.send client (Payload.synthetic 1_460));
  ignore (Tcp.send client (Payload.synthetic 100));
  run h ~until:5_000_000. ~route_a ~route_b;
  Alcotest.(check int) "both segments eventually in order" 1_560
    server.Tcp.rcvq_bytes

let test_flow_control_window () =
  (* A receiver with a small buffer that never reads: the sender must stop
     at the advertised window. *)
  let h = mk_harness () in
  let env_a = mk_env h ~dir:`Ab in
  let env_b = mk_env h ~dir:`Ba in
  let child = ref None in
  let env_b = { env_b with Tcp.on_syn_received = (fun _ c -> child := Some c) } in
  let _listener =
    Tcp.create_listener env_b ~local_ip:2 ~local_port:80 ~rcv_buf_limit:4_000
      ~backlog:4 ()
  in
  let client =
    Tcp.create_active env_a ~local_ip:1 ~local_port:5000 ~remote:(2, 80)
      ~sndq_limit:100_000 ()
  in
  let route_a _ = Some client in
  let route_b _ = match !child with Some c -> Some c | None -> Some _listener in
  run h ~until:10_000. ~route_a ~route_b;
  ignore (Tcp.send client (Payload.synthetic 50_000));
  run h ~until:1_000_000. ~route_a ~route_b;
  let server = Option.get !child in
  Alcotest.(check bool)
    (Printf.sprintf "receiver holds at most its buffer (%d)" server.Tcp.rcvq_bytes)
    true
    (server.Tcp.rcvq_bytes <= 4_000);
  Alcotest.(check bool) "sender stopped at the window" true
    (client.Tcp.snd_nxt - client.Tcp.snd_una <= 4_096);
  (* Now the receiver drains; the window reopens; more data flows. *)
  Alcotest.(check bool) "expected data" true
    (Tcp.recv server ~max:4_000 != Tcp.no_data);
  run h ~until:10_000_000. ~route_a ~route_b;
  Alcotest.(check bool) "transfer progressed after window update" true
    (Tcp.(server.env.totals.bytes_rcvd) > 4_000)

let test_slow_start_growth () =
  let h, client, _listener, child, route_a, route_b = make_pair () in
  run h ~until:10_000. ~route_a ~route_b;
  ignore !child;
  let cwnd0 = client.Tcp.fl.Tcp.cwnd in
  ignore (Tcp.send client (Payload.synthetic 8_000));
  run h ~until:1_000_000. ~route_a ~route_b;
  Alcotest.(check bool) "cwnd grew during slow start" true (client.Tcp.fl.Tcp.cwnd > cwnd0)

let test_rto_backoff_collapses_cwnd () =
  let h, client, _listener, child, route_a, route_b = make_pair () in
  run h ~until:10_000. ~route_a ~route_b;
  ignore !child;
  ignore (Tcp.send client (Payload.synthetic 4_000));
  run h ~until:200_000. ~route_a ~route_b;
  let cwnd_grown = client.Tcp.fl.Tcp.cwnd in
  (* Now lose everything for a while: the retransmission timeout must
     collapse cwnd to one MSS. *)
  h.drop_next <- 100;
  ignore (Tcp.send client (Payload.synthetic 4_000));
  run h ~until:2_000_000. ~route_a ~route_b;
  Alcotest.(check bool) "cwnd collapsed after RTO" true
    (client.Tcp.fl.Tcp.cwnd < cwnd_grown);
  Alcotest.(check (float 0.)) "cwnd = 1 MSS" 1460. client.Tcp.fl.Tcp.cwnd

let test_graceful_close () =
  let h, client, _listener, child, route_a, route_b = make_pair () in
  run h ~until:10_000. ~route_a ~route_b;
  let server = Option.get !child in
  Tcp.close client;
  run h ~until:50_000. ~route_a ~route_b;
  Alcotest.(check string) "server side saw FIN -> CLOSE_WAIT" "CLOSE_WAIT"
    (Tcp.state_name (Tcp.state server));
  Alcotest.(check bool) "expected EOF" true
    (Tcp.recv server ~max:10 == Tcp.no_data && Tcp.at_eof server);
  Tcp.close server;
  run h ~until:500_000. ~route_a ~route_b;
  Alcotest.(check string) "client in TIME_WAIT" "TIME_WAIT"
    (Tcp.state_name (Tcp.state client));
  Alcotest.(check string) "server closed" "CLOSED"
    (Tcp.state_name (Tcp.state server));
  (* TIME_WAIT expires. *)
  run h ~until:5_000_000. ~route_a ~route_b;
  Alcotest.(check string) "client closed after 2MSL" "CLOSED"
    (Tcp.state_name (Tcp.state client))

let test_fin_with_pending_data () =
  (* close() with unsent data: the FIN must ride after all data. *)
  let h, client, _listener, child, route_a, route_b = make_pair () in
  run h ~until:10_000. ~route_a ~route_b;
  let server = Option.get !child in
  ignore (Tcp.send client (Payload.synthetic 10_000));
  Tcp.close client;
  run h ~until:5_000_000. ~route_a ~route_b;
  Alcotest.(check int) "all data arrived before FIN" 10_000
    Tcp.(server.env.totals.bytes_rcvd);
  Alcotest.(check bool) "server saw the FIN" true server.Tcp.fin_received

let test_syn_backlog_drop () =
  let h = mk_harness () in
  let env_b = mk_env h ~dir:`Ba in
  let listener = Tcp.create_listener env_b ~local_ip:2 ~local_port:80 ~backlog:2 () in
  (* Three SYNs from distinct sources; the third must be dropped. *)
  for i = 1 to 3 do
    let syn =
      Parena.tcp pool ~src:(100 + i) ~dst:2 ~src_port:1000 ~dst_port:80
        ~seq:0 ~ack_no:0 ~flags:(Packet.flags ~syn:true ()) ~window:1000
        (Payload.synthetic 0)
    in
    input listener syn
  done;
  Alcotest.(check int) "two embryonic" 2 listener.Tcp.listen.Tcp.syn_pending;
  Alcotest.(check int) "one dropped at backlog" 1 listener.Tcp.listen.Tcp.syn_drops_backlog

(* Karn's rule on the handshake: the SYN-ACK answering a retransmitted
   SYN cannot tell which SYN it acknowledges, so it is no RTT sample (an
   RTT timed from the first SYN would include the whole backoff). *)
let test_syn_retransmit_takes_no_rtt_sample () =
  let h, client, _listener, _child, route_a, route_b = make_pair ~drop:1 () in
  run h ~until:2_000_000. ~route_a ~route_b;
  Alcotest.(check string) "established after one SYN retransmit"
    "ESTABLISHED" (Tcp.state_name (Tcp.state client));
  Alcotest.(check int) "one retransmit" 1 client.Tcp.env.Tcp.totals.Tcp.retransmits;
  Alcotest.(check bool) "no RTT sample" true (client.Tcp.fl.Tcp.srtt < 0.);
  Alcotest.(check (float 0.)) "rto still the initial value" 500_000.
    client.Tcp.fl.Tcp.rto

let test_syn_retry_gives_up () =
  (* Active open with every packet dropped: retries then fails. *)
  let h = mk_harness () in
  let env_a = mk_env h ~dir:`Ab in
  h.drop_next <- max_int;
  let client = Tcp.create_active env_a ~local_ip:1 ~local_port:5000 ~remote:(2, 80) () in
  let route _ = None in
  run h ~until:20_000_000. ~route_a:route ~route_b:route;
  Alcotest.(check string) "gave up -> CLOSED" "CLOSED" (Tcp.state_name (Tcp.state client));
  Alcotest.(check bool) "failure reported" true
    (List.mem (Printf.sprintf "connfail:%d" client.Tcp.id) h.events)

let test_rst_teardown () =
  let h, client, _listener, child, route_a, route_b = make_pair () in
  run h ~until:10_000. ~route_a ~route_b;
  let server = Option.get !child in
  Tcp.abort client;
  run h ~until:50_000. ~route_a ~route_b;
  Alcotest.(check string) "server reset to CLOSED" "CLOSED"
    (Tcp.state_name (Tcp.state server));
  Alcotest.(check bool) "reset event seen" true
    (List.mem (Printf.sprintf "reset:%d" server.Tcp.id) h.events)

let test_send_on_closed () =
  let h = mk_harness () in
  let env_a = mk_env h ~dir:`Ab in
  let client = Tcp.create_active env_a ~local_ip:1 ~local_port:5000 ~remote:(2, 80) () in
  Tcp.close client;
  Alcotest.(check int) "send on closed connection fails" (-1)
    (Tcp.send client (Payload.synthetic 10))

(* Integrity under random loss in the harness (complements the e2e test). *)
let prop_transfer_integrity_under_loss =
  QCheck.Test.make ~count:25 ~name:"tcp: stream intact under random early drops"
    QCheck.(int_range 0 5)
    (fun drops ->
      let h, client, _listener, child, route_a, route_b = make_pair () in
      run h ~until:10_000. ~route_a ~route_b;
      let server = Option.get !child in
      h.drop_next <- drops;
      ignore (Tcp.send client (Payload.synthetic 20_000));
      run h ~until:30_000_000. ~route_a ~route_b;
      Tcp.(server.env.totals.bytes_rcvd) = 20_000)

let qsuite = [ QCheck_alcotest.to_alcotest prop_transfer_integrity_under_loss ]

let suite =
  [ Alcotest.test_case "three-way handshake" `Quick test_handshake;
    Alcotest.test_case "data transfer" `Quick test_data_transfer;
    Alcotest.test_case "MSS segmentation" `Quick test_mss_segmentation;
    Alcotest.test_case "retransmit on loss" `Quick test_retransmit_on_loss;
    Alcotest.test_case "out-of-order buffering" `Quick test_out_of_order_delivery;
    Alcotest.test_case "flow-control window" `Quick test_flow_control_window;
    Alcotest.test_case "slow-start growth" `Quick test_slow_start_growth;
    Alcotest.test_case "RTO collapses cwnd" `Quick test_rto_backoff_collapses_cwnd;
    Alcotest.test_case "graceful close / TIME_WAIT" `Quick test_graceful_close;
    Alcotest.test_case "FIN after pending data" `Quick test_fin_with_pending_data;
    Alcotest.test_case "SYN backlog drop" `Quick test_syn_backlog_drop;
    Alcotest.test_case "SYN retry gives up" `Quick test_syn_retry_gives_up;
    Alcotest.test_case "retransmitted SYN takes no RTT sample (Karn)" `Quick
      test_syn_retransmit_takes_no_rtt_sample;
    Alcotest.test_case "RST teardown" `Quick test_rst_teardown;
    Alcotest.test_case "send on closed connection" `Quick test_send_on_closed ]
  @ qsuite

(* --- more edge cases -------------------------------------------------- *)

let test_simultaneous_close () =
  let h, client, _listener, child, route_a, route_b = make_pair () in
  run h ~until:10_000. ~route_a ~route_b;
  let server = Option.get !child in
  (* Both ends close at the same instant: FINs cross on the wire. *)
  Tcp.close client;
  Tcp.close server;
  run h ~until:30_000_000. ~route_a ~route_b;
  Alcotest.(check bool)
    (Printf.sprintf "both ends reach CLOSED/TIME_WAIT (client %s, server %s)"
       (Tcp.state_name (Tcp.state client))
       (Tcp.state_name (Tcp.state server)))
    true
    (List.mem (Tcp.state client) [ Tcp.Closed ]
     && List.mem (Tcp.state server) [ Tcp.Closed ])

let test_persist_probe_resolves_zero_window () =
  (* The receiver's window closes and the window-update ack is lost: the
     persist timer must eventually probe and re-learn the open window. *)
  let h = mk_harness () in
  let env_a = mk_env h ~dir:`Ab in
  let env_b = mk_env h ~dir:`Ba in
  let child = ref None in
  let env_b = { env_b with Tcp.on_syn_received = (fun _ c -> child := Some c) } in
  let _listener =
    Tcp.create_listener env_b ~local_ip:2 ~local_port:80 ~rcv_buf_limit:2_000
      ~backlog:4 ()
  in
  let client =
    Tcp.create_active env_a ~local_ip:1 ~local_port:5000 ~remote:(2, 80)
      ~sndq_limit:100_000 ()
  in
  let route_a _ = Some client in
  let route_b _ = match !child with Some c -> Some c | None -> Some _listener in
  run h ~until:10_000. ~route_a ~route_b;
  let server = Option.get !child in
  ignore (Tcp.send client (Payload.synthetic 10_000));
  run h ~until:500_000. ~route_a ~route_b;
  (* Receiver buffer is now full; drain it but LOSE the window update. *)
  h.drop_next <- 1;
  Alcotest.(check bool) "expected buffered data" true
    (Tcp.recv server ~max:2_000 != Tcp.no_data);
  (* Only the persist probe can restart the transfer. *)
  run h ~until:60_000_000. ~route_a ~route_b;
  ignore (Tcp.recv server ~max:100_000 : Payload.t);
  run h ~until:120_000_000. ~route_a ~route_b;
  Alcotest.(check bool)
    (Printf.sprintf "transfer progressed past the stall (%d rcvd)"
       Tcp.(server.env.totals.bytes_rcvd))
    true
    (Tcp.(server.env.totals.bytes_rcvd) > 2_000)

let test_listener_ignores_stray_ack () =
  let h = mk_harness () in
  let env_b = mk_env h ~dir:`Ba in
  let listener = Tcp.create_listener env_b ~local_ip:2 ~local_port:80 ~backlog:2 () in
  let stray =
    Parena.tcp pool ~src:50 ~dst:2 ~src_port:999 ~dst_port:80 ~seq:100
      ~ack_no:200 ~flags:(Packet.flags ~ack:true ()) ~window:1000
      (Payload.synthetic 0)
  in
  input listener stray;
  Alcotest.(check int) "no embryonic connection created" 0 listener.Tcp.listen.Tcp.syn_pending;
  Alcotest.(check string) "listener unchanged" "LISTEN"
    (Tcp.state_name (Tcp.state listener))

let suite =
  suite
  @ [ Alcotest.test_case "simultaneous close" `Quick test_simultaneous_close;
      Alcotest.test_case "persist probe resolves a lost window update" `Quick
        test_persist_probe_resolves_zero_window;
      Alcotest.test_case "listener ignores stray ACKs" `Quick
        test_listener_ignores_stray_ack ]
