(* Tests for the LRP core: NI channels and the channel table. *)

open Lrp_net
open Lrp_proto
open Lrp_core

(* Frames as row writers: [pkt () pool] writes the datagram into a row
   of [pool]. *)
let pkt ?(src = 1) ?(sport = 10) ?(dport = 20) () pool =
  Parena.udp pool ~src ~dst:2 ~src_port:sport ~dst_port:dport
    (Payload.synthetic 14)

(* --- channel ------------------------------------------------------------ *)

let test_channel_fifo () =
  let ch = Channel.create ~limit:8 () in
  Alcotest.(check int) "first enqueue reports the empty transition"
    Channel.queued_was_empty (Channel.enqueue_code ch 1);
  Alcotest.(check int) "second enqueue reports nonempty"
    Channel.queued_was_nonempty (Channel.enqueue_code ch 2);
  Alcotest.(check int) "fifo order" 1 (Channel.pop_row ch);
  Alcotest.(check int) "length" 1 (Channel.length ch)

let test_channel_early_discard () =
  let ch = Channel.create ~limit:2 () in
  ignore (Channel.enqueue_code ch 10);
  ignore (Channel.enqueue_code ch 10);
  Alcotest.(check int) "early discard at full queue" Channel.discarded_code
    (Channel.enqueue_code ch 10);
  Alcotest.(check int) "discard counted" 1 (Channel.discarded ch);
  Alcotest.(check int) "enqueued counted" 2 (Channel.enqueued ch)

let test_channel_processing_gate () =
  let ch = Channel.create ~limit:8 () in
  Channel.disable_processing ch;
  Alcotest.(check int) "disabled channel must discard" Channel.discarded_code
    (Channel.enqueue_code ch 10);
  Alcotest.(check int) "disabled discard counted" 1 (Channel.discarded_disabled ch);
  Channel.enable_processing ch;
  Alcotest.(check int) "re-enabled channel must accept"
    Channel.queued_was_empty (Channel.enqueue_code ch 10)

let test_channel_interrupt_flag () =
  let ch = Channel.create () in
  Alcotest.(check bool) "initially off" false (Channel.interrupt_requested ch);
  Channel.request_interrupt ch;
  Alcotest.(check bool) "on" true (Channel.interrupt_requested ch);
  Channel.clear_interrupt_request ch;
  Alcotest.(check bool) "off" false (Channel.interrupt_requested ch)

let test_channel_pop_row () =
  (* [pop_row] hands the oldest frame's row over: the row stays held in
     its pool until the new owner releases it. *)
  let pool = Parena.create () in
  let ch = Channel.create () in
  let r1 = pkt ~sport:1 () pool in
  ignore (Channel.enqueue_code ch r1);
  ignore (Channel.enqueue_code ch (pkt ~sport:2 () pool));
  let h = Channel.pop_row ch in
  Alcotest.(check int) "oldest first" r1 h;
  Alcotest.(check int) "its sport" 1 (Parena.sport pool h);
  Alcotest.(check int) "one left" 1 (Channel.length ch);
  Alcotest.(check int) "the popped row is still held" 2 (Parena.live pool);
  Parena.release pool h;
  Parena.release pool (Channel.pop_row ch);
  Alcotest.(check int) "both released" 0 (Parena.live pool);
  Alcotest.(check bool) "empty" true (Channel.pop_row ch = Parena.none)

(* The ring starts small and doubles up to [limit]: every sequence of
   enqueues and pops, across growth and wrap-around, must match a plain
   FIFO with early discard at [limit]. *)
let test_channel_fifo_growth_wrap () =
  List.iter
    (fun limit ->
      let ch = Channel.create ~limit () in
      let model = Queue.create () and next = ref 0 in
      let grow_steps = 3 * (limit + 2) in
      for i = 0 to 2_000 do
        (* First two enqueues per pop, so the queue deepens while its head
           moves and the ring grows with its live handles wrapped; then
           bursts of enqueues and of pops, so the head wraps the full
           ring. *)
        let enq =
          if i < grow_steps then i mod 3 <> 2 else (i / (limit + 3)) mod 2 = 0
        in
        if enq then begin
          incr next;
          if Channel.enqueue_code ch !next <> Channel.discarded_code then
            Queue.add !next model
          else
            Alcotest.(check int) "discards only at limit" limit
              (Queue.length model)
        end
        else
          let row = Channel.pop_row ch in
          match (row <> Parena.none, Queue.take_opt model) with
          | true, Some want -> Alcotest.(check int) "FIFO order" want row
          | false, None -> ()
          | true, None | false, Some _ -> Alcotest.fail "length mismatch"
      done;
      Alcotest.(check int) "length" (Queue.length model) (Channel.length ch))
    [ 1; 2; 3; 4; 5; 7; 8; 9; 32; 100 ]

let test_channel_discard_at_limit () =
  List.iter
    (fun limit ->
      let ch = Channel.create ~limit () in
      for i = 1 to limit do
        if Channel.enqueue_code ch i = Channel.discarded_code then
          Alcotest.failf "limit %d: discard at %d" limit i
      done;
      if Channel.enqueue_code ch 10 <> Channel.discarded_code then
        Alcotest.failf "limit %d: no discard" limit;
      Alcotest.(check int) "one discard" 1 (Channel.discarded ch);
      Alcotest.(check int) "limit enqueued" limit (Channel.enqueued ch);
      Alcotest.(check int) "full" limit (Channel.length ch);
      ignore (Channel.pop_row ch);
      if Channel.enqueue_code ch 10 = Channel.discarded_code then
        Alcotest.failf "limit %d: room after pop" limit;
      Alcotest.(check int) "head after refill" 2 (Channel.pop_row ch))
    [ 2; 3; 4; 5; 6; 8; 13; 32 ]

let test_channel_hwm () =
  let ch = Channel.create ~limit:8 () in
  for i = 1 to 5 do ignore (Channel.enqueue_code ch i) done;
  for _ = 1 to 5 do ignore (Channel.pop_row ch) done;
  for i = 1 to 2 do ignore (Channel.enqueue_code ch i) done;
  Alcotest.(check int) "deepest occupancy, not current" 5
    (Channel.high_watermark ch);
  for i = 1 to 10 do ignore (Channel.enqueue_code ch i) done;
  Alcotest.(check int) "capped at limit" 8 (Channel.high_watermark ch);
  Alcotest.(check int) "excess discarded" 4 (Channel.discarded ch)

let test_channel_limit_one () =
  let ch = Channel.create ~limit:1 () in
  for i = 1 to 5 do
    Alcotest.(check int) "an empty one-slot channel admits"
      Channel.queued_was_empty (Channel.enqueue_code ch i);
    Alcotest.(check int) "a full one-slot channel discards"
      Channel.discarded_code (Channel.enqueue_code ch 10);
    Alcotest.(check int) "FIFO" i (Channel.pop_row ch);
    Alcotest.(check bool) "empty" true (Channel.is_empty ch)
  done;
  Alcotest.(check int) "discards" 5 (Channel.discarded ch);
  Alcotest.(check int) "hwm" 1 (Channel.high_watermark ch)

(* --- chantab ------------------------------------------------------------- *)

(* Endpoints are ints here; odd ones have lost their channel. *)
let chantab () = Chantab.create ~dummy:(-1) ~has_chan:(fun e -> e land 1 = 0) ()

(* The LRP probe of a frame, written as a row of a pool of its own. *)
let resolve_slot tab write =
  let pool = Parena.create () in
  Chantab.resolve_slot tab pool (write pool)

let test_chantab_udp_resolution () =
  let tab = chantab () in
  Chantab.add_udp tab ~port:20 4;
  let slot = resolve_slot tab (pkt ()) in
  Alcotest.(check int) "right endpoint" 4 (Chantab.value tab slot);
  Alcotest.(check int) "unbound port must not resolve" Chantab.slot_none
    (resolve_slot tab (pkt ~dport:99 ()));
  Alcotest.(check int) "miss counted" 1 (Chantab.unmatched tab)

let tcp_pkt ?(src = 7) ?(sport = 1000) ?(dport = 80) ?(syn = false) ?(ack = true) () pool =
  Parena.tcp pool ~src ~dst:2 ~src_port:sport ~dst_port:dport ~seq:0 ~ack_no:0
    ~flags:(Packet.flags ~syn ~ack ()) ~window:100 (Payload.synthetic 0)

let test_chantab_tcp_resolution () =
  let tab = chantab () in
  Chantab.add_listen tab ~port:80 2;
  Chantab.add_tcp tab ~src:7 ~src_port:1000 ~dst_port:80 4;
  let resolve p =
    let slot = resolve_slot tab p in
    if slot >= 0 then Chantab.value tab slot else slot
  in
  Alcotest.(check int) "exact match" 4 (resolve (tcp_pkt ()));
  Alcotest.(check int) "a fresh SYN from another source: the listener" 2
    (resolve (tcp_pkt ~src:8 ~syn:true ~ack:false ()));
  Alcotest.(check int) "a stray segment must not match the listener"
    Chantab.slot_none (resolve (tcp_pkt ~src:9 ()))

let test_chantab_fragment_channel () =
  let tab = chantab () in
  let big = Packet.udp ~src:1 ~dst:2 ~src_port:1 ~dst_port:9 (Payload.synthetic 20_000) in
  let pool = Parena.create () in
  match Ip.fragment pool (Parena.copy_in pool big) ~mtu:9180 with
  | _first :: second :: _ ->
      Alcotest.(check int) "special fragment channel" Chantab.slot_frag
        (Chantab.resolve_slot tab pool second)
  | _ -> Alcotest.fail "expected fragments"

let test_chantab_icmp_channel () =
  let tab = chantab () in
  let ping pool =
    Parena.icmp pool ~src:1 ~dst:2 Packet.Echo_request (Payload.synthetic 8)
  in
  Alcotest.(check int) "proxy daemon channel" Chantab.slot_icmp
    (resolve_slot tab ping)

let test_chantab_removal () =
  let tab = chantab () in
  Chantab.add_udp tab ~port:20 4;
  Chantab.remove_udp tab ~port:20;
  Alcotest.(check int) "removed port does not resolve" Chantab.slot_none
    (resolve_slot tab (pkt ()));
  Alcotest.(check int) "no endpoints left" 0
    (List.length (Chantab.bindings tab Chantab.Udp_port))

(* A connection in TIME_WAIT without its channel keeps its entry: the
   eager probe still finds it, the LRP probe sends a SYN to the listener,
   and a newer connection that took the four-tuple over keeps it when the
   old one is released. *)
let test_chantab_tcp_holder () =
  let tab = chantab () in
  Chantab.add_listen tab ~port:80 2;
  Chantab.add_tcp tab ~src:7 ~src_port:1000 ~dst_port:80 5;
  Alcotest.(check int) "eager: the channel-less connection" 5
    (Chantab.find_tcp tab ~src:7 ~src_port:1000 ~dst_port:80);
  let syn = tcp_pkt ~syn:true ~ack:false () in
  Alcotest.(check int) "LRP: its SYN goes to the listener" 2
    (Chantab.value tab (resolve_slot tab syn));
  Alcotest.(check int) "LRP: its other segments miss" Chantab.slot_none
    (resolve_slot tab (tcp_pkt ()));
  Chantab.add_tcp tab ~src:7 ~src_port:1000 ~dst_port:80 6;
  Chantab.remove_tcp tab ~src:7 ~src_port:1000 ~dst_port:80 5;
  Alcotest.(check int) "the old holder does not unbind the new one" 6
    (Chantab.value tab (resolve_slot tab (tcp_pkt ())));
  Alcotest.(check (list int)) "one four-tuple entry" [ 6 ]
    (Chantab.bindings tab Chantab.Tcp_flow);
  Chantab.remove_tcp tab ~src:7 ~src_port:1000 ~dst_port:80 6;
  Alcotest.(check (list int)) "its holder does" []
    (Chantab.bindings tab Chantab.Tcp_flow);
  Alcotest.(check int) "eager: then the listener, for any segment" 2
    (Chantab.find_tcp tab ~src:7 ~src_port:1000 ~dst_port:80)

(* [bindings] lists a namespace in key order, whatever the insertion
   order. *)
let test_chantab_bindings () =
  let tab = chantab () in
  List.iter (fun port -> Chantab.add_udp tab ~port (port * 2)) [ 30; 10; 20 ];
  Chantab.add_listen tab ~port:15 100;
  Chantab.add_tcp tab ~src:9 ~src_port:1 ~dst_port:80 200;
  Chantab.add_tcp tab ~src:3 ~src_port:2 ~dst_port:80 202;
  Alcotest.(check (list int)) "udp by port" [ 20; 40; 60 ]
    (Chantab.bindings tab Chantab.Udp_port);
  Alcotest.(check (list int)) "listen" [ 100 ]
    (Chantab.bindings tab Chantab.Listen_port);
  Alcotest.(check (list int)) "four-tuples by source" [ 202; 200 ]
    (Chantab.bindings tab Chantab.Tcp_flow)

(* --- the table under Chantab ----------------------------------------- *)

(* A four-tuple per index: the source address is the index itself, so
   the keys are distinct even where the source ports collide. *)
let flow i = (i, (i * 31) land 0xffff)

let test_chantab_million () =
  let tab = chantab () in
  let n = 1_000_000 in
  for i = 0 to n - 1 do
    let src, src_port = flow i in
    Chantab.add_tcp tab ~src ~src_port ~dst_port:80 i
  done;
  let ok = ref true in
  for i = 0 to n - 1 do
    let src, src_port = flow i in
    if Chantab.find_tcp tab ~src ~src_port ~dst_port:80 <> i then ok := false
  done;
  Alcotest.(check bool) "all million flows present with their values" true !ok;
  (* robin hood keeps the longest probe sequence short even at 7/8 load *)
  Alcotest.(check bool) "clustering bound" true (Chantab.max_probe tab < 64);
  for i = 0 to n - 1 do
    let src, src_port = flow i in
    if i land 1 = 0 then Chantab.remove_tcp tab ~src ~src_port ~dst_port:80 i
  done;
  let ok = ref true in
  for i = 0 to n - 1 do
    let src, src_port = flow i in
    let want = if i land 1 = 1 then i else -1 in
    if Chantab.find_tcp tab ~src ~src_port ~dst_port:80 <> want then ok := false
  done;
  Alcotest.(check bool) "survivors exactly the odd flows" true !ok

(* Slot codes must be a pure function of the insert/remove sequence: a
   parallel sweep (--jobs 4) must see the same table as a serial one
   (--jobs 1).  Build the same table on the main domain and on spawned
   domains and compare the LRP probe's slot code for every flow the
   script touched. *)
let test_chantab_slots_deterministic () =
  let build () =
    let tab = chantab () and pool = Parena.create () in
    let script =
      let r = ref 12345 in
      let next () =
        r := ((!r * 1103515245) + 12345) land 0x3FFFFFFF;
        !r
      in
      List.init 5_000 (fun i ->
          let src = next () land 0xFFFF in
          (i, src, next () land 0xFFFF))
    in
    List.iter
      (fun (i, src, src_port) ->
        if i land 7 = 3 then
          Chantab.remove_tcp tab ~src ~src_port ~dst_port:80
            (Chantab.find_tcp tab ~src ~src_port ~dst_port:80)
        else Chantab.add_tcp tab ~src ~src_port ~dst_port:80 (2 * i))
      script;
    List.map
      (fun (_, src, sport) ->
        let row = tcp_pkt ~src ~sport () pool in
        let slot = Chantab.resolve_slot tab pool row in
        Parena.release pool row;
        slot)
      script
  in
  let here = build () in
  Alcotest.(check bool) "non-trivial table" true
    (List.length (List.filter (fun s -> s >= 0) here) > 1_000);
  let domains = Array.init 3 (fun _ -> Domain.spawn build) in
  Array.iter
    (fun d ->
      Alcotest.(check bool) "slot codes identical on a spawned domain" true
        (Domain.join d = here))
    domains

(* Property: four-tuples driven by a random add / remove / stale remove /
   find script agree with an association-list model at every step, and
   [bindings] lists the model's values in key order at the end. *)
let prop_chantab_matches_model =
  let op = QCheck.(triple (int_range 0 3) (int_range 0 15) (int_range 0 3)) in
  QCheck.Test.make ~count:300 ~name:"chantab agrees with an assoc-list model"
    (QCheck.list op)
    (fun ops ->
      let tab = chantab () in
      let model = ref [] in
      List.iteri
        (fun i (op, k, dst_port) ->
          let src = k land 3 and src_port = k lsr 2 in
          let key = (src, src_port, dst_port) in
          let current = Option.value (List.assoc_opt key !model) ~default:(-1) in
          match op with
          | 0 ->
              Chantab.add_tcp tab ~src ~src_port ~dst_port i;
              model := (key, i) :: List.remove_assoc key !model
          | 1 ->
              Chantab.remove_tcp tab ~src ~src_port ~dst_port current;
              model := List.remove_assoc key !model
          | 2 ->
              (* [i] is fresh, so it is nobody's value: nothing is removed *)
              Chantab.remove_tcp tab ~src ~src_port ~dst_port i
          | _ ->
              if Chantab.find_tcp tab ~src ~src_port ~dst_port <> current then
                QCheck.Test.fail_report "find disagrees with model")
        ops;
      Chantab.bindings tab Chantab.Tcp_flow
      = List.map snd (List.sort compare !model))

(* Property: both probe policies of the one table agree with the PCB
   reference in [Demux_ref], over random endpoint sets (connections with
   and without their channel among them) and every packet shape: the LRP
   probe on the packet, counting exactly its misses; the eager probes on
   its ports, counting nothing. *)
let prop_chantab_matches_pcb =
  let gen =
    QCheck.Gen.(
      let small = int_range 1 4 and few g = list_size (int_range 0 5) g in
      let* shape = int_range 0 (Demux_ref.shapes - 1) in
      let* src = small and* sport = small and* dport = small in
      let* syn = bool and* ack = bool in
      let* udp = few small and* tcp = few (pair (triple small small small) bool)
      and* listen = few small in
      return ((shape, src, sport, dport, syn, ack), (udp, tcp, listen)))
  in
  QCheck.Test.make ~count:400 ~name:"chantab: both probes == the PCB reference"
    (QCheck.make gen)
    (fun ((shape, src, sport, dport, syn, ack), (udp, tcp, listen)) ->
      (* Distinct keys, first binding kept; endpoint [2i] has its channel,
         [2i + 1] has lost it. *)
      let dedup l =
        List.fold_left
          (fun acc (k, v) -> if List.mem_assoc k acc then acc else (k, v) :: acc)
          [] l
        |> List.rev
      in
      let number l =
        List.mapi (fun i (k, chan) -> (k, (2 * i) + if chan then 0 else 1)) l
      in
      let udp = number (dedup (List.map (fun p -> (p, true)) udp)) in
      let listen = number (dedup (List.map (fun p -> (p, true)) listen)) in
      let tcp = number (dedup tcp) in
      let tab = chantab () in
      List.iter (fun (port, e) -> Chantab.add_udp tab ~port e) udp;
      List.iter
        (fun ((src, src_port, dst_port), e) ->
          Chantab.add_tcp tab ~src ~src_port ~dst_port e)
        tcp;
      List.iter (fun (port, e) -> Chantab.add_listen tab ~port e) listen;
      let binds =
        { Demux_ref.udp; listen;
          tcp = List.map (fun (k, e) -> (k, (e, e land 1 = 0))) tcp }
      in
      let pool = Parena.create () in
      let row, flow = Demux_ref.packet pool ~shape ~src ~sport ~dport ~syn ~ack in
      let slot = Chantab.resolve_slot tab pool row in
      let got =
        if slot >= 0 then Demux_ref.Ep (Chantab.value tab slot)
        else if slot = Chantab.slot_frag then Demux_ref.Frag
        else if slot = Chantab.slot_icmp then Demux_ref.Icmp
        else Demux_ref.Miss
      in
      let want = Demux_ref.resolve_lrp binds flow in
      let opt e = if e = -1 then None else Some e in
      got = want
      && Chantab.unmatched tab = (if want = Demux_ref.Miss then 1 else 0)
      && opt (Chantab.find_udp tab ~port:dport)
         = Demux_ref.resolve_eager_udp binds ~port:dport
      && opt (Chantab.find_tcp tab ~src ~src_port:sport ~dst_port:dport)
         = Demux_ref.resolve_eager_tcp binds ~src ~src_port:sport ~dst_port:dport
      && opt (Chantab.find_listen tab ~port:dport) = List.assoc_opt dport listen
      (* the eager probes counted nothing *)
      && Chantab.unmatched tab = (if want = Demux_ref.Miss then 1 else 0))

let qsuite =
  [ QCheck_alcotest.to_alcotest prop_chantab_matches_pcb;
    QCheck_alcotest.to_alcotest prop_chantab_matches_model ]

(* The int table against an association-list model: inserts in scrambled
   order (through growth), replacements and removals (backward shifts
   through collision clusters); every probe agrees with the model, and
   the Det helpers visit bindings in ascending key order. *)
let test_itab_sorted () =
  let module Itab = Lrp_det.Itab in
  let t = Itab.create 2 in
  let model = ref [] in
  let set k v =
    Itab.replace t k v;
    model := (k, v) :: List.remove_assoc k !model
  in
  let del k =
    Itab.remove t k;
    model := List.remove_assoc k !model
  in
  (* clustered keys (ports, pids) and spread ones (IPv4 addresses) *)
  for i = 0 to 199 do
    set (((i * 7919) mod 200) + 9000) i;
    set (0x0a000000 + (i * 256)) (-i)
  done;
  set (-5) 5;
  set 9000 42;
  for i = 0 to 99 do
    del ((i * 3) + 9000);
    del (0x0a000000 + (i * 512))
  done;
  del 123456;
  let want = List.sort (fun (a, _) (b, _) -> Int.compare a b) !model in
  Alcotest.(check int) "length" (List.length want) (Itab.length t);
  List.iter
    (fun (k, v) ->
      let slot = Itab.find t k in
      Alcotest.(check bool) "found" true (slot >= 0 && Itab.value t slot = v))
    want;
  Alcotest.(check bool) "removed keys are gone" false
    (Itab.mem t 9003 || Itab.mem t 0x0a000200);
  Alcotest.(check (list int)) "sorted_keys_int ascends" (List.map fst want)
    (Lrp_det.Det.sorted_keys_int t);
  let seen = ref [] in
  Lrp_det.Det.iter_sorted_int (fun k v -> seen := (k, v) :: !seen) t;
  Alcotest.(check (list (pair int int))) "iter_sorted_int ascends" want
    (List.rev !seen);
  Alcotest.(check (list (pair int int))) "fold_sorted_int ascends" want
    (List.rev (Lrp_det.Det.fold_sorted_int (fun k v acc -> (k, v) :: acc) t []));
  Alcotest.check_raises "min_int is the empty marker"
    (Invalid_argument "Itab.replace: reserved key") (fun () ->
      Itab.replace t min_int 0)

let suite =
  [ Alcotest.test_case "channel FIFO + transitions" `Quick test_channel_fifo;
    Alcotest.test_case "channel early discard" `Quick test_channel_early_discard;
    Alcotest.test_case "channel processing gate" `Quick test_channel_processing_gate;
    Alcotest.test_case "channel interrupt flag" `Quick test_channel_interrupt_flag;
    Alcotest.test_case "channel pop_row hands over the row" `Quick
      test_channel_pop_row;
    Alcotest.test_case "channel FIFO across ring growth and wrap" `Quick
      test_channel_fifo_growth_wrap;
    Alcotest.test_case "channel discards at exactly limit" `Quick
      test_channel_discard_at_limit;
    Alcotest.test_case "channel high watermark" `Quick test_channel_hwm;
    Alcotest.test_case "channel limit 1" `Quick test_channel_limit_one;
    Alcotest.test_case "chantab udp resolution" `Quick test_chantab_udp_resolution;
    Alcotest.test_case "chantab tcp exact/listen" `Quick test_chantab_tcp_resolution;
    Alcotest.test_case "chantab fragment channel" `Quick test_chantab_fragment_channel;
    Alcotest.test_case "chantab icmp daemon channel" `Quick test_chantab_icmp_channel;
    Alcotest.test_case "chantab removal" `Quick test_chantab_removal;
    Alcotest.test_case "chantab at a million flows" `Quick test_chantab_million;
    Alcotest.test_case "chantab slot codes are deterministic across domains"
      `Quick test_chantab_slots_deterministic ]
  @ qsuite
  @ [ Alcotest.test_case "itab iterates in ascending key order via Det" `Quick
        test_itab_sorted;
      Alcotest.test_case "chantab: a four-tuple is its holder's to remove"
        `Quick test_chantab_tcp_holder;
      Alcotest.test_case "chantab bindings in key order" `Quick
        test_chantab_bindings ]
