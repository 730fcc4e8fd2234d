(* Unit and property tests for the network substrate: payloads, packets,
   mbuf pool, NIC and fabric timing. *)

open Lrp_engine
open Lrp_net

(* --- payload ----------------------------------------------------------- *)

let test_payload_basics () =
  let p = Payload.synthetic ~tag:7 100 in
  Alcotest.(check int) "length" 100 (Payload.length p);
  Alcotest.(check (option int)) "tag" (Some 7) (Payload.tag p);
  let b = Payload.of_string "hello" in
  Alcotest.(check int) "bytes length" 5 (Payload.length b);
  Alcotest.(check (option int)) "no tag" None (Payload.tag b)

let prop_payload_sub_concat =
  QCheck.Test.make ~count:200 ~name:"payload: sub+concat reassembles"
    QCheck.(pair (int_range 1 500) (int_range 1 499))
    (fun (len, cut) ->
      let cut = cut mod len in
      QCheck.assume (cut > 0);
      let p = Payload.synthetic ~tag:3 len in
      let a = Payload.sub p 0 cut and b = Payload.sub p cut (len - cut) in
      Payload.equal (Payload.concat [ a; b ]) p)

let prop_payload_bytes_roundtrip =
  QCheck.Test.make ~count:200 ~name:"payload: synthetic and bytes views agree"
    QCheck.(pair small_nat (int_range 0 300))
    (fun (tag, len) ->
      let p = Payload.synthetic ~tag len in
      Bytes.length (Payload.to_bytes p) = len)

let test_payload_sub_out_of_range () =
  let p = Payload.synthetic 10 in
  Alcotest.check_raises "sub out of range"
    (Invalid_argument "Payload.sub: out of range") (fun () ->
      ignore (Payload.sub p 5 6))

(* --- packet ------------------------------------------------------------ *)

let test_wire_bytes () =
  let pool = Parena.create () in
  let u =
    Parena.copy_in pool
      (Packet.udp ~src:1 ~dst:2 ~src_port:10 ~dst_port:20
         (Payload.synthetic 100))
  in
  Alcotest.(check int) "udp wire size" (20 + 8 + 100) (Parena.wire_bytes pool u);
  let t =
    Parena.tcp pool ~src:1 ~dst:2 ~src_port:10 ~dst_port:20 ~seq:0 ~ack_no:0
      ~flags:(Packet.flags ()) ~window:0 (Payload.synthetic 100)
  in
  Alcotest.(check int) "tcp wire size" (20 + 20 + 100) (Parena.wire_bytes pool t)

let test_ports_accessor () =
  let pool = Parena.create () in
  let row =
    Parena.copy_in pool
      (Packet.udp ~src:1 ~dst:2 ~src_port:10 ~dst_port:20 (Payload.synthetic 4))
  in
  Alcotest.(check (pair int int)) "udp ports" (10, 20)
    (Parena.sport pool row, Parena.dport pool row);
  Alcotest.(check bool) "is udp" true (Parena.proto pool row = Parena.Udp);
  Alcotest.(check int) "wire bytes" (20 + 8 + 4) (Parena.wire_bytes pool row)

let test_ip_pp () =
  let s = Fmt.str "%a" Packet.pp_ip (Packet.ip_of_quad 10 0 0 12) in
  Alcotest.(check string) "dotted quad" "10.0.0.12" s

let test_ip_of_quad_range_check () =
  (* Every octet position must be range-checked individually (a precedence
     bug once masked only the last one). *)
  Alcotest.(check int) "max quad" 0xffffffff (Packet.ip_of_quad 255 255 255 255);
  List.iteri
    (fun pos quad ->
      let a, b, c, d = quad in
      Alcotest.check_raises
        (Printf.sprintf "octet %d out of range rejected" pos)
        (Invalid_argument "ip_of_quad")
        (fun () -> ignore (Packet.ip_of_quad a b c d)))
    [ (256, 0, 0, 0); (0, 256, 0, 0); (0, 0, 256, 0); (0, 0, 0, 256) ];
  Alcotest.check_raises "negative octet rejected"
    (Invalid_argument "ip_of_quad")
    (fun () -> ignore (Packet.ip_of_quad 0 (-1) 0 0))

(* --- mbuf -------------------------------------------------------------- *)

let test_mbuf_alloc_free () =
  let m = Mbuf.create ~capacity:10 () in
  Alcotest.(check int) "1 mbuf for 100B" 1 (Mbuf.mbufs_for 100);
  Alcotest.(check int) "8 mbufs for 1000B at 128B" 8 (Mbuf.mbufs_for 1000);
  Alcotest.(check int) "at least 1 mbuf" 1 (Mbuf.mbufs_for 0);
  Alcotest.(check bool) "take ok" true (Mbuf.take m 1);
  Alcotest.(check int) "one mbuf used" 1 (Mbuf.in_use m);
  Alcotest.(check bool) "take big" true (Mbuf.take m 8);
  Alcotest.(check int) "nine in use" 9 (Mbuf.in_use m);
  Alcotest.(check bool) "pool exhausted" false (Mbuf.take m 3);
  Alcotest.(check int) "a refused take reserves nothing" 9 (Mbuf.in_use m);
  Mbuf.give m 8;
  Alcotest.(check int) "freed" 1 (Mbuf.in_use m);
  Alcotest.(check int) "peak tracked" 9 (Mbuf.peak m)

let test_mbuf_over_free () =
  let m = Mbuf.create ~capacity:10 () in
  ignore (Mbuf.take m 1);
  Alcotest.check_raises "over-free detected"
    (Invalid_argument "Mbuf.give: more mbufs freed than in use") (fun () ->
      Mbuf.give m 8)

(* --- nic / fabric timing ------------------------------------------------ *)

let test_fabric_delivery_time () =
  let eng = Engine.create () in
  let fab = Fabric.create eng ~bandwidth_mbps:155. ~prop_delay:5. ~switch_latency:10. () in
  let a = Fabric.make_nic fab ~ip:1 ~cellify:false () in
  let _b = Fabric.make_nic fab ~ip:2 ~cellify:false () in
  let arrived = ref (-1.) in
  (match Fabric.make_nic fab ~ip:3 () with
   | _ -> ());
  Nic.set_rx_handler _b (fun _ -> arrived := Engine.now eng);
  let pkt = Packet.udp ~src:1 ~dst:2 ~src_port:1 ~dst_port:2 (Payload.synthetic 972) in
  (* 1000 wire bytes at 19.375 B/us = 51.6us; + 51.6 switch port + 10 + 5 *)
  ignore (Nic.transmit a pkt);
  Engine.run eng ~until:(Time.ms 10.);
  Alcotest.(check bool)
    (Printf.sprintf "arrival time plausible (%.1f us)" !arrived)
    true
    (!arrived > 100. && !arrived < 130.)

let test_nic_ifq_overflow () =
  let eng = Engine.create () in
  let fab = Fabric.create eng () in
  let a = Fabric.make_nic fab ~ip:1 ~ifq_limit:4 () in
  let _b = Fabric.make_nic fab ~ip:2 () in
  let pkt = Packet.udp ~src:1 ~dst:2 ~src_port:1 ~dst_port:2 (Payload.synthetic 9000) in
  (* Burst of 10 large packets: the 4-deep interface queue must drop some
     (the first is in transmission, 4 queue, rest drop). *)
  let accepted = ref 0 in
  for _ = 1 to 10 do
    if Nic.transmit a pkt then incr accepted
  done;
  Alcotest.(check int) "five accepted (1 transmitting + 4 queued)" 5 !accepted;
  Alcotest.(check int) "drops counted" 5 (Nic.stats a).Nic.tx_drops

(* A row's charge column: set at admission, moved by [absorb] (which
   releases the absorbed row), kept when the row turns from fragment to
   whole datagram; stale handles raise. *)
let stale = Invalid_argument "Parena: stale or invalid handle"

let udp n = Packet.udp ~src:1 ~dst:2 ~src_port:1 ~dst_port:2 (Payload.synthetic n)

let test_arena_charges () =
  let a = Parena.create () in
  let h1 = Parena.copy_in a (udp 100) and h2 = Parena.copy_in a (udp 200) in
  Parena.set_charge a h1 3;
  Parena.set_charge a h2 2;
  Parena.absorb a ~into:h1 h2;
  Alcotest.(check int) "charges summed" 5 (Parena.charge a h1);
  Alcotest.(check int) "absorbed row released" 1 (Parena.live a);
  Parena.set_fragment a h1 ~foff:0 ~flen:50 ~last:false;
  Alcotest.(check int) "a fragment's wire bytes" (20 + 8 + 50)
    (Parena.wire_bytes a h1);
  Parena.set_whole a h1;
  Alcotest.(check bool) "the row holds its datagram again" true
    (not (Parena.is_fragment a h1) && Parena.wire_bytes a h1 = 20 + 8 + 100);
  Alcotest.(check int) "charge kept" 5 (Parena.charge a h1);
  Alcotest.check_raises "stale handle" stale (fun () ->
      ignore (Parena.charge a h2));
  Parena.release a h1;
  Alcotest.(check int) "nothing held" 0 (Parena.live a)

(* A row is released exactly once: a second release, and any read or
   copy after the release, raise instead of reaching the slot's next
   occupant. *)
let test_pool_double_release () =
  let a = Parena.create () in
  let h = Parena.copy_in a (udp 10) in
  Parena.release a h;
  Alcotest.check_raises "double release" stale (fun () -> Parena.release a h);
  let h' = Parena.copy_in a (udp 20) in
  Alcotest.(check bool) "the slot is reused under a new handle" true (h' <> h);
  Alcotest.check_raises "the old handle still raises" stale (fun () ->
      Parena.release a h);
  Alcotest.(check int) "the new occupant is untouched" 1 (Parena.live a)

let test_pool_use_after_release () =
  let a = Parena.create () in
  let h = Parena.copy_in a (udp 10) in
  Parena.release a h;
  ignore (Parena.copy_in a (udp 30));
  Alcotest.check_raises "read" stale (fun () -> ignore (Parena.dport a h));
  Alcotest.check_raises "payload" stale (fun () -> ignore (Parena.payload a h));
  Alcotest.check_raises "copy" stale (fun () -> ignore (Parena.copy a h ~into:a));
  Alcotest.check_raises "corrupt" stale (fun () ->
      ignore (Parena.corrupt a h ~at:0 ~xor:1));
  Alcotest.check_raises "none" stale (fun () ->
      ignore (Parena.ident a Parena.none))

(* The interface queue holds the rows of the frames behind the one on
   the wire, with their wire footprints, until tx-done; each row is handed
   on once, and the frames themselves pass through unperturbed. *)
let test_ifq_recycles () =
  let eng = Engine.create () in
  let nic = Nic.create eng ~ip:1 () in
  let pool = Nic.pool nic in
  let delivered = ref [] in
  Nic.set_deliver nic (fun row -> delivered := row :: !delivered);
  let pkts =
    List.init 5 (fun i ->
        Packet.udp ~src:1 ~dst:2 ~src_port:1 ~dst_port:2
          (Payload.synthetic (100 * (i + 1))))
  in
  let wire (p : Packet.t) = 20 + 8 + Payload.length p.payload in
  List.iter (fun p -> ignore (Nic.transmit nic p)) pkts;
  Alcotest.(check int) "the first frame starts at once; four wait" 4
    (Nic.ifq_length nic);
  Alcotest.(check int) "queued wire footprints are the frames'"
    (List.fold_left (fun acc p -> acc + wire p) 0 (List.tl pkts))
    (Array.fold_left ( + ) 0 nic.Nic.ifq_wire);
  Engine.drain eng;
  Alcotest.(check int) "queue empty after drain" 0 (Nic.ifq_length nic);
  Alcotest.(check int) "every row handed on, none kept" 5 (Parena.live pool);
  Alcotest.(check int) "tx bytes count every frame"
    (List.fold_left (fun acc p -> acc + wire p) 0 pkts)
    (Nic.stats nic).Nic.tx_bytes;
  Alcotest.(check int) "all frames delivered" 5 (List.length !delivered);
  List.iter2
    (fun p row ->
      Alcotest.(check bool) "frames pass through unchanged" true
        (Rows.to_udp pool row = p))
    pkts
    (List.rev !delivered)

let test_fabric_no_route_drop () =
  let eng = Engine.create () in
  let fab = Fabric.create eng () in
  let a = Fabric.make_nic fab ~ip:1 () in
  let pkt = Packet.udp ~src:1 ~dst:99 ~src_port:1 ~dst_port:2 (Payload.synthetic 10) in
  ignore (Nic.transmit a pkt);
  Engine.run eng ~until:(Time.ms 1.);
  Alcotest.(check int) "unroutable frame dropped" 1 (Fabric.drops fab)

let test_fabric_loss_injection () =
  let eng = Engine.create () in
  let fab = Fabric.create eng () in
  let a = Fabric.make_nic fab ~ip:1 ~ifq_limit:300 () in
  let b = Fabric.make_nic fab ~ip:2 () in
  Fabric.set_faults fab (Fabric.Faults.make ~loss:0.5 ());
  let got = ref 0 in
  Nic.set_rx_handler b (fun _ -> incr got);
  for _ = 1 to 200 do
    ignore
      (Nic.transmit a
         (Packet.udp ~src:1 ~dst:2 ~src_port:1 ~dst_port:2 (Payload.synthetic 10)))
  done;
  Engine.run eng ~until:(Time.sec 1.);
  Alcotest.(check bool)
    (Printf.sprintf "roughly half delivered (%d/200)" !got)
    true
    (!got > 60 && !got < 140)

let test_serialization_ordering () =
  (* Two frames to the same destination keep FIFO order and are separated
     by at least the serialisation time. *)
  let eng = Engine.create () in
  let fab = Fabric.create eng () in
  let a = Fabric.make_nic fab ~ip:1 () in
  let b = Fabric.make_nic fab ~ip:2 () in
  let log = ref [] in
  Nic.set_rx_handler b (fun row ->
      log := (Parena.payload_len (Nic.pool b) row, Engine.now eng) :: !log);
  ignore (Nic.transmit a (Packet.udp ~src:1 ~dst:2 ~src_port:1 ~dst_port:2 (Payload.synthetic 1000)));
  ignore (Nic.transmit a (Packet.udp ~src:1 ~dst:2 ~src_port:1 ~dst_port:2 (Payload.synthetic 2000)));
  Engine.run eng ~until:(Time.ms 10.);
  match List.rev !log with
  | [ (1000, t1); (2000, t2) ] ->
      Alcotest.(check bool) "order preserved and serialised" true (t2 > t1 +. 50.)
  | _ -> Alcotest.fail "expected two arrivals in order"

(* --- content checksum / corruption -------------------------------------- *)

let sample_udp () =
  Packet.udp ~src:(Packet.ip_of_quad 10 0 0 1) ~dst:(Packet.ip_of_quad 10 0 0 2)
    ~src_port:1234 ~dst_port:80
    (Payload.of_bytes (Bytes.init 64 (fun i -> Char.chr (i land 0xff))))

let test_packet_checksum () =
  let pool = Parena.create () in
  let u = Parena.copy_in pool (sample_udp ()) in
  let shared = Parena.payload pool u in
  Alcotest.(check bool) "fresh udp verifies" true (Parena.verify pool u);
  Alcotest.(check bool) "udp with payload is corruptible" true
    (Parena.corrupt pool u ~at:17 ~xor:0x40);
  Alcotest.(check bool) "corrupted udp fails verify" false (Parena.verify pool u);
  Alcotest.(check int) "the sender's bytes are untouched" 17
    (Char.code (Bytes.get (Payload.to_bytes shared) 17));
  let t =
    Parena.tcp pool ~src:1 ~dst:2 ~src_port:10 ~dst_port:20 ~seq:5 ~ack_no:9
      ~flags:(Packet.flags ~ack:true ()) ~window:100 (Payload.synthetic 0)
  in
  Alcotest.(check bool) "pure ack verifies" true (Parena.verify pool t);
  Alcotest.(check bool) "pure ack is corruptible (ack_no)" true
    (Parena.corrupt pool t ~at:0 ~xor:0x1);
  Alcotest.(check bool) "corrupted pure ack fails verify" false
    (Parena.verify pool t);
  let empty = Parena.copy_in pool (udp 0) in
  Alcotest.(check bool) "empty udp not corruptible" false
    (Parena.corrupt pool empty ~at:0 ~xor:1);
  (* Retransmits of the same content checksum identically (ident differs). *)
  let mk () =
    Parena.udp pool ~src:1 ~dst:2 ~src_port:3 ~dst_port:4
      (Payload.synthetic ~tag:9 50)
  in
  let a = mk () and b = mk () in
  Alcotest.(check bool) "retransmits carry their own idents" true
    (Parena.ident pool a <> Parena.ident pool b);
  Alcotest.(check int) "content checksum ident-independent"
    (Parena.csum pool a) (Parena.csum pool b)

(* The row writers: each row reads back the fields it was written with,
   carries its content checksum and TTL 64 exactly as a datagram value
   would, and draws the next ident in call order. *)
let test_row_writers () =
  let pool = Parena.create () in
  let pay = Payload.synthetic ~tag:3 40 in
  let u = Parena.udp pool ~src:1 ~dst:2 ~src_port:10 ~dst_port:20 pay in
  let v = Packet.udp ~src:1 ~dst:2 ~src_port:10 ~dst_port:20 pay in
  Alcotest.(check bool) "a UDP row is the datagram value, bar its ident" true
    (Rows.to_udp pool u = { v with Packet.ident = Parena.ident pool u });
  Alcotest.(check int) "idents drawn in call order" v.Packet.ident
    ((Parena.ident pool u + 1) land 0xffff);
  let t =
    Parena.tcp pool ~src:3 ~dst:4 ~src_port:30 ~dst_port:40 ~seq:7 ~ack_no:9
      ~flags:Packet.flags_ack_psh ~window:512 pay
  in
  Alcotest.(check bool) "a TCP row reads back its fields" true
    (Parena.proto pool t = Parena.Tcp
     && (Parena.src pool t, Parena.dst pool t) = (3, 4)
     && (Parena.sport pool t, Parena.dport pool t) = (30, 40)
     && (Parena.seq pool t, Parena.ack_no pool t) = (7, 9)
     && Parena.flags pool t = Packet.flags_ack_psh
     && Parena.window pool t = 512
     && Payload.equal (Parena.payload pool t) pay
     && Parena.wire_bytes pool t = 20 + 20 + 40
     && Parena.verify pool t);
  let i = Parena.icmp pool ~src:5 ~dst:6 Packet.Echo_request pay in
  Alcotest.(check bool) "an ICMP row is an echo request that verifies" true
    (Parena.proto pool i = Parena.Icmp
     && Parena.icmp_kind pool i = Packet.Echo_request
     && Parena.is_echo_request pool i
     && (Parena.src pool i, Parena.dst pool i) = (5, 6)
     && Parena.wire_bytes pool i = 20 + 8 + 40
     && Parena.verify pool i);
  let r = Parena.icmp pool ~src:6 ~dst:5 Packet.Echo_reply pay in
  Alcotest.(check bool) "an echo reply reads back as one, not a request" true
    (Parena.proto pool r = Parena.Icmp
     && Parena.icmp_kind pool r = Packet.Echo_reply
     && (not (Parena.is_echo_request pool r))
     && Parena.verify pool r);
  Alcotest.(check bool) "the two kinds checksum apart" true
    (Parena.csum pool i <> Parena.csum pool r);
  Alcotest.(check int) "four rows held" 4 (Parena.live pool)

(* Receive offload's merge in the head's row: consecutive slices of one
   synthetic payload glue back into it, the last segment's ack, window
   and PSH win, and the merged row still verifies; a train whose slices
   do not glue is merged as bytes, as [Payload.concat] merges them. *)
let test_tcp_merge () =
  let pool = Parena.create () in
  let seg ~seq ~flags ~ack_no p =
    Parena.tcp pool ~src:1 ~dst:2 ~src_port:3 ~dst_port:4 ~seq ~ack_no ~flags
      ~window:(100 + ack_no) p
  in
  let whole = Payload.synthetic ~tag:5 300 in
  let head = seg ~seq:0 ~flags:Packet.flags_ack ~ack_no:1 (Payload.sub whole 0 100) in
  let mid = seg ~seq:100 ~flags:Packet.flags_ack ~ack_no:2 (Payload.sub whole 100 100) in
  let tail =
    seg ~seq:200 ~flags:Packet.flags_ack_psh ~ack_no:3 (Payload.sub whole 200 100)
  in
  Parena.tcp_merge pool [| head; mid; tail |] 3;
  Alcotest.(check bool) "slices glue back into the synthetic payload" true
    (Parena.payload pool head = whole);
  Alcotest.(check (list int)) "the last segment's ack, window and PSH"
    [ 3; 103; Packet.flags_ack_psh; 0 ]
    [ Parena.ack_no pool head; Parena.window pool head; Parena.flags pool head;
      Parena.seq pool head ];
  Alcotest.(check bool) "the merged row verifies" true (Parena.verify pool head);
  let a = Payload.of_string "abc" and b = Payload.synthetic ~tag:9 4
  and c = Payload.synthetic ~tag:13 2 in
  let h = seg ~seq:0 ~flags:Packet.flags_ack ~ack_no:1 a in
  Parena.tcp_merge pool
    [| h; seg ~seq:3 ~flags:Packet.flags_ack ~ack_no:1 b;
       seg ~seq:7 ~flags:Packet.flags_ack ~ack_no:1 c |]
    3;
  Alcotest.(check bool) "unglued slices merge as bytes" true
    (Payload.equal (Parena.payload pool h) (Payload.concat [ a; b; c ])
     && Parena.verify pool h);
  let s1 = Payload.sub whole 0 10 and s3 = Payload.sub whole 20 10 in
  let g = seg ~seq:0 ~flags:Packet.flags_ack ~ack_no:1 s1 in
  Parena.tcp_merge pool [| g; seg ~seq:10 ~flags:Packet.flags_ack ~ack_no:1 s3 |] 2;
  Alcotest.(check bool) "a gap between slices merges as bytes" true
    (Payload.tag (Parena.payload pool g) = None
     && Payload.equal (Parena.payload pool g) (Payload.concat [ s1; s3 ])
     && Parena.verify pool g)

let prop_byte_sum_closed_form =
  QCheck.Test.make ~count:300 ~name:"payload: synthetic byte_sum matches bytes"
    QCheck.(pair (int_range 0 1000) (int_range 0 700))
    (fun (len, tag) ->
      let p = Payload.synthetic ~tag len in
      Payload.byte_sum p
      = Bytes.fold_left (fun acc c -> acc + Char.code c) 0 (Payload.to_bytes p))

let prop_corruption_always_detected =
  QCheck.Test.make ~count:300 ~name:"packet: any single corruption fails verify"
    QCheck.(triple (int_range 1 2000) small_nat small_nat)
    (fun (len, at, xor) ->
      let pool = Parena.create () in
      let row =
        Parena.copy_in pool
          (Packet.udp ~src:7 ~dst:8 ~src_port:1 ~dst_port:2
             (Payload.synthetic ~tag:(at land 0xff) len))
      in
      Parena.verify pool row
      && Parena.corrupt pool row ~at ~xor
      && not (Parena.verify pool row))

(* --- fault injection ----------------------------------------------------- *)

let expect_invalid name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail (name ^ ": expected Invalid_argument")

let test_fault_setters_validate () =
  let eng = Engine.create () in
  let fab = Fabric.create eng () in
  let _a = Fabric.make_nic fab ~ip:1 () in
  expect_invalid "faults loss < 0" (fun () ->
      Fabric.set_faults fab (Fabric.Faults.make ~loss:(-0.1) ()));
  expect_invalid "faults loss nan" (fun () ->
      Fabric.set_faults fab (Fabric.Faults.make ~loss:Float.nan ()));
  Fabric.set_faults fab (Fabric.Faults.make ~loss:0. ());
  Fabric.set_faults fab (Fabric.Faults.make ~loss:1. ());
  expect_invalid "faults loss > 1" (fun () ->
      Fabric.set_faults fab (Fabric.Faults.make ~loss:1.01 ()));
  expect_invalid "faults dup < 0" (fun () ->
      Fabric.set_faults fab (Fabric.Faults.make ~dup:(-0.5) ()));
  expect_invalid "faults corrupt nan" (fun () ->
      Fabric.set_faults fab (Fabric.Faults.make ~corrupt:Float.nan ()));
  expect_invalid "reorder_span < 1" (fun () ->
      Fabric.set_faults fab (Fabric.Faults.make ~reorder_span:0 ()));
  expect_invalid "jitter < 0" (fun () ->
      Fabric.set_faults fab (Fabric.Faults.make ~jitter_us:(-1.) ()));
  expect_invalid "unknown port" (fun () ->
      Fabric.set_link_faults fab ~ip:99 Fabric.Faults.none)

(* Two-host world: send [n] tagged datagrams from a to b, return the
   pool and the rows that arrived, in arrival order. *)
let fault_world ?(n = 200) faults =
  let eng = Engine.create () in
  let fab = Fabric.create eng () in
  let a = Fabric.make_nic fab ~ip:1 ~ifq_limit:1000 () in
  let b = Fabric.make_nic fab ~ip:2 () in
  Fabric.set_link_faults fab ~ip:2 faults;
  let got = ref [] in
  Nic.set_rx_handler b (fun pkt -> got := pkt :: !got);
  for i = 1 to n do
    ignore
      (Nic.transmit a
         (Packet.udp ~src:1 ~dst:2 ~src_port:1 ~dst_port:2
            (Payload.synthetic ~tag:i 64)))
  done;
  Engine.run eng ~until:(Time.sec 1.);
  (fab, Nic.pool b, List.rev !got)

let check_conserved fab =
  let s = Fabric.fault_stats fab in
  Alcotest.(check int) "link frame conservation"
    (s.Fabric.offered + s.Fabric.duplicated)
    (s.Fabric.delivered + Fabric.drops fab + s.Fabric.held_now);
  Alcotest.(check int) "no frames parked after run" 0 s.Fabric.held_now

let test_fault_edge_zero () =
  (* loss 0.0 delivers everything. *)
  let fab, _, got = fault_world (Fabric.Faults.make ~loss:0.0 ()) in
  Alcotest.(check int) "all 200 delivered" 200 (List.length got);
  Alcotest.(check int) "no fault losses" 0 (Fabric.fault_stats fab).Fabric.fault_lost;
  check_conserved fab

let test_fault_edge_one () =
  (* loss 1.0 drops everything, and the counters account for every frame. *)
  let fab, _, got = fault_world (Fabric.Faults.make ~loss:1.0 ()) in
  Alcotest.(check int) "nothing delivered" 0 (List.length got);
  let s = Fabric.fault_stats fab in
  Alcotest.(check int) "all 200 counted lost" 200 s.Fabric.fault_lost;
  check_conserved fab

let test_fault_dup () =
  let fab, _, got = fault_world (Fabric.Faults.make ~dup:1.0 ()) in
  Alcotest.(check int) "every frame doubled" 400 (List.length got);
  Alcotest.(check int) "dups counted" 200 (Fabric.fault_stats fab).Fabric.duplicated;
  check_conserved fab

let test_fault_corrupt () =
  let fab, pool, got = fault_world (Fabric.Faults.make ~corrupt:1.0 ()) in
  Alcotest.(check int) "all delivered (corruption is not loss)" 200
    (List.length got);
  Alcotest.(check int) "corruptions counted" 200
    (Fabric.fault_stats fab).Fabric.corrupted;
  Alcotest.(check bool) "every arrival fails verify" true
    (List.for_all (fun row -> not (Parena.verify pool row)) got);
  check_conserved fab

let test_fault_reorder () =
  let fab, pool, got =
    fault_world (Fabric.Faults.make ~reorder:0.3 ~reorder_span:4 ())
  in
  (* Reordering must not lose anything: held frames are released by
     overtaking traffic or the flush timeout. *)
  Alcotest.(check int) "all 200 delivered" 200 (List.length got);
  let tags =
    List.filter_map (fun row -> Payload.tag (Parena.payload pool row)) got
  in
  Alcotest.(check bool) "arrival order actually differs" true
    (tags <> List.sort compare tags);
  (* Bounded displacement: a frame can arrive at most reorder_span + dups
     positions late; just sanity-check the multiset is intact. *)
  Alcotest.(check (list int)) "no tag lost or duplicated"
    (List.init 200 (fun i -> i + 1))
    (List.sort compare tags);
  check_conserved fab

let test_fault_ge_burst_loss () =
  (* A channel that is perfect in Good state and awful in Bad state must
     lose something but not everything, and stay conserved. *)
  let fab, _, got =
    fault_world
      (Fabric.Faults.make ~ge_loss_good:0. ~ge_loss_bad:0.9 ~ge_p_gb:0.1
         ~ge_p_bg:0.3 ())
  in
  let n = List.length got in
  Alcotest.(check bool)
    (Printf.sprintf "bursty loss in (0, 200) range (%d)" n)
    true
    (n > 0 && n < 200);
  check_conserved fab

let test_fault_jitter_delivers_all () =
  let fab, _, got = fault_world (Fabric.Faults.make ~jitter_us:500. ()) in
  Alcotest.(check int) "all delivered under jitter" 200 (List.length got);
  check_conserved fab

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_payload_sub_concat; prop_payload_bytes_roundtrip;
      prop_byte_sum_closed_form;
      prop_corruption_always_detected ]

let suite =
  [ Alcotest.test_case "payload basics" `Quick test_payload_basics;
    Alcotest.test_case "payload sub out of range" `Quick test_payload_sub_out_of_range;
    Alcotest.test_case "wire byte counts" `Quick test_wire_bytes;
    Alcotest.test_case "ports accessor" `Quick test_ports_accessor;
    Alcotest.test_case "ip pretty printer" `Quick test_ip_pp;
    Alcotest.test_case "ip_of_quad range check per octet" `Quick
      test_ip_of_quad_range_check;
    Alcotest.test_case "mbuf alloc/free/exhaustion" `Quick test_mbuf_alloc_free;
    Alcotest.test_case "mbuf over-free detected" `Quick test_mbuf_over_free;
    Alcotest.test_case "fabric delivery timing" `Quick test_fabric_delivery_time;
    Alcotest.test_case "interface queue overflow" `Quick test_nic_ifq_overflow;
    Alcotest.test_case "arena rows carry mbuf charges" `Quick test_arena_charges;
    Alcotest.test_case "interface queue recycles its slots" `Quick
      test_ifq_recycles;
    Alcotest.test_case "unroutable frames dropped" `Quick test_fabric_no_route_drop;
    Alcotest.test_case "loss injection" `Quick test_fabric_loss_injection;
    Alcotest.test_case "serialisation preserves order" `Quick
      test_serialization_ordering;
    Alcotest.test_case "packet content checksum" `Quick test_packet_checksum;
    Alcotest.test_case "row writers" `Quick test_row_writers;
    Alcotest.test_case "receive offload merges TCP rows" `Quick test_tcp_merge;
    Alcotest.test_case "fault setters validate ranges" `Quick
      test_fault_setters_validate;
    Alcotest.test_case "fault edge: loss 0.0 delivers all" `Quick
      test_fault_edge_zero;
    Alcotest.test_case "fault edge: loss 1.0 drops all" `Quick
      test_fault_edge_one;
    Alcotest.test_case "fault: duplication" `Quick test_fault_dup;
    Alcotest.test_case "fault: corruption detectable" `Quick test_fault_corrupt;
    Alcotest.test_case "fault: bounded reorder, nothing lost" `Quick
      test_fault_reorder;
    Alcotest.test_case "fault: Gilbert-Elliott burst loss" `Quick
      test_fault_ge_burst_loss;
    Alcotest.test_case "fault: jitter delivers all" `Quick
      test_fault_jitter_delivers_all ]
  @ qsuite
  @ [ Alcotest.test_case "frame pool: a double release raises" `Quick
        test_pool_double_release;
      Alcotest.test_case "frame pool: a use after release raises" `Quick
        test_pool_use_after_release ]
