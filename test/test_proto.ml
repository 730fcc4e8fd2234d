(* Tests for the protocol library: the demultiplexer (the allocation-free
   hot path against the reference model in [Demux_ref]) and IP
   fragmentation/reassembly. *)

open Lrp_net
open Lrp_proto

(* --- demux ------------------------------------------------------------- *)

(* Frames as row writers: [mk_udp () pool] writes the datagram into a row
   of [pool]. *)
let mk_udp ?(src = 11) ?(sport = 1000) ?(dport = 2000) ?(len = 14) () pool =
  Parena.udp pool ~src ~dst:99 ~src_port:sport ~dst_port:dport
    (Payload.synthetic len)

let mk_tcp ?(src = 11) ?(sport = 1000) ?(dport = 80) ?(syn = false)
    ?(ack = false) ?(len = 0) () pool =
  Parena.tcp pool ~src ~dst:99 ~src_port:sport ~dst_port:dport ~seq:1 ~ack_no:2
    ~flags:(Packet.flags ~syn ~ack ()) ~window:100 (Payload.synthetic len)

(* A frame as a row of a pool of its own. *)
let row write =
  let pool = Parena.create () in
  (pool, write pool)

let flow write =
  let pool, r = row write in
  Demux_ref.flow_of_row pool r

let test_flow_udp () =
  match flow (mk_udp ()) with
  | Demux_ref.Udp_flow { src; src_port; dst_port } ->
      Alcotest.(check int) "src" 11 src;
      Alcotest.(check int) "sport" 1000 src_port;
      Alcotest.(check int) "dport" 2000 dst_port
  | _ -> Alcotest.fail "expected udp flow"

let test_flow_tcp_syn () =
  match flow (mk_tcp ~syn:true ()) with
  | Demux_ref.Tcp_flow { syn_only; _ } ->
      Alcotest.(check bool) "syn-only" true syn_only
  | _ -> Alcotest.fail "expected tcp flow"

let test_flow_tcp_synack_not_syn_only () =
  match flow (mk_tcp ~syn:true ~ack:true ()) with
  | Demux_ref.Tcp_flow { syn_only; _ } ->
      Alcotest.(check bool) "syn+ack is not connection request" false syn_only
  | _ -> Alcotest.fail "expected tcp flow"

let test_flow_fragments () =
  let pool, big = row (mk_udp ~len:20_000 ()) in
  let frags = Ip.fragment pool big ~mtu:9180 in
  Alcotest.(check int) "three fragments" 3 (List.length frags);
  (match frags with
   | first :: rest ->
       (* First fragment carries the transport header: demuxable. *)
       (match Demux_ref.flow_of_row pool first with
        | Demux_ref.Udp_flow { dst_port; _ } ->
            Alcotest.(check int) "first fragment demuxes to port" 2000 dst_port
        | _ -> Alcotest.fail "first fragment should demux as UDP");
       (* Later fragments cannot be demultiplexed to an endpoint. *)
       List.iter
         (fun f ->
           match Demux_ref.flow_of_row pool f with
           | Demux_ref.Frag_flow { src; _ } -> Alcotest.(check int) "src" 11 src
           | _ -> Alcotest.fail "non-first fragment must be Frag_flow")
         rest
   | [] -> Alcotest.fail "no fragments")

(* The core classifier property: the allocation-free hot path — the
   protocol class and the UDP port — agrees with the reference model on
   every packet shape.  The demux table's probes are checked against the
   same model in [Test_core]. *)
let prop_demux_matches_reference =
  let gen =
    QCheck.Gen.(
      let small = int_range 1 4 in
      let* shape = int_range 0 (Demux_ref.shapes - 1) in
      let* src = small and* sport = small and* dport = small in
      let* syn = bool and* ack = bool in
      return (shape, src, sport, dport, syn, ack))
  in
  QCheck.Test.make ~count:400
    ~name:"demux: hot path agrees with the reference model"
    (QCheck.make gen)
    (fun (shape, src, sport, dport, syn, ack) ->
      let pool = Parena.create () in
      let r, flow = Demux_ref.packet pool ~shape ~src ~sport ~dport ~syn ~ack in
      let cls, port =
        match flow with
        | Demux_ref.Udp_flow { dst_port; _ } -> (Demux.Udp_class, dst_port)
        | Demux_ref.Tcp_flow _ -> (Demux.Tcp_class, -1)
        | Demux_ref.Frag_flow _ -> (Demux.Frag_class, -1)
        | Demux_ref.Icmp_flow -> (Demux.Icmp_class, -1)
      in
      Demux.class_of_row pool r = cls
      && (cls <> Demux.Udp_class || Parena.dport pool r = port)
      && Demux_ref.flow_of_row pool r = flow)

(* --- IP fragmentation / reassembly -------------------------------------- *)

let test_fragment_sizes () =
  let pool, r = row (mk_udp ~len:20_000 ()) in
  let frags = Ip.fragment pool r ~mtu:9180 in
  List.iter
    (fun f ->
      Alcotest.(check bool) "each fragment fits mtu" true
        (Parena.wire_bytes pool f <= 9180))
    frags;
  let total = List.fold_left (fun acc f -> acc + Parena.flen pool f) 0 frags in
  Alcotest.(check int) "payload conserved" 20_000 total;
  Alcotest.(check int) "the datagram's row went to its fragments"
    (List.length frags) (Parena.live pool)

let test_fragment_small_passthrough () =
  let pool, r = row (mk_udp ~len:100 ()) in
  match Ip.fragment pool r ~mtu:9180 with
  | [ f ] -> Alcotest.(check bool) "unchanged" true (f = r)
  | _ -> Alcotest.fail "small packet should not fragment"

(* Reassembly runs over arena rows: each fragment is admitted charged one
   mbuf, and [insert] answers the completed datagram's row or
   [Parena.none]. *)
let reasm ?timeout () =
  let arena = Parena.create () in
  (arena, Ip.Reasm.create ?timeout arena)

let fragments arena write = Ip.fragment arena (write arena) ~mtu:9180

let insert arena r f =
  Parena.set_charge arena f 1;
  Ip.Reasm.insert r ~now:0. f

let completed rows = List.filter (fun h -> h <> Parena.none) rows

let test_reasm_in_order () =
  let arena, r = reasm () in
  let whole = mk_udp ~len:20_000 () arena in
  let pkt = Rows.to_udp arena whole in
  let frags = Ip.fragment arena whole ~mtu:9180 in
  let results = List.map (insert arena r) frags in
  (match completed results with
   | [ h ] ->
       Alcotest.(check bool) "the row holds the whole datagram" true
         (Rows.to_udp arena h = pkt && not (Parena.is_fragment arena h));
       Alcotest.(check int) "the row carries every fragment's charge"
         (List.length frags) (Parena.charge arena h);
       Alcotest.(check int) "one row left" 1 (Parena.live arena)
   | _ -> Alcotest.fail "expected one completion");
  Alcotest.(check int) "only at the last fragment" 0
    (List.length (completed (List.filteri (fun i _ -> i < List.length results - 1) results)))

let prop_reasm_any_order =
  QCheck.Test.make ~count:100 ~name:"reasm: completes in any arrival order"
    QCheck.(pair (int_range 10_000 60_000) small_int)
    (fun (len, seed) ->
      let arena, r = reasm () in
      let frags = Array.of_list (fragments arena (mk_udp ~len ())) in
      let rng = Lrp_engine.Rng.create seed in
      Lrp_engine.Rng.shuffle rng frags;
      match completed (List.map (insert arena r) (Array.to_list frags)) with
      | [ h ] ->
          Parena.payload_len arena h = len
          && Parena.charge arena h = Array.length frags
      | _ -> false)

let test_reasm_interleaved_datagrams () =
  (* Fragments of two datagrams interleaved: both complete. *)
  let arena, r = reasm () in
  let fa = fragments arena (mk_udp ~len:20_000 ~sport:1 ())
  and fb = fragments arena (mk_udp ~len:20_000 ~sport:2 ()) in
  let interleaved = List.concat (List.map2 (fun x y -> [ x; y ]) fa fb) in
  let completions = completed (List.map (insert arena r) interleaved) in
  Alcotest.(check int) "both complete" 2 (List.length completions)

let test_reasm_timeout () =
  let arena, r = reasm ~timeout:1_000. () in
  (match fragments arena (mk_udp ~len:20_000 ()) with
   | f :: g :: rest ->
       ignore (insert arena r f);
       ignore (insert arena r g);
       List.iter (Parena.release arena) rest
   | _ -> Alcotest.fail "too few fragments");
  Alcotest.(check int) "pending" 1 (Ip.Reasm.pending_count r);
  Alcotest.(check int) "one row per pending datagram" 1 (Parena.live arena);
  let released = ref [] in
  let pruned =
    Ip.Reasm.prune r ~now:2_000. ~release:(fun h ->
        released := Parena.charge arena h :: !released;
        Parena.release arena h)
  in
  Alcotest.(check int) "pruned" 1 pruned;
  Alcotest.(check (list int)) "its row handed back, both charges on it" [ 2 ]
    !released;
  Alcotest.(check int) "no row left" 0 (Parena.live arena);
  Alcotest.(check int) "nothing pending" 0 (Ip.Reasm.pending_count r)

let test_reasm_duplicate_fragments () =
  let arena, r = reasm () in
  let frags = fragments arena (mk_udp ~len:20_000 ()) in
  (* Insert a copy of the first fragment, then every fragment. *)
  (match frags with
   | f :: _ -> ignore (insert arena r (Parena.copy arena f ~into:arena))
   | [] -> ());
  match completed (List.map (insert arena r) frags) with
  | [ h ] ->
      Alcotest.(check int) "the duplicate's charge is kept too"
        (List.length frags + 1) (Parena.charge arena h)
  | _ -> Alcotest.fail "expected exactly one completion"

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_demux_matches_reference; prop_reasm_any_order ]

let suite =
  [ Alcotest.test_case "udp flow extraction" `Quick test_flow_udp;
    Alcotest.test_case "tcp syn flow" `Quick test_flow_tcp_syn;
    Alcotest.test_case "syn-ack is not syn-only" `Quick test_flow_tcp_synack_not_syn_only;
    Alcotest.test_case "fragment flows" `Quick test_flow_fragments;
    Alcotest.test_case "fragment sizes respect MTU" `Quick test_fragment_sizes;
    Alcotest.test_case "small packets pass through" `Quick test_fragment_small_passthrough;
    Alcotest.test_case "reassembly in order" `Quick test_reasm_in_order;
    Alcotest.test_case "reassembly of interleaved datagrams" `Quick
      test_reasm_interleaved_datagrams;
    Alcotest.test_case "reassembly timeout pruning" `Quick test_reasm_timeout;
    Alcotest.test_case "duplicate fragments" `Quick test_reasm_duplicate_fragments ]
  @ qsuite
