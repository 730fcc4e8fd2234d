(** Modern receiver back-ends versus the paper's four architectures.

    Two experiments:

    - {b Throughput comparison} — the Figure-3 blast (14-byte UDP at a
      fixed offered rate against a receive-and-discard server) run over
      all {e seven} architectures: the paper's 4.4BSD / NI-LRP /
      SOFT-LRP / Early-Demux plus the post-paper NAPI, NAPI-GRO and RSS
      back-ends.  NAPI masks interrupts while polling and defers excess
      work to ksoftirqd; NAPI-GRO amortises per-packet protocol cost
      across a coalesced train.  The shapes are [claims].

    - {b Coalescing versus reorder} — interrupt coalescing and
      multi-queue RSS trade latency for batching, and batching reorders
      {e across} flows: a queue holding frames for its coalescing timer
      delivers them after younger frames of another queue whose timer
      fired first.  We steer four UDP flows through an RSS kernel,
      sweep the coalescing hold-off, and count arrival-order →
      delivery-order inversions from the server's flight recorder
      ([Nic_rx] versus [Sock_enqueue] sequence).  Per-flow order is
      always preserved (one flow = one FIFO ring), so every inversion
      counted is cross-flow.  A fault-fabric variant adds wire-level
      reordering on the server link to show the two sources compose. *)

open Lrp_engine
open Lrp_kernel
open Lrp_net
open Lrp_workload
module Trace = Lrp_trace.Trace

type row = Fig3.row = { system : Common.system; points : Fig3.point list }

(* Fig. 3's sweep plus two higher rates: the modern back-ends hold their
   plateau well past the point where the LRP variants start to slide, and
   the tail is where that shows. *)
let default_rates = Fig3.default_rates @ [ 28_000.; 30_000. ]

(* --- seven-way throughput comparison ----------------------------------- *)

let run ?(quick = false) ?(jobs = 1) ?(seed = Common.default_seed) () =
  let duration = if quick then Time.ms 400. else Time.sec 2. in
  let rates =
    if quick then
      [ 2_000.; 6_000.; 8_000.; 10_000.; 14_000.; 20_000.; 25_000.; 30_000. ]
    else default_rates
  in
  List.map
    (fun (system, points) -> { system; points })
    (Common.grid ~jobs ~seed Common.modern_systems rates (fun ~seed sys rate ->
         Fig3.measure ~seed sys ~rate ~duration))

(* --- coalescing versus cross-flow reorder ------------------------------ *)

type reorder_point = {
  coalesce_us : float;    (* NIC hold-off swept *)
  fabric_faults : bool;   (* wire-level reorder injected too? *)
  observed : int;         (* packets seen both at NIC and at the socket *)
  inversions : int;       (* arrival-order -> delivery-order inversions *)
  per_kpkt : float;       (* inversions per 1000 observed packets *)
}

(* Count inversions of [a] (mergesort count, O(n log n)): pairs i < j
   with [a.(i) > a.(j)].  Applied to the arrival indices listed in
   delivery order, this is exactly the number of packet pairs delivered
   in the opposite order to their wire arrival. *)
let count_inversions a =
  let n = Array.length a in
  let buf = Array.make n 0 in
  let inv = ref 0 in
  let rec sort lo hi =
    (* sorts a.(lo..hi-1) *)
    if hi - lo > 1 then begin
      let mid = (lo + hi) / 2 in
      sort lo mid;
      sort mid hi;
      Array.blit a lo buf lo (hi - lo);
      let i = ref lo and j = ref mid in
      for k = lo to hi - 1 do
        if !i < mid && (!j >= hi || buf.(!i) <= buf.(!j)) then begin
          a.(k) <- buf.(!i);
          incr i
        end else begin
          a.(k) <- buf.(!j);
          (* every element still waiting on the left is a pair out of
             order with the one we just took from the right *)
          inv := !inv + (mid - !i);
          incr j
        end
      done
    end
  in
  sort 0 n;
  !inv

(* Four constant-rate flows with coprime-ish rates so the queues'
   coalescing timers drift out of phase instead of firing in lockstep. *)
let reorder_flow_rates = [ 1_350.; 1_450.; 1_550.; 1_650. ]

let measure_reorder ?(seed = Common.default_seed) ~coalesce_us ~fabric_faults
    ~duration () =
  let cfg =
    Common.config_of_system Common.Rss
      ~tune:(fun c ->
        { c with
          Kernel.coalesce_us;
          (* count threshold parked above the ring so only the timer
             (the swept knob) ever raises the interrupt *)
          Kernel.coalesce_pkts = Kernel.rx_ring })
  in
  let w, client, server = World.pair ~seed ~cfg () in
  if fabric_faults then
    Fabric.set_link_faults (World.fabric w)
      ~ip:(Kernel.ip_address server)
      (Fabric.Faults.make ~reorder:0.05 ~reorder_span:8 ());
  Kernel.set_tracing server true;
  (* Packet-lifecycle events only: keeps the recorder window wide enough
     to hold the whole run's Nic_rx/Sock_enqueue pairs. *)
  Trace.set_filter (Kernel.tracer server) [ Trace.Packet_events ];
  let sink = Blast.start_sink server ~port:9000 () in
  List.iteri
    (fun i rate ->
      ignore
        (Blast.start_source (World.engine w) (Kernel.nic client)
           ~src:(Kernel.ip_address client)
           ~dst:(Kernel.ip_address server, 9000)
           ~src_port:(2000 + i) ~rate ~size:14 ~until:duration ()))
    reorder_flow_rates;
  (* Drain time after the sources stop. *)
  World.run w ~until:(duration +. Time.ms 50.);
  ignore sink.Blast.received;
  (* Arrival index per packet ident, then the delivery sequence mapped
     through it. *)
  let events = Trace.events (Kernel.tracer server) in
  let arrival = Hashtbl.create 4096 in
  let next = ref 0 in
  List.iter
    (fun (_, _, ev) ->
      match ev with
      | Trace.Nic_rx { pkt; _ } when not (Hashtbl.mem arrival pkt) ->
          Hashtbl.add arrival pkt !next;
          incr next
      | _ -> ())
    events;
  let delivery =
    List.filter_map
      (fun (_, _, ev) ->
        match ev with
        | Trace.Sock_enqueue { pkt; _ } -> Hashtbl.find_opt arrival pkt
        | _ -> None)
      events
  in
  let seq = Array.of_list delivery in
  let observed = Array.length seq in
  let inversions = count_inversions seq in
  { coalesce_us; fabric_faults; observed; inversions;
    per_kpkt =
      (if observed = 0 then 0.
       else 1000. *. float_of_int inversions /. float_of_int observed) }

let default_coalesce_sweep = [ 0.; 100.; 250.; 500.; 1_000. ]

let run_reorder ?(quick = false) ?(jobs = 1) ?(seed = Common.default_seed) ()
    =
  let duration = if quick then Time.ms 500. else Time.sec 2. in
  List.concat_map snd
    (Common.grid ~jobs ~seed [ false; true ] default_coalesce_sweep
       (fun ~seed fabric_faults coalesce_us ->
         measure_reorder ~seed ~coalesce_us ~fabric_faults ~duration ()))

(* --- rendering --------------------------------------------------------- *)

let print =
  Fig3.plot "Modern comparison: throughput versus offered load (14-byte UDP)"

let print_reorder points =
  Common.print_title
    "Coalescing versus cross-flow reorder (RSS, 4 queues, 4 flows)";
  Common.printf "  %-12s %-10s %-10s %-10s %s\n" "coalesce_us" "fabric"
    "observed" "inversions" "per-kpkt";
  List.iter
    (fun p ->
      Common.printf "  %-12.0f %-10s %-10d %-10d %8.1f\n" p.coalesce_us
        (if p.fabric_faults then "reorder" else "clean")
        p.observed p.inversions p.per_kpkt)
    points

(* --- claims ------------------------------------------------------------ *)

let claims rows reorder =
  let open Common in
  let at sys =
    pick (fun p -> p.Fig3.delivered) (fun p -> p.Fig3.offered = 25_000.)
      (List.concat_map (fun r -> if r.system = sys then r.points else []) rows)
  in
  let bsd = at Bsd and napi = at Napi and gro = at Napi_gro and soft = at Soft_lrp in
  let inv c =
    pick (fun p -> float_of_int p.inversions)
      (fun p -> p.coalesce_us = c && not p.fabric_faults) reorder
  in
  [ claim "modern.bsd-collapse" "4.4BSD delivers < 500 pkts/s at 25k offered" bsd
      (bsd < 500.);
    claim "modern.napi-sustains" "NAPI delivers > 4,000 pkts/s at 25k offered" napi
      (napi > 4_000.);
    claim "modern.napi-gro-over-soft-lrp"
      "NAPI-GRO delivers more than SOFT-LRP at 25k offered (ratio)" (gro /. soft)
      (gro > soft);
    claim "modern.no-holdoff-in-order"
      "no coalescing hold-off, no cross-flow inversions (clean wire)" (inv 0.)
      (inv 0. = 0.);
    claim "modern.holdoff-reorders"
      "a 1 ms hold-off reorders across flows: more inversions than at 0 us"
      (inv 1_000.) (inv 1_000. > inv 0.) ]
