(** ATM-like switching fabric connecting the hosts' NICs.

    A single output-buffered switch: a frame transmitted by a NIC reaches
    the switch after the source link's propagation delay, waits for the
    destination port to be free (per-port serialisation at link bandwidth),
    and arrives at the destination NIC after the switch latency plus the
    destination link's propagation delay.  Output ports have a bounded
    amount of buffering; overruns drop frames, which is the
    congestion-related loss the paper observed above 19,000 pkts/s on its
    ATM network. *)

open Lrp_engine

(* --- link fault models ------------------------------------------------- *)

module Faults = struct
  type t = {
    loss : float;          (* uniform per-frame loss probability *)
    ge_loss_good : float;  (* Gilbert–Elliott: loss probability, Good state *)
    ge_loss_bad : float;   (* loss probability, Bad state (bursty loss) *)
    ge_p_gb : float;       (* per-frame P(Good -> Bad) *)
    ge_p_bg : float;       (* per-frame P(Bad -> Good) *)
    dup : float;           (* per-frame duplication probability *)
    corrupt : float;       (* per-frame payload-corruption probability *)
    reorder : float;       (* per-frame probability of being held back *)
    reorder_span : int;    (* max displacement of a held frame, in frames *)
    jitter_us : float;     (* max uniform extra per-frame delay *)
  }

  let none =
    { loss = 0.; ge_loss_good = 0.; ge_loss_bad = 0.; ge_p_gb = 0.;
      ge_p_bg = 0.; dup = 0.; corrupt = 0.; reorder = 0.; reorder_span = 3;
      jitter_us = 0. }

  let make ?(loss = 0.) ?(ge_loss_good = 0.) ?(ge_loss_bad = 0.)
      ?(ge_p_gb = 0.) ?(ge_p_bg = 0.) ?(dup = 0.) ?(corrupt = 0.)
      ?(reorder = 0.) ?(reorder_span = 3) ?(jitter_us = 0.) () =
    { loss; ge_loss_good; ge_loss_bad; ge_p_gb; ge_p_bg; dup; corrupt;
      reorder; reorder_span; jitter_us }

  let check_prob name p =
    if not (p >= 0. && p <= 1.) then
      invalid_arg (Printf.sprintf "Fabric.Faults: %s=%g outside [0,1]" name p)

  let validate t =
    check_prob "loss" t.loss;
    check_prob "ge_loss_good" t.ge_loss_good;
    check_prob "ge_loss_bad" t.ge_loss_bad;
    check_prob "ge_p_gb" t.ge_p_gb;
    check_prob "ge_p_bg" t.ge_p_bg;
    check_prob "dup" t.dup;
    check_prob "corrupt" t.corrupt;
    check_prob "reorder" t.reorder;
    if t.reorder_span < 1 then
      invalid_arg "Fabric.Faults: reorder_span must be >= 1";
    if not (t.jitter_us >= 0.) then
      invalid_arg "Fabric.Faults: jitter_us must be >= 0"

end

(* A frame held back for reordering.  [released] guards against double
   release (count-based release vs. the idle-link timeout flush). *)
type held = {
  hrow : Parena.handle;
  mutable countdown : int;  (* frames that must overtake before release *)
  mutable released : bool;
}

type fault_state = {
  mutable cfg : Faults.t;
  frng : Rng.t;             (* this link's private fault stream *)
  mutable ge_bad : bool;    (* Gilbert–Elliott channel state *)
  mutable fheld : held list;  (* reorder buffer, oldest first *)
  flush_tgt : held Lrp_engine.Engine.target;
      (* timeout release, so a held frame on an idle link still arrives *)
}

type port = {
  nic : Nic.t;
  rx_tgt : Parena.handle Engine.target;  (* closure-free arrival event *)
  busy_until : float array;
      (* 1-slot cell: when the output port finishes its current frame (a
         mutable float field would box on every store) *)
  mutable rx_frames : int;
  mutable drops : int;
  mutable fstate : fault_state option;
      (* [None] until faults are first configured: the fault-free fast path
         stays byte-for-byte the pre-fault-injection code, with zero extra
         RNG draws. *)
}

(* Cross-cell uplink: the spine side of a leaf fabric when the simulation
   is partitioned into cells (Lrp_engine.Shardsim).  A frame whose
   destination resolves to another cell serialises through the uplink
   port, then sits in the SoA outbox until the coordinator's barrier
   drains it towards the destination cell's fabric; [set_uplink]'s
   [min_latency] is the conservative-lookahead bound the coordinator
   relies on, so every route latency [up_latency] returns must be >= it.  All uplink state is
   written only by the owning cell (while it advances) or at barriers —
   never by two domains at once. *)
type uplink = {
  up_cell : int;                    (* this fabric's cell id *)
  up_resolve : Packet.ip -> int;    (* destination cell, or -1 = off-net *)
  up_latency : int -> float;        (* spine route latency to a cell, us *)
  up_bandwidth : float;             (* bytes/us *)
  up_busy : float array;            (* 1-slot cell: uplink port busy until *)
  (* SoA outbox: parallel columns, drained at barriers in index order so
     per-source FIFO order is the column order. *)
  mutable ob_ready : float array;   (* earliest effect on the dest cell *)
  mutable ob_dst : int array;       (* destination cell *)
  mutable ob_row : Parena.handle array;  (* rows of this cell's pool *)
  mutable ob_len : int;
  mutable up_tx : int;              (* frames sent cross-cell *)
  mutable up_rx : int;              (* frames injected from other cells *)
  mutable up_drops : int;           (* uplink backlog overflow *)
  inject_tgt : Parena.handle Engine.target;
      (* closure-free arrival event for injected frames *)
}

type uplink_stats = {
  up_sent : int;
  up_received : int;
  up_dropped : int;
  up_backlog : int;   (* outbox entries awaiting the next barrier *)
}

type fault_stats = {
  offered : int;      (* frames presented to links (incl. pre-link drops) *)
  delivered : int;    (* frames scheduled into a destination NIC *)
  duplicated : int;   (* extra copies created by duplication faults *)
  fault_lost : int;   (* frames dropped by per-link loss (uniform + GE) *)
  corrupted : int;    (* frames altered in flight (still delivered) *)
  reordered : int;    (* frames held back for later release *)
  held_now : int;     (* frames currently in reorder buffers *)
}

type t = {
  engine : Engine.t;
  clock : float array;         (* the engine's clock cell *)
  at : float array;
      (* 1-slot cell: the time a frame reaches the switch on its way to
         [deliver_frame] — usually now, later under jitter *)
  bandwidth : float;           (* bytes/us, per output port *)
  prop_delay : float;          (* per link, us *)
  switch_latency : float;      (* fixed forwarding latency, us *)
  ports : port Lrp_det.Itab.t;
  pool : Parena.t;
      (* the cell's frame pool: every frame on this switch, its NICs and
         their kernels is a row here *)
  mutable total_drops : int;
  loss_rng : Rng.t;  (* the fault stream each port's [frng] splits off *)
  mutable default_port : Packet.ip option;
      (* where frames for off-link destinations go: the router's
         attachment (a LAN's default gateway) *)
  mutable uplink : uplink option;
      (* cross-cell path, when this fabric is a leaf of a sharded
         topology; consulted for off-link destinations before the
         default gateway *)
  mutable offered : int;
  mutable delivered : int;
  mutable duplicated : int;
  mutable fault_lost : int;
  mutable corrupted : int;
  mutable reordered : int;
}

(* How long a held frame may wait for overtaking traffic before the timeout
   releases it anyway (idle link / end of run). *)
let reorder_flush_us = 2_000.

(* The queueing backlog an output port or an uplink holds before it
   drops, us. *)
let buffer_us = 10_000.

let create engine ?(pool = Parena.create ()) ?(bandwidth_mbps = 155.)
    ?(prop_delay = 5.) ?(switch_latency = 10.) () =
  { engine; clock = Engine.clock_cell engine; at = [| 0. |];
    bandwidth = Nic.mbps_to_bytes_per_us bandwidth_mbps; prop_delay;
    switch_latency; ports = Lrp_det.Itab.create 8; pool; total_drops = 0;
    loss_rng = Rng.split (Engine.rng engine);
    default_port = None; uplink = None; offered = 0; delivered = 0;
    duplicated = 0; fault_lost = 0; corrupted = 0; reordered = 0 }

let rec attach t nic =
  let ip = Nic.ip nic in
  if Lrp_det.Itab.mem t.ports ip then
    invalid_arg "Fabric.attach: duplicate IP address";
  let port =
    { nic; rx_tgt = Engine.target t.engine (fun row -> Nic.receive nic row);
      busy_until = [| Time.zero |]; rx_frames = 0; drops = 0; fstate = None }
  in
  Lrp_det.Itab.replace t.ports ip port;
  Nic.set_deliver nic (fun row -> forward t row)

(* The per-frame path allocates nothing: ports are found without an
   option, times travel through float cells ([clock], [at],
   [busy_until]) and the arrival is scheduled through the engine's staged
   deadline, carrying the frame's row.  Multicast replication, link
   faults and the cross-cell uplink are the off-path branches.  A frame
   the switch drops is released here. *)
and forward t row =
  t.at.(0) <- t.clock.(0);
  let dst = Parena.dst t.pool row in
  if Packet.is_multicast_addr dst then forward_multicast t row
  else
    let slot = Lrp_det.Itab.find t.ports dst in
    if slot >= 0 then deliver_to t (Lrp_det.Itab.value t.ports slot) row
    else
      (* Off-link destination: try the cross-cell uplink first (sharded
         topologies), then the default gateway, else drop as a real
         switch would. *)
      match t.uplink with
      | Some up when
          (let c = up.up_resolve dst in
           c >= 0 && c <> up.up_cell) ->
          uplink_forward t up row
      | Some _ | None -> gateway_or_drop t row

(* Multicast: replicate to every port except the sender's, in address
   order so the replication (and any induced queueing) is independent of
   hash-table layout.  Each port gets a row of its own; the sender's is
   released. *)
and forward_multicast t row =
  let src = Parena.src t.pool row in
  Lrp_det.Det.iter_sorted_int
    (fun ip port ->
      if ip <> src then begin
        t.at.(0) <- t.clock.(0);
        deliver_to t port (Parena.copy t.pool row ~into:t.pool)
      end)
    t.ports;
  Parena.release t.pool row

and gateway_or_drop t row =
  match t.default_port with
  | Some gw_ip ->
      let slot = Lrp_det.Itab.find t.ports gw_ip in
      if slot >= 0 then deliver_to t (Lrp_det.Itab.value t.ports slot) row
      else switch_drop t row
  | None -> switch_drop t row

and switch_drop t row =
  t.offered <- t.offered + 1;
  t.total_drops <- t.total_drops + 1;
  Parena.release t.pool row

(* Cross-cell transmit: serialise on the uplink port, then park the frame
   in the outbox with its earliest effect time on the destination cell.
   The local offered/delivered/drop counters are left alone — their
   conservation invariant is per-fabric, and the cross-cell flow has its
   own conservation: sum of up_tx = sum of up_rx + outbox backlog. *)
and uplink_forward t up row =
  let now = t.clock.(0) in
  let dstc = up.up_resolve (Parena.dst t.pool row) in
  let ser = float_of_int (Parena.wire_bytes t.pool row) /. up.up_bandwidth in
  let busy = up.up_busy.(0) in
  let start = if busy > now then busy else now in
  if start -. now > buffer_us then begin
    up.up_drops <- up.up_drops + 1;
    Parena.release t.pool row
  end
  else begin
    let departure = start +. ser in
    up.up_busy.(0) <- departure;
    up.up_tx <- up.up_tx + 1;
    let n = up.ob_len in
    let cap = Array.length up.ob_ready in
    if n = cap then begin
      let cap' = if cap = 0 then 64 else cap * 2 in
      let ready' = Array.make cap' 0. in (* alloc: cold — amortized growth *)
      let dst' = Array.make cap' 0 in (* alloc: cold — amortized growth *)
      let row' = Array.make cap' Parena.none in (* alloc: cold — amortized growth *)
      Array.blit up.ob_ready 0 ready' 0 n;
      Array.blit up.ob_dst 0 dst' 0 n;
      Array.blit up.ob_row 0 row' 0 n;
      up.ob_ready <- ready';
      up.ob_dst <- dst';
      up.ob_row <- row'
    end;
    up.ob_ready.(n) <- departure +. up.up_latency dstc;
    up.ob_dst.(n) <- dstc;
    up.ob_row.(n) <- row;
    up.ob_len <- n + 1
  end

(* Deliver towards [port] a frame that reached the switch at [at.(0)]. *)
and deliver_to t port row =
  t.offered <- t.offered + 1;
  match port.fstate with
  | None -> deliver_frame t port row
  | Some fs -> apply_faults t port fs row

(* Link weather, applied per destination link before serialisation.  Each
   stochastic decision draws from the port's private [frng] only when the
   corresponding knob is non-zero, so a [Faults.none] configuration draws
   nothing and behaves exactly like an unconfigured port. *)
and apply_faults t port fs row =
  let now = t.at.(0) in
  let f = fs.cfg in
  (* Advance the Gilbert–Elliott channel once per frame. *)
  if f.Faults.ge_p_gb > 0. || f.Faults.ge_p_bg > 0. then begin
    let flip = if fs.ge_bad then f.Faults.ge_p_bg else f.Faults.ge_p_gb in
    if flip > 0. && Rng.uniform fs.frng < flip then fs.ge_bad <- not fs.ge_bad
  end;
  let ge_loss = if fs.ge_bad then f.Faults.ge_loss_bad else f.Faults.ge_loss_good in
  let lost_uniform = f.Faults.loss > 0. && Rng.uniform fs.frng < f.Faults.loss in
  let lost_ge =
    (not lost_uniform) && ge_loss > 0. && Rng.uniform fs.frng < ge_loss
  in
  if lost_uniform || lost_ge then begin
    t.fault_lost <- t.fault_lost + 1;
    t.total_drops <- t.total_drops + 1;
    Parena.release t.pool row
  end
  else begin
    (* Corruption flips the row in place: the frame is this link's. *)
    if f.Faults.corrupt > 0. && Rng.uniform fs.frng < f.Faults.corrupt
       && Parena.corrupt t.pool row ~at:(Rng.int fs.frng 65536)
            ~xor:(Rng.int fs.frng 256)
    then t.corrupted <- t.corrupted + 1;
    if f.Faults.dup > 0. && Rng.uniform fs.frng < f.Faults.dup then begin
      (* The extra copy, a row of its own, skips reorder/jitter: it
         arrives in order, the original may still be held back, which
         also covers the dup-then-reorder interleaving. *)
      t.duplicated <- t.duplicated + 1;
      t.at.(0) <- now;
      deliver_frame t port (Parena.copy t.pool row ~into:t.pool)
    end;
    if f.Faults.reorder > 0. && Rng.uniform fs.frng < f.Faults.reorder then begin
      (* Hold the frame until [countdown] later frames have overtaken it
         (bounded displacement), or the timeout fires on an idle link. *)
      let h =
        { hrow = row; countdown = 1 + Rng.int fs.frng f.Faults.reorder_span;
          released = false }
      in
      t.reordered <- t.reordered + 1;
      fs.fheld <- fs.fheld @ [ h ];
      ignore
        (Engine.schedule_to t.engine ~at:(now +. reorder_flush_us)
           fs.flush_tgt h)
    end
    else begin
      let now =
        if f.Faults.jitter_us > 0. then
          now +. Rng.float fs.frng f.Faults.jitter_us
        else now
      in
      t.at.(0) <- now;
      deliver_frame t port row;
      (* This frame overtook everything still held; release frames whose
         displacement bound is reached. *)
      if fs.fheld <> [] then begin
        let rec tick acc = function
          | [] -> List.rev acc
          | h :: rest ->
              h.countdown <- h.countdown - 1;
              if h.countdown <= 0 then begin
                h.released <- true;
                t.at.(0) <- now;
                deliver_frame t port h.hrow;
                tick acc rest
              end
              else tick (h :: acc) rest
        in
        fs.fheld <- tick [] fs.fheld
      end
    end
  end

and deliver_frame t port row =
  let now = t.at.(0) in
  let ser = float_of_int (Parena.wire_bytes t.pool row) /. t.bandwidth in
  let busy = port.busy_until.(0) in
  let start = if busy > now then busy else now in
  if start -. now > buffer_us then begin
    (* Output buffer exhausted: congestion drop. *)
    port.drops <- port.drops + 1;
    t.total_drops <- t.total_drops + 1;
    Parena.release t.pool row
  end
  else begin
    let departure = start +. ser in
    port.busy_until.(0) <- departure;
    port.rx_frames <- port.rx_frames + 1;
    t.delivered <- t.delivered + 1;
    (Engine.deadline_cell t.engine).(0) <-
      departure +. t.switch_latency +. t.prop_delay;
    ignore (Engine.schedule_to_staged t.engine port.rx_tgt row)
  end

(* Timeout release of a held frame (idle link or end of run). *)
let flush_held t port h =
  if not h.released then begin
    h.released <- true;
    (match port.fstate with
     | Some fs -> fs.fheld <- List.filter (fun h' -> h' != h) fs.fheld
     | None -> ());
    t.at.(0) <- t.clock.(0);
    deliver_frame t port h.hrow
  end

let set_link_faults t ~ip f =
  Faults.validate f;
  match Lrp_det.Itab.find_opt t.ports ip with
  | None -> invalid_arg "Fabric.set_link_faults: no such port"
  | Some port -> (
      match port.fstate with
      | Some fs -> fs.cfg <- f  (* keep the RNG and channel state *)
      | None ->
          let fs =
            { cfg = f; frng = Rng.split t.loss_rng; ge_bad = false;
              fheld = [];
              flush_tgt = Engine.target t.engine (fun h -> flush_held t port h) }
          in
          port.fstate <- Some fs)

let set_faults t f =
  Faults.validate f;
  (* Deterministic split order regardless of hash-table iteration: visit the
     attached addresses in sorted order. *)
  Lrp_det.Det.sorted_keys_int t.ports
  |> List.iter (fun ip -> set_link_faults t ~ip f)

let fault_stats t =
  let held_now =
    Lrp_det.Det.fold_sorted_int
      (fun _ port acc ->
        match port.fstate with
        | Some fs -> acc + List.length fs.fheld
        | None -> acc)
      t.ports 0
  in
  { offered = t.offered; delivered = t.delivered; duplicated = t.duplicated;
    fault_lost = t.fault_lost; corrupted = t.corrupted;
    reordered = t.reordered; held_now }

(* [set_default_gateway t ~ip] routes frames for unknown destinations to
   the port attached as [ip] (a forwarding host). *)
let set_default_gateway t ~ip =
  if not (Lrp_det.Itab.mem t.ports ip) then
    invalid_arg "Fabric.set_default_gateway: no such port";
  t.default_port <- Some ip

let drops t = t.total_drops

(* --- cross-cell path (sharded topologies) ------------------------------ *)

(* Arrival of an injected frame on the destination cell: from here on it
   is an ordinary local delivery (destination leaf serialisation, faults,
   propagation), on the destination cell's own engine. *)
let inject_now t row =
  (match t.uplink with
   | Some up -> up.up_rx <- up.up_rx + 1
   | None -> ());
  t.at.(0) <- t.clock.(0);
  let slot = Lrp_det.Itab.find t.ports (Parena.dst t.pool row) in
  if slot >= 0 then deliver_to t (Lrp_det.Itab.value t.ports slot) row
  else gateway_or_drop t row

let set_uplink t ~cell ~resolve ~latency ~min_latency
    ?(bandwidth_mbps = 622.) () =
  if not (min_latency > 0. && min_latency < Float.infinity) then
    invalid_arg "Fabric.set_uplink: min_latency must be positive and finite";
  if cell < 0 then invalid_arg "Fabric.set_uplink: negative cell id";
  t.uplink <-
    Some
      { up_cell = cell; up_resolve = resolve; up_latency = latency;
        up_bandwidth = Nic.mbps_to_bytes_per_us bandwidth_mbps;
        up_busy = [| Time.zero |];
        ob_ready = [||]; ob_dst = [||]; ob_row = [||]; ob_len = 0;
        up_tx = 0; up_rx = 0; up_drops = 0;
        inject_tgt = Engine.target t.engine (fun row -> inject_now t row) }

let uplink_exn t =
  match t.uplink with
  | Some up -> up
  | None -> invalid_arg "Fabric: no uplink configured" (* alloc: cold — error path *)

(* Barrier-side drain: visit outbox entries in transmit order, copy each
   frame into its destination cell's pool ([pool_of dst]) and release it
   here, then reset the columns.  Each entry's ready time is staged in
   [ready.(0)] rather than passed: a float argument to [f] would box once
   per frame.  Only the coordinating domain may call this, at a barrier,
   when no cell is advancing. *)
let drain_outbox t ~ready ~pool_of f =
  match t.uplink with
  | None -> 0
  | Some up ->
      let n = up.ob_len in
      for i = 0 to n - 1 do
        ready.(0) <- up.ob_ready.(i);
        let dst = up.ob_dst.(i) and row = up.ob_row.(i) in
        let row' = Parena.copy t.pool row ~into:(pool_of dst) in
        Parena.release t.pool row;
        f dst row'
      done;
      up.ob_len <- 0;
      n

(* Barrier-side injection: schedule the frame's arrival on this (the
   destination) cell's engine at the time staged in its deadline cell.
   Safe because the coordinator only injects at barriers, when every cell
   clock is <= the ready time (the lookahead invariant). *)
let inject_remote t row =
  ignore (Engine.schedule_to_staged t.engine (uplink_exn t).inject_tgt row)

let uplink_stats t =
  match t.uplink with
  | None -> { up_sent = 0; up_received = 0; up_dropped = 0; up_backlog = 0 }
  | Some up ->
      { up_sent = up.up_tx; up_received = up.up_rx;
        up_dropped = up.up_drops; up_backlog = up.ob_len }

let pool t = t.pool

(* Build a NIC on the fabric's pool and attach it. *)
let make_nic t ~ip ?cellify ?ifq_limit () =
  let nic = Nic.create t.engine ~pool:t.pool ~ip ?cellify ?ifq_limit () in
  attach t nic;
  nic
