(** Multi-rack scenario builder for sharded simulation.

    A spine-leaf cluster: each rack is one {e cell} — its own engine,
    leaf fabric and hosts — and racks talk through a spine whose
    per-link latency lower-bounds cross-cell effect distance, making it
    the shard scheduler's lookahead window ({!Lrp_engine.Shardsim}).

        spine  (uplink_mbps per rack link, spine_latency_us each way)
       /  |  \
    rack rack rack        each rack: leaf fabric (155 Mbit/s ports)
    r=0  r=1  r=2         hosts 10.r.0.(10+slot)

    Cross-rack frames leave through the leaf's uplink into a per-cell
    outbox; [exchange] drains every outbox at epoch barriers and injects
    each frame into its destination rack at its ready time, in a fixed
    total order — so results are byte-identical at any shard count. *)

open Lrp_engine
open Lrp_net
open Lrp_kernel

type cell = {
  cell_id : int;
  engine : Engine.t;
  fabric : Fabric.t;
  kernels : Kernel.t array;
}

(* A destination cell's frames gathered at one barrier, in drain order
   until [exchange] sorts them.  Reused across barriers: the columns only
   grow, so the steady state allocates nothing. *)
type inbox = {
  mutable in_ready : float array;
  mutable in_row : Parena.handle array;  (* rows of the destination's pool *)
  mutable in_len : int;
}

type t = {
  cells : cell array;
  racks : int;
  lookahead : float;
  inbox : inbox array;                (* per destination cell *)
  ready : float array;                (* 1-slot: staged by drain_outbox *)
  pool_of : int -> Parena.t;          (* a cell's frame pool, built once *)
  collect : int -> Parena.handle -> unit;  (* drain callback, built once *)
}

(* Addressing scheme: rack in the second octet, slot in the last —
   10.r.0.(10+s) — so cross-rack routing is a shift and a mask. *)
let host_ip ~rack ~slot = Packet.ip_of_quad 10 rack 0 (10 + slot)

let rack_of ip = (ip lsr 16) land 0xff

(* Append a drained frame; its ready time is read from the 1-slot cell
   [ready] (a float argument would box if the call is not inlined). *)
let push b ready row =
  let n = b.in_len in
  if n = Array.length b.in_ready then begin
    let rs = Array.make (2 * n) 0. in (* alloc: cold — amortized growth *)
    let ps = Array.make (2 * n) Parena.none in (* alloc: cold — amortized growth *)
    Array.blit b.in_ready 0 rs 0 n;
    Array.blit b.in_row 0 ps 0 n;
    b.in_ready <- rs;
    b.in_row <- ps
  end;
  b.in_ready.(n) <- ready.(0);
  b.in_row.(n) <- row;
  b.in_len <- n + 1

(* Stable insertion sort on ready time: equal times keep drain order.
   Each source's frames already arrive in ready order, so the work is
   linear in the frames plus the cross-source inversions. *)
let sort_by_ready b =
  for i = 1 to b.in_len - 1 do
    let r = b.in_ready.(i) and p = b.in_row.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && b.in_ready.(!j) > r do
      b.in_ready.(!j + 1) <- b.in_ready.(!j);
      b.in_row.(!j + 1) <- b.in_row.(!j);
      decr j
    done;
    b.in_ready.(!j + 1) <- r;
    b.in_row.(!j + 1) <- p
  done

(* The spine: one-way latency of a rack's uplink, and its rate (OC-12). *)
let spine_latency_us = 100.
let uplink_mbps = 622.

let spine_leaf ?(seed = 42) ~racks ~hosts_per_rack ~cfg () =
  if racks < 1 || hosts_per_rack < 1 then
    invalid_arg "Topology.spine_leaf: racks and hosts_per_rack must be >= 1";
  if racks > 256 then invalid_arg "Topology.spine_leaf: racks > 256";
  let resolve ip =
    if (ip lsr 24) land 0xff <> 10 then -1
    else
      let r = rack_of ip in
      let s = (ip land 0xff) - 10 in
      if r < racks && s >= 0 && s < hosts_per_rack then r else -1
  in
  let latency _cell = spine_latency_us in
  let make_cell r =
    (* Each cell gets an independent seed stream; [Engine.create] also
       installs the cell's own Idspace, so the kernels built right below
       draw their ids from it — construction is serial and identical at
       every shard count. *)
    let engine = Engine.create ~seed:(Rng.split_seed ~seed ~index:r) () in
    let fabric = Fabric.create engine () in
    Fabric.set_uplink fabric ~cell:r ~resolve ~latency
      ~min_latency:spine_latency_us ~bandwidth_mbps:uplink_mbps ();
    let kernels =
      Array.init hosts_per_rack (fun s ->
          Kernel.create engine fabric
            ~name:(Printf.sprintf "r%d-h%d" r s)
            ~ip:(host_ip ~rack:r ~slot:s)
            cfg)
    in
    { cell_id = r; engine; fabric; kernels }
  in
  let inbox =
    Array.init racks (fun _ ->
        { in_ready = Array.make 16 0.; in_row = Array.make 16 Parena.none;
          in_len = 0 })
  and ready = [| 0. |] in
  let cells = Array.init racks make_cell in
  { cells; racks; lookahead = spine_latency_us; inbox; ready;
    pool_of = (fun c -> Fabric.pool cells.(c).fabric);
    collect = (fun dst row -> push inbox.(dst) ready row) }

let lookahead t = t.lookahead
let cells t = t.cells

(* Run [f] on cell [r] with the cell's Idspace installed — required
   around any setup that mints ids (sockets, channels, connections)
   after construction, e.g. starting workloads. *)
let on_cell t r f =
  let saved = Idspace.current () in
  Idspace.use (Engine.ids t.cells.(r).engine);
  Fun.protect ~finally:(fun () -> Idspace.use saved)
  @@ fun () -> f t.cells.(r)

(* Barrier exchange: drain every cell's outbox in ascending cell order
   into per-destination inboxes, each frame copied into its destination
   cell's pool on the way, then deliver each inbox in ascending
   (ready, source, sequence) order.  Drain order is already (source,
   sequence), so a stable sort on ready time alone gives the total order
   — no polymorphic compare — and an inbox of at most one frame needs no
   sort.  Nothing here allocates: the inboxes and the drain callback are
   the topology's, and ready times travel through float cells. *)
let exchange t () =
  let moved = ref 0 in
  for src = 0 to t.racks - 1 do
    moved :=
      !moved
      + Fabric.drain_outbox t.cells.(src).fabric ~ready:t.ready
          ~pool_of:t.pool_of t.collect
  done;
  for dst = 0 to t.racks - 1 do
    let b = t.inbox.(dst) in
    if b.in_len > 1 then sort_by_ready b;
    let c = t.cells.(dst) in
    let at = Engine.deadline_cell c.engine in
    for k = 0 to b.in_len - 1 do
      at.(0) <- b.in_ready.(k);
      Fabric.inject_remote c.fabric b.in_row.(k)
    done;
    b.in_len <- 0
  done;
  !moved

let run ?(shards = 1) t ~until =
  let engines = Array.map (fun c -> c.engine) t.cells in
  let sim =
    Shardsim.create ~shards ~lookahead:t.lookahead ~exchange:(exchange t)
      engines
  in
  Shardsim.run sim ~until;
  sim
