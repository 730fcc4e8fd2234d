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

type t = {
  cells : cell array;
  racks : int;
  hosts_per_rack : int;
  lookahead : float;
}

(* Addressing scheme: rack in the second octet, slot in the last —
   10.r.0.(10+s) — so cross-rack routing is a shift and a mask. *)
let host_ip ~rack ~slot = Packet.ip_of_quad 10 rack 0 (10 + slot)

let rack_of ip = (ip lsr 16) land 0xff

let spine_leaf ?(seed = 42) ?(spine_latency_us = 100.) ?(uplink_mbps = 622.)
    ~racks ~hosts_per_rack ~cfg () =
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
  { cells = Array.init racks make_cell; racks; hosts_per_rack;
    lookahead = spine_latency_us }

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

(* Barrier exchange: drain every cell's outbox in ascending cell order,
   then deliver per destination in ascending (ready, source, sequence)
   order.  Collection builds per-destination lists newest-first; the
   [List.rev] restores (source, sequence) order and the stable sort on
   ready time alone preserves it among ties — an explicit total order,
   no polymorphic compare. *)
let exchange t () =
  let pending = Array.make t.racks [] in
  let moved = ref 0 in
  for src = 0 to t.racks - 1 do
    moved :=
      !moved
      + Fabric.drain_outbox t.cells.(src).fabric
          (fun ~ready ~dst ~seq:_ pkt ->
            pending.(dst) <- (ready, pkt) :: pending.(dst))
  done;
  for dst = 0 to t.racks - 1 do
    match pending.(dst) with
    | [] -> ()
    | l ->
        let l =
          List.stable_sort
            (fun (r1, _) (r2, _) -> Float.compare r1 r2)
            (List.rev l)
        in
        List.iter
          (fun (ready, pkt) ->
            Fabric.inject_remote t.cells.(dst).fabric ~at:ready pkt)
          l
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
