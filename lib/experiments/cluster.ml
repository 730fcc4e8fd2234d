(** Cluster experiment: a spine-leaf rack topology under blast load,
    sharded across domains.

    Not a figure from the paper — the scale-out companion to its
    single-switch experiments: 64 SOFT-LRP hosts in 8 racks, each host
    sinking UDP blasts while sourcing an intra-rack stream and a
    cross-rack stream through the spine.  The run is coordinated by
    {!Lrp_engine.Shardsim}; its digest (deterministic report plus the
    merged per-rack recorder dump) is byte-identical at any [?shards],
    which the bench and CI gates assert. *)

open Lrp_engine
open Lrp_net
open Lrp_kernel
open Lrp_workload

type result = {
  racks : int;
  hosts_per_rack : int;
  shards : int;
  sent : int;            (* frames injected by all sources *)
  delivered : int;       (* datagrams received by all sinks *)
  cross_frames : int;    (* frames that crossed the spine *)
  epochs : int;
  events : int;          (* engine events executed, all cells *)
  critical_events : int; (* critical path of the epoch schedule *)
  digest : int64;        (* FNV-1a over report + merged recorder dump *)
  dump : string;         (* merged slot-0 recorder dump, one per rack *)
}

(* FNV-1a 64-bit over a string; plain and dependency-free, good enough to
   compare two runs of the same binary byte-for-byte. *)
let fnv1a64 s =
  let prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h prime)
    s;
  !h

let default_racks = 8
let default_hosts_per_rack = 8
let blast_port = 9000

let run ?(seed = Common.default_seed) ?(racks = default_racks)
    ?(hosts_per_rack = default_hosts_per_rack) ?(shards = 1)
    ?(rate = 2000.) ?(duration = Time.ms 200.) () =
  let cfg = Common.config_of_system Common.Soft_lrp in
  let topo =
    Topology.spine_leaf ~seed ~racks ~hosts_per_rack ~cfg ()
  in
  let sinks = ref [] in
  let sources = ref [] in
  for r = 0 to racks - 1 do
    Topology.on_cell topo r (fun (cell : Topology.cell) ->
        (* Recorders on the first host of each rack only: full rings on
           all 64 hosts would be ~128 MB for no extra coverage. *)
        Kernel.set_tracing cell.kernels.(0) true;
        Array.iter
          (fun k -> sinks := Blast.start_sink k ~port:blast_port () :: !sinks)
          cell.kernels;
        for s = 0 to hosts_per_rack - 1 do
          let k = cell.kernels.(s) in
          let src = Kernel.ip_address k in
          (* Intra-rack stream to the next slot: stays on the leaf, keeps
             per-epoch event density up. *)
          sources :=
            Blast.start_source cell.engine (Kernel.nic k) ~src
              ~dst:
                ( Topology.host_ip ~rack:r ~slot:((s + 1) mod hosts_per_rack),
                  blast_port )
              ~rate ~size:14 ~until:duration ()
            :: !sources;
          (* Cross-rack stream to the same slot one rack over: exercises
             the spine and the barrier exchange. *)
          sources :=
            Blast.start_source cell.engine (Kernel.nic k) ~src
              ~dst:(Topology.host_ip ~rack:((r + 1) mod racks) ~slot:s,
                    blast_port)
              ~rate:(rate /. 2.) ~size:14 ~until:duration ()
            :: !sources
        done)
  done;
  let sim = Topology.run ~shards topo ~until:duration in
  let sent =
    List.fold_left (fun a (s : Blast.source) -> a + s.Blast.sent) 0 !sources
  in
  let delivered =
    List.fold_left (fun a (s : Blast.sink) -> a + s.Blast.received) 0 !sinks
  in
  let cross_frames =
    Array.fold_left
      (fun a (c : Topology.cell) ->
        a + (Fabric.uplink_stats c.fabric).Fabric.up_sent)
      0 (Topology.cells topo)
  in
  let dump =
    let streams =
      Array.to_list
        (Array.map
           (fun (c : Topology.cell) ->
             (c.Topology.cell_id, Kernel.tracer c.Topology.kernels.(0)))
           (Topology.cells topo))
    in
    let buf = Buffer.create 4096 in
    let fmt = Format.formatter_of_buffer buf in
    List.iter
      (fun (stream, ts, seq, ev) ->
        Format.fprintf fmt "r%d %12.1f [%6d] %a@." stream ts seq
          Lrp_trace.Trace.pp_event ev)
      (Lrp_trace.Trace.merged_events streams);
    Format.pp_print_flush fmt ();
    Buffer.contents buf
  in
  let report_text =
    Printf.sprintf
      "cluster racks=%d hosts/rack=%d sent=%d delivered=%d cross=%d \
       epochs=%d events=%d\n"
      racks hosts_per_rack sent delivered cross_frames (Shardsim.epochs sim)
      (Shardsim.events_total sim)
  in
  let digest = fnv1a64 (report_text ^ dump) in
  { racks; hosts_per_rack; shards; sent; delivered; cross_frames;
    epochs = Shardsim.epochs sim; events = Shardsim.events_total sim;
    critical_events = Shardsim.events_critical sim; digest; dump }

(* Deterministic report: everything shard-invariant (no wall time, no
   shard count), so `--out` files from different shard counts diff
   clean. *)
let report r =
  Printf.sprintf
    "cluster: racks=%d hosts/rack=%d\n\
     sent=%d delivered=%d cross_frames=%d\n\
     epochs=%d events=%d\n\
     digest=%Lx\n"
    r.racks r.hosts_per_rack r.sent r.delivered r.cross_frames r.epochs
    r.events r.digest

let speedup_available r =
  if r.critical_events = 0 then 1.
  else float_of_int r.events /. float_of_int r.critical_events

let print r =
  Common.printf "%s" (report r);
  Common.printf "shards=%d critical_events=%d speedup_available=%.2f\n"
    r.shards r.critical_events (speedup_available r)
