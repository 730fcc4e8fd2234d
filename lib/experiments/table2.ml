(** Table 2: synthetic RPC server workload; the shapes are [claims]. *)

open Lrp_engine

open Lrp_workload

type row = {
  system : Common.system;
  cls : Rpc.cls;
  worker_elapsed_s : float;
  rpcs_per_sec : float;
  worker_share : float;
}

let measure ?(seed = Common.default_seed) sys cls ~worker_cpu =
  let cfg = Common.config_of_system sys in
  let w = World.make ~seed () in
  let client = World.add_host w ~name:"client" cfg in
  let server = World.add_host w ~name:"server" cfg in
  let r = Rpc.run w ~server ~client ~cls ~worker_cpu () in
  { system = sys; cls;
    worker_elapsed_s = Time.to_sec (Rpc.worker_elapsed r);
    rpcs_per_sec = Rpc.rpc_rate r;
    worker_share = Rpc.worker_share r }

let run ?(quick = false) ?(jobs = 1) ?(seed = Common.default_seed) () =
  let worker_cpu = if quick then Time.sec 1.5 else Time.sec 11.5 in
  let classes = if quick then [ Rpc.Fast ] else [ Rpc.Fast; Rpc.Medium; Rpc.Slow ] in
  List.concat_map snd
    (Common.grid ~jobs ~seed classes Common.table2_systems (fun ~seed cls sys ->
         measure ~seed sys cls ~worker_cpu))

(* The paper's Table 2, as rows (it gives no per-row worker share). *)
let paper =
  let row cls system worker_elapsed_s rpcs_per_sec =
    { system; cls; worker_elapsed_s; rpcs_per_sec; worker_share = nan }
  in
  Rpc.[ row Fast Common.Bsd 49.7 3120.; row Fast Common.Soft_lrp 38.7 3133.;
        row Fast Common.Ni_lrp 34.6 3410.; row Medium Common.Bsd 47.1 2712.;
        row Medium Common.Soft_lrp 37.9 2759.; row Medium Common.Ni_lrp 34.1 2783.;
        row Slow Common.Bsd 43.9 2045.; row Slow Common.Soft_lrp 38.5 2134.;
        row Slow Common.Ni_lrp 35.7 2208. ]

let print rows =
  Common.print_title "Table 2: Synthetic RPC Server Workload (measured | paper)";
  Common.printf "  %-8s %-12s %20s %22s %14s\n" "RPC" "System"
    "Worker elapsed (s)" "Server (RPCs/sec)" "Worker share";
  List.iter
    (fun r ->
      let p f = Common.pick f (fun p -> p.cls = r.cls && p.system = r.system) paper in
      Common.printf "  %-8s %-12s %10.1f | %6.1f %12.0f | %6.0f %13.0f%%\n"
        (Rpc.cls_name r.cls)
        (Common.system_name r.system)
        r.worker_elapsed_s (p (fun p -> p.worker_elapsed_s)) r.rpcs_per_sec
        (p (fun p -> p.rpcs_per_sec)) (100. *. r.worker_share))
    rows

(* The shapes of every RPC class present in [rows], each claim id naming
   its class. *)
let shapes rows =
  let classes = List.sort_uniq compare (List.map (fun r -> r.cls) rows) in
  let for_class cls =
    let get f sys = Common.pick f (fun r -> r.cls = cls && r.system = sys) rows in
    let elapsed = get (fun r -> r.worker_elapsed_s) in
    let rate = get (fun r -> r.rpcs_per_sec) in
    let share = get (fun r -> r.worker_share) in
    let id = Printf.sprintf "table2.%s.%s" (String.lowercase_ascii (Rpc.cls_name cls)) in
    let open Common in
    [ claim (id "worker-sooner")
        "worker done sooner: 4.4BSD > SOFT-LRP >= 0.95 x NI-LRP (SOFT/NI)"
        (elapsed Soft_lrp /. elapsed Ni_lrp)
        (elapsed Bsd > elapsed Soft_lrp && elapsed Soft_lrp >= 0.95 *. elapsed Ni_lrp);
      claim (id "rpc-rate") "SOFT-LRP's RPC rate >= 0.97 x 4.4BSD's"
        (rate Soft_lrp /. rate Bsd) (rate Soft_lrp >= 0.97 *. rate Bsd);
      claim (id "worker-share") "NI-LRP's worker CPU share > 4.4BSD's + 0.02"
        (share Ni_lrp -. share Bsd) (share Ni_lrp > share Bsd +. 0.02) ]
  in
  List.concat_map for_class classes

let claims rows = Common.with_paper (shapes rows) (shapes paper)
