(** CPU-accounting and overload-detector experiment.

    Two tables built on the per-cycle ledger ({!Lrp_sim.Ledger}) and the
    livelock detector ({!Lrp_check.Overload}), making the paper's
    resource-accounting argument (section 2.2) directly measurable:

    {b Table A — who gets charged.}  A UDP blast lands on a server that
    runs a receive-and-discard sink plus a nice +20 compute-bound victim
    process.  Under the eager architectures the per-packet protocol work
    runs at interrupt level and the tick accounting charges it to
    whatever process happened to be running — overwhelmingly the victim
    spinner — while under NI-LRP/SOFT-LRP the same work runs in
    receiver context and is charged, as [proto] cycles, to the
    receiver-side processes serving the flow.  The table shows each
    architecture's interrupt-level total, the victim's
    "charged-but-not-mine" cycles, and the receiver-context protocol
    cycles that replace them under LRP.

    {b Table B — when the detector speaks.}  The same workload across
    offered rates, BSD vs SOFT-LRP, with the detector attached.  Both
    systems eventually report {e overload} (delivery collapses below
    50 % of offered load — for LRP that is early discard doing its
    job), but only BSD crosses the {e livelock} threshold, where
    interrupt processing also monopolises the CPU. *)

open Lrp_engine
open Lrp_kernel
open Lrp_sim
open Lrp_workload
module Overload = Lrp_check.Overload

(* --- Table A: ledger attribution per architecture --------------------- *)

type arch_row = {
  system : Common.system;
  offered : int;          (* frames that reached the server's receive path *)
  delivered : int;        (* datagrams handed to the sink *)
  intr_total : float;     (* ledger Intr + Soft, us *)
  mischarged : float;
      (* interrupt cycles billed to some process's account — the paper's
         "inappropriate resource accounting", summed over processes *)
  victim_mis : float;     (* of which: the nice +20 spinner's share, us *)
  receiver_proto : float; (* receiver-context protocol cycles, us *)
  app_total : float;      (* application-class cycles, us *)
}

(* One server under blast with a sink and a nice +20 victim spinner;
   returns the server kernel, the victim pid and a stop closure. *)
let blast_world ?(seed = Common.default_seed) sys ~rate ~duration =
  let cfg = Common.config_of_system sys in
  let w = World.make ~seed () in
  let server = World.add_host w ~name:"B" cfg in
  let blaster = World.add_host w ~name:"C" cfg in
  let victim =
    Spinner.start (Kernel.cpu server) ~nice:20 ~name:"victim" ()
  in
  let sink, _ = Blast.flood ~client:blaster ~server ~rate ~until:duration () in
  (w, server, victim, sink)

let measure_arch ?(seed = Common.default_seed) sys ~rate ~duration =
  let w, server, victim, sink = blast_world ~seed sys ~rate ~duration in
  World.run w ~until:duration;
  let led = Cpu.ledger (Kernel.cpu server) in
  let mischarged, victim_mis =
    List.fold_left
      (fun (total, vict) (r : Ledger.row) ->
        if r.Ledger.pid < 0 then (total, vict) (* idle context: no account *)
        else
          let m = Ledger.misaccounted r in
          ( total +. m,
            if r.Ledger.pid = victim.Proc.pid then vict +. m else vict ))
      (0., 0.) (Ledger.rows led)
  in
  let s = Kernel.stats server in
  { system = sys;
    offered = s.Kernel.rx_frames;
    delivered = sink.Blast.received;
    intr_total = Ledger.total led Ledger.Intr +. Ledger.total led Ledger.Soft;
    mischarged; victim_mis;
    receiver_proto = Ledger.total led Ledger.Proto;
    app_total = Ledger.total led Ledger.App }

(* --- Table B: detector verdicts across offered rates ------------------ *)

type det_row = {
  d_system : Common.system;
  d_rate : float;
  d_offered : int;
  d_delivered : int;
  d_report : Overload.report;
}

let measure_detector ?(seed = Common.default_seed) sys ~rate ~duration =
  let w, server, _victim, sink = blast_world ~seed sys ~rate ~duration in
  let det = Overload.attach server in
  World.run w ~until:duration;
  Overload.detach det;
  let s = Kernel.stats server in
  { d_system = sys; d_rate = rate;
    d_offered = s.Kernel.rx_frames;
    d_delivered = sink.Blast.received;
    d_report = Overload.report det }

(* --- sweep ------------------------------------------------------------ *)

type result = { arch_rows : arch_row list; det_rows : det_row list }

let arch_systems = Common.fig3_systems (* Bsd, Ni_lrp, Soft_lrp, Early_demux *)
let det_systems = Common.fig5_systems (* Bsd, Soft_lrp *)
let default_det_rates = [ 4_000.; 14_000.; 20_000. ]

let run ?(quick = false) ?(jobs = 1) ?(seed = Common.default_seed) () =
  let duration = if quick then Time.ms 500. else Time.sec 1. in
  let det_rates = if quick then [ 4_000.; 20_000. ] else default_det_rates in
  (* One flat sweep: arch tasks first, detector tasks after. *)
  let arch sys ~seed = `Arch (measure_arch ~seed sys ~rate:8_000. ~duration) in
  let det sys rate ~seed = `Det (measure_detector ~seed sys ~rate ~duration) in
  let results =
    Common.sweep ~jobs
      (fun i task -> task ~seed:(Common.job_seed ~seed ~index:i))
      (List.map arch arch_systems
      @ List.concat_map (fun sys -> List.map (det sys) det_rates) det_systems)
  in
  { arch_rows = List.filter_map (function `Arch r -> Some r | _ -> None) results;
    det_rows = List.filter_map (function `Det r -> Some r | _ -> None) results }

(* --- rendering -------------------------------------------------------- *)

let print { arch_rows; det_rows } =
  Common.print_title
    "Accounting: who pays for receive processing (8k pkts/s blast)";
  Common.printf "  %-12s %9s %9s %11s %11s %11s %11s %10s\n" "system"
    "offered" "delivered" "intr (us)" "mischarged" "victim-mis" "rx-proto"
    "app (us)";
  List.iter
    (fun r ->
      Common.printf "  %-12s %9d %9d %11.0f %11.0f %11.0f %11.0f %10.0f\n"
        (Common.system_name r.system)
        r.offered r.delivered r.intr_total r.mischarged r.victim_mis
        r.receiver_proto r.app_total)
    arch_rows;
  Common.print_title "Overload detector: BSD vs SOFT-LRP across offered load";
  Common.printf "  %-12s %10s %10s %10s %9s %9s %9s %11s\n" "system"
    "rate/s" "offered" "delivered" "overload" "livelock" "starved"
    "intr-share";
  List.iter
    (fun r ->
      let rep = r.d_report in
      Common.printf "  %-12s %10.0f %10d %10d %9d %9d %9d %11.2f\n"
        (Common.system_name r.d_system)
        r.d_rate r.d_offered r.d_delivered rep.Overload.overload_windows
        rep.Overload.livelock_windows rep.Overload.starved_windows
        rep.Overload.peak_intr_share)
    det_rows

(* --- claims ------------------------------------------------------------ *)

let claims { arch_rows; det_rows } =
  let lrp sys = sys = Common.Ni_lrp || sys = Common.Soft_lrp in
  let livelock sys =
    List.fold_left
      (fun n d -> if d.d_system = sys then n + d.d_report.Overload.livelock_windows else n)
      0 det_rows
  in
  let wrong = List.filter (fun r -> (r.receiver_proto > 0.) <> lrp r.system) arch_rows in
  let open Common in
  [ claim "accounting.receiver-context"
      "protocol work runs in receiver context (rx-proto) on LRP only (systems not)"
      (float_of_int (List.length wrong)) (arch_rows <> [] && wrong = []);
    claim "accounting.only-bsd-livelocks"
      "only 4.4BSD crosses the detector's livelock threshold (SOFT-LRP's windows)"
      (float_of_int (livelock Soft_lrp))
      (livelock Bsd > 0 && livelock Soft_lrp = 0) ]
