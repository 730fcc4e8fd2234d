(* Extension (paper section 3.5): an IP gateway forwarding a transit
   flood between two networks while it runs a local application.  Each
   (rate, architecture) cell is an independent simulation, so the grid
   fans out over the domain pool like the paper experiments. *)

open Lrp_engine
open Lrp_kernel
open Lrp_workload

type row = {
  rate : float;       (* transit pkts/s offered *)
  bsd_fwd : float;    (* forwarded per second *)
  bsd_share : float;  (* the local application's CPU share *)
  lrp_fwd : float;
  lrp_share : float;
}

(* One second of flood through a gateway of [arch]: its forwarding rate
   and the local application's CPU share. *)
let measure ~seed arch rate =
  let engine, client, gw, server =
    World.gateway ~seed (Kernel.default_config arch)
  in
  let app = Spinner.start (Kernel.cpu gw) ~nice:0 ~name:"local-app" () in
  ignore (Blast.flood ~client ~server ~rate ~until:(Time.sec 1.) ());
  Engine.run engine ~until:(Time.sec 1.);
  (float_of_int (Kernel.stats gw).Kernel.forwarded,
   Lrp_sim.Proc.cpu_time app /. Time.sec 1.)

let run ?(jobs = 1) ?(seed = Common.default_seed) () =
  List.map
    (function
      | rate, [ (bsd_fwd, bsd_share); (lrp_fwd, lrp_share) ] ->
          { rate; bsd_fwd; bsd_share; lrp_fwd; lrp_share }
      | _ -> assert false)
    (Common.grid ~jobs ~seed [ 2_000.; 8_000.; 14_000.; 20_000. ]
       [ Kernel.Bsd; Kernel.Soft_lrp ]
       (fun ~seed rate arch -> measure ~seed arch rate))

let print rows =
  Common.print_title "Extension: IP gateway under transit flood (section 3.5)";
  Common.printf "  %-14s %12s %12s %16s\n" "rate (pkts/s)" "BSD fwd/s"
    "LRP fwd/s" "LRP local share";
  List.iter
    (fun r ->
      Common.printf "  %-14.0f %12.0f %12.0f %15.1f%%\n" r.rate r.bsd_fwd
        r.lrp_fwd (100. *. r.lrp_share))
    rows

let claims rows =
  let at20 f = Common.pick f (fun r -> r.rate = 20_000.) rows in
  let bsd = at20 (fun r -> r.bsd_share) and lrp = at20 (fun r -> r.lrp_share) in
  [ Common.claim "gateway.bsd-starves-local"
      "4.4BSD forwards at softint priority, LRP in a scheduled daemon: the \
       local app's CPU share at 20k pkts/s is lower on 4.4BSD"
      bsd (bsd < lrp) ]
