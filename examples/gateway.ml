(* Gateway demo (paper section 3.5 and the firewall motivation of
   section 2.3): a multi-homed host forwards traffic between two networks
   via the IP-forwarding daemon, whose scheduling priority bounds how much
   of the machine transit traffic may consume.

   Run with:  dune exec examples/gateway.exe *)

open Lrp_engine
open Lrp_sim
open Lrp_kernel
open Lrp_workload

let run arch ~fwd_nice ~flood_rate =
  let engine, client, gw, server =
    World.gateway ~fwd_nice (Kernel.default_config arch)
  in
  (* A local application competing on the gateway. *)
  let app_work = ref 0. in
  ignore
    (Cpu.spawn (Kernel.cpu gw) ~name:"local-app" (fun _ ->
         let rec loop () =
           (Cpu.cost_cell (Kernel.cpu gw)).(0) <- 1_000.;
           Cpu.compute (Kernel.cpu gw);
           app_work := !app_work +. 1_000.;
           loop ()
         in
         loop ()));
  (* A sink behind the gateway, and a flood through it. *)
  let sink, _ =
    Blast.flood ~client ~server ~rate:flood_rate ~until:(Time.sec 1.) ()
  in
  Engine.run engine ~until:(Time.sec 1.);
  (float_of_int sink.Blast.received, !app_work /. Time.sec 1.)

let () =
  print_endline
    "A flood transits a gateway that also runs a local application.\n";
  Printf.printf "  %-22s %14s %16s\n" "gateway kernel" "forwarded/s"
    "local app share";
  List.iter
    (fun (label, arch, nice) ->
      let fwd, share = run arch ~fwd_nice:nice ~flood_rate:20_000. in
      Printf.printf "  %-22s %14.0f %15.1f%%\n" label fwd (100. *. share))
    [ ("4.4BSD", Kernel.Bsd, 0);
      ("SOFT-LRP (nice 0)", Kernel.Soft_lrp, 0);
      ("SOFT-LRP (nice +10)", Kernel.Soft_lrp, 10);
      ("NI-LRP (nice 0)", Kernel.Ni_lrp, 0) ];
  print_endline
    "\nUnder BSD, forwarding runs at software-interrupt priority and the\n\
     local application is starved outright.  Under LRP, the forwarding\n\
     daemon competes like any process: its nice value is a policy knob\n\
     trading forwarded throughput against local work (section 3.5)."
