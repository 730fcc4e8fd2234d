(* Overload demo: what happens to a UDP server as the offered load climbs
   past its capacity — eager (BSD) versus lazy (LRP) receiver processing.
   This is the paper's headline experiment (Figure 3) in miniature.

   Run with:  dune exec examples/overload_demo.exe *)

open Lrp_engine
open Lrp_kernel
open Lrp_workload

let measure arch rate =
  let cfg = Kernel.default_config arch in
  let w, client, server = World.pair ~cfg () in
  let sink, _ = Blast.flood ~client ~server ~rate ~until:(Time.sec 1.) () in
  World.run w ~until:(Time.sec 1.);
  (float_of_int sink.Blast.received, Kernel.early_discards server,
   (Kernel.stats server).Kernel.ipq_drops)

let () =
  print_endline "Offered load sweep: 14-byte UDP blast for 1 simulated second";
  print_endline "(delivered = datagrams the server process actually consumed)\n";
  Printf.printf "  %-10s %12s %12s %14s %10s\n" "rate" "BSD" "NI-LRP"
    "early-discard" "ipq-drops";
  List.iter
    (fun rate ->
      let bsd, _, ipq = measure Kernel.Bsd rate in
      let lrp, discards, _ = measure Kernel.Ni_lrp rate in
      Printf.printf "  %-10.0f %12.0f %12.0f %14d %10d\n" rate bsd lrp discards
        ipq)
    [ 2_000.; 5_000.; 8_000.; 11_000.; 14_000.; 17_000.; 20_000. ];
  print_endline
    "\nBSD spends the whole CPU on interrupts and collapses (receiver\n\
     livelock); NI-LRP saturates and stays there, shedding the excess at\n\
     the NI channel before it costs the host anything."
