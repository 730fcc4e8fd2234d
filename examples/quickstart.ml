(* Quickstart: build a two-host world, exchange UDP datagrams and a TCP
   stream over the simulated network, and read out basic statistics.

   Run with:  dune exec examples/quickstart.exe *)

open Lrp_engine
open Lrp_sim
open Lrp_net
open Lrp_kernel
open Lrp_workload

let () =
  (* A world is an engine plus an ATM-like switching fabric.  Hosts get a
     kernel each; here both run the NI-LRP architecture.  Swap
     [Kernel.Ni_lrp] for [Kernel.Bsd], [Kernel.Soft_lrp] or
     [Kernel.Early_demux] to compare. *)
  let w = World.make () in
  let cfg = Kernel.default_config Kernel.Ni_lrp in
  let alice = World.add_host w ~name:"alice" cfg in
  let bob = World.add_host w ~name:"bob" cfg in

  (* --- a UDP echo server on bob ------------------------------------- *)
  ignore
    (Cpu.spawn (Kernel.cpu bob) ~name:"echo" (fun self ->
         let sock = Api.socket_dgram () in
         Api.bind bob sock ~owner:(Some self) ~port:7;
         (* Echo forever: receive (with lazy protocol processing, since
            this is an LRP kernel) and send straight back. *)
         let dg = Api.dgram () in
         let rec loop () =
           Api.recvfrom bob sock dg;
           Api.sendto bob ~self sock ~dst:(dg.Api.dg_src, dg.Api.dg_sport)
             dg.Api.dg_payload;
           loop ()
         in
         loop ()));

  (* --- a UDP client on alice ---------------------------------------- *)
  ignore
    (Cpu.spawn (Kernel.cpu alice) ~name:"client" (fun self ->
         let sock = Api.socket_dgram () in
         ignore (Api.bind_ephemeral alice sock ~owner:(Some self));
         let reply = Api.dgram () in
         for i = 1 to 3 do
           let t0 = Engine.now (World.engine w) in
           Api.sendto alice ~self sock
             ~dst:(Kernel.ip_address bob, 7)
             (Payload.synthetic (100 * i));
           Api.recvfrom alice sock reply;
           Printf.printf "udp echo %d: %d bytes back in %.0f us\n" i
             (Payload.length reply.Api.dg_payload)
             (Engine.now (World.engine w) -. t0)
         done));

  (* --- a TCP exchange ------------------------------------------------ *)
  ignore
    (Cpu.spawn (Kernel.cpu bob) ~name:"tcp-srv" (fun self ->
         let lsock = Api.socket_stream bob in
         Api.tcp_listen bob ~self lsock ~port:80 ~backlog:4;
         let conn = Api.tcp_accept bob ~self lsock in
         (match Api.tcp_recv bob conn ~max:4096 with
          | `Data req ->
              Printf.printf "tcp server: got %d-byte request\n"
                (Payload.length req);
              ignore (Api.tcp_send bob conn (Payload.of_string "pong"))
          | `Eof -> ());
         Api.close bob conn));
  ignore
    (Cpu.spawn (Kernel.cpu alice) ~name:"tcp-cli" (fun self ->
         let sock = Api.socket_stream alice in
         match Api.tcp_connect alice ~self sock ~remote:(Kernel.ip_address bob, 80) with
         | `Refused -> print_endline "tcp: connection refused?!"
         | `Ok ->
             ignore (Api.tcp_send alice sock (Payload.of_string "ping"));
             (match Api.tcp_recv alice sock ~max:4096 with
              | `Data p ->
                  Printf.printf "tcp client: reply %S\n"
                    (Bytes.to_string (Payload.to_bytes p))
              | `Eof -> ());
             Api.close alice sock));

  (* Run the virtual world for one simulated second. *)
  World.run w ~until:(Time.sec 1.);

  Printf.printf "\nsimulated %.3f s in %d engine events\n"
    (Time.to_sec (Engine.now (World.engine w)))
    (Engine.events_executed (World.engine w));
  Printf.printf "bob's CPU: %.1f%% busy, %d context switches\n"
    (100. *. Cpu.utilization (Kernel.cpu bob))
    (Cpu.context_switches (Kernel.cpu bob))
