(** TCP bulk-transfer throughput (Table 1): 24 MB with 32 KB socket
    buffers. *)

open Lrp_engine
open Lrp_sim
open Lrp_net
open Lrp_kernel

type result = {
  mutable bytes : int;
  mutable started : float;
  mutable finished : float option;
}

let mbps r =
  match r.finished with
  | Some f when f > r.started -> float_of_int r.bytes *. 8. /. (f -. r.started)
  | Some _ | None -> 0.

let run world ~sender ~receiver ~port ~total ~until () =
  let r = { bytes = 0; started = 0.; finished = None } in
  let engine = World.engine world in
  ignore
    (Cpu.spawn (Kernel.cpu receiver) ~name:"tcpbulk-rx" (fun self ->
         let lsock = Api.socket_stream receiver in
         Api.tcp_listen receiver ~self lsock ~port ~backlog:4;
         let conn = Api.tcp_accept receiver ~self lsock in
         r.started <- Engine.now engine;
         let rec drain () =
           match Api.tcp_recv receiver conn ~max:65_536 with
           | `Data p ->
               r.bytes <- r.bytes + Payload.length p;
               drain ()
           | `Eof -> ()
         in
         drain ();
         r.finished <- Some (Engine.now engine);
         Api.close receiver conn));
  ignore
    (Cpu.spawn (Kernel.cpu sender) ~name:"tcpbulk-tx" (fun self ->
         let sock = Api.socket_stream sender in
         match
           Api.tcp_connect sender ~self sock
             ~remote:(Kernel.ip_address receiver, port)
         with
         | `Refused -> ()
         | `Ok ->
             (* Send in 64 kB application writes. *)
             let chunk = 65_536 in
             let remaining = ref total in
             while !remaining > 0 do
               let n = min chunk !remaining in
               (match Api.tcp_send sender sock (Payload.synthetic n) with
                | `Ok -> remaining := !remaining - n
                | `Closed -> remaining := 0)
             done;
             Api.close sender sock));
  World.run world ~until;
  r
