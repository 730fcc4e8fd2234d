(** Sliding-window UDP throughput tool (Table 1).

    The paper measures UDP throughput "using a simple sliding-window
    protocol" with checksumming disabled.  Sender keeps [window] datagrams
    outstanding; the receiver acknowledges each datagram with a small
    reply. *)

open Lrp_engine
open Lrp_sim
open Lrp_net
open Lrp_kernel

type result = {
  mutable bytes_received : int;
  mutable datagrams : int;
  mutable first_rx : float;
  mutable last_rx : float;
}

let mbps r =
  if r.last_rx <= r.first_rx then 0.
  else float_of_int r.bytes_received *. 8. /. (r.last_rx -. r.first_rx)

(* Receiver: consume datagrams, ack each one. *)
let start_receiver kern ~port result =
  ignore
    (Cpu.spawn (Kernel.cpu kern) ~name:"udpwin-rx" (fun self ->
         let sock = Api.socket_dgram () in
         Api.bind kern sock ~owner:(Some self) ~port;
         let dg = Api.dgram () in
         let rec loop () =
           Api.recvfrom kern sock dg;
           let n = Payload.length dg.Api.dg_payload in
           if result.datagrams = 0 then
             result.first_rx <- Engine.now (Kernel.engine kern);
           result.bytes_received <- result.bytes_received + n;
           result.datagrams <- result.datagrams + 1;
           result.last_rx <- Engine.now (Kernel.engine kern);
           Api.sendto kern ~self sock ~dst:(dg.Api.dg_src, dg.Api.dg_sport)
             (Payload.synthetic 1);
           loop ()
         in
         try loop () with Api.Socket_closed -> ()))

(* Sender: keep [window] datagrams in flight until [total] are sent. *)
let start_sender kern ~dst ~size ~window ~total =
  ignore
    (Cpu.spawn (Kernel.cpu kern) ~name:"udpwin-tx" (fun self ->
         let sock = Api.socket_dgram () in
         ignore (Api.bind_ephemeral kern sock ~owner:(Some self));
         let outstanding = ref 0 in
         let sent = ref 0 in
         let acked = ref 0 in
         let ack = Api.dgram () in
         while !acked < total do
           if !sent < total && !outstanding < window then begin
             Api.sendto kern ~self sock ~dst (Payload.synthetic size);
             incr sent;
             incr outstanding
           end
           else begin
             Api.recvfrom kern sock ack;
             incr acked;
             decr outstanding
           end
         done))

let run world ~sender ~receiver ~port ?(size = 8192) ?(window = 8)
    ~total ~until () =
  let result =
    { bytes_received = 0; datagrams = 0; first_rx = 0.; last_rx = 0. }
  in
  start_receiver receiver ~port result;
  start_sender sender ~dst:(Kernel.ip_address receiver, port) ~size ~window
    ~total;
  World.run world ~until;
  result
