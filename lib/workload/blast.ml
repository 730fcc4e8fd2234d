(** Open-loop UDP traffic source and sink.

    The source injects packets directly at the sender's NIC — the equivalent
    of the paper's in-kernel packet source, needed because a user-process
    sender would saturate its own CPU long before the interesting offered
    rates (the paper notes using an in-kernel source for the same reason).

    The sink is a real application process: a receive-and-discard loop over
    the socket API, exactly like the paper's blast server. *)

open Lrp_engine
open Lrp_sim
open Lrp_net
open Lrp_kernel

type source = {
  mutable sent : int;
  mutable stop_at : float;
}

(* [start_source engine nic ~src ~dst ~rate ~size ~until ()] injects
   [size]-byte UDP datagrams at [rate] packets/sec until [until]. *)
let start_source engine nic ~src ~dst:(dip, dport) ?(src_port = 7777)
    ~rate ~size ~until () =
  let interval = 1e6 /. rate in
  (* A rate that is not finite and positive, or so high that the interval
     no longer advances the clock at [until], would re-arm forever. *)
  if not (Float.is_finite rate && rate > 0.
          && (until +. interval > until || until = infinity)) then
    invalid_arg (Printf.sprintf "Blast.start_source: rate %g" rate);
  let t = { sent = 0; stop_at = until } in
  let payload = Payload.synthetic size in
  (* One event record and one thunk for the whole run: each firing re-arms
     the same handle instead of scheduling a fresh closure per packet. *)
  let handle = ref None in
  let tick () =
    if Engine.now engine < t.stop_at then begin
      ignore
        (Nic.transmit_row nic
           (Parena.udp (Nic.pool nic) ~src ~dst:dip ~src_port ~dst_port:dport
              payload));
      t.sent <- t.sent + 1;
      match !handle with
      | Some h -> Engine.reschedule_after engine h ~delay:interval
      | None -> ()
    end
  in
  handle := Some (Engine.schedule_after engine ~delay:interval tick);
  t

type sink = {
  sock : Socket.t;
  mutable received : int;
}

(* [start_sink kern ~port ()] spawns the blast-server process: bind, then
   receive and discard in a loop. *)
let start_sink kern ~port () =
  let sock = Api.socket_dgram () in
  let sink = { sock; received = 0 } in
  let _proc =
    Cpu.spawn (Kernel.cpu kern) ~name:(Printf.sprintf "blast-sink:%d" port)
      (fun self ->
        Api.bind kern sock ~owner:(Some self) ~port;
        let dg = Api.dgram () in
        let rec loop () =
          Api.recvfrom kern sock dg;
          sink.received <- sink.received + 1;
          loop ()
        in
        try loop () with Api.Socket_closed -> ())
  in
  sink

(* [flood ~client ~server ~rate ~until ()] is the paper's blast: a sink on
   [server]'s port 9000, then a 14-byte source from [client] at [rate]
   until [until].  The sink starts first, so its process exists before the
   source's first event. *)
let flood ~client ~server ~rate ~until () =
  let sink = start_sink server ~port:9000 () in
  let src =
    start_source (Kernel.engine client) (Kernel.nic client)
      ~src:(Kernel.ip_address client)
      ~dst:(Kernel.ip_address server, 9000)
      ~rate ~size:14 ~until ()
  in
  (sink, src)
