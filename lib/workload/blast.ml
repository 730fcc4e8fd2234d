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
  let t = { sent = 0; stop_at = until } in
  let interval = 1e6 /. rate in
  (* One event record and one thunk for the whole run: each firing re-arms
     the same handle instead of scheduling a fresh closure per packet. *)
  let handle = ref None in
  let tick () =
    if Engine.now engine < t.stop_at then begin
      let pkt =
        Packet.udp ~src ~dst:dip ~src_port ~dst_port:dport
          (Payload.synthetic size)
      in
      ignore (Nic.transmit nic pkt);
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
let start_sink kern ?(nice = 0) ~port () =
  let sock = Api.socket_dgram kern in
  let sink = { sock; received = 0 } in
  let _proc =
    Cpu.spawn (Kernel.cpu kern) ~nice ~name:(Printf.sprintf "blast-sink:%d" port)
      (fun self ->
        Api.bind kern sock ~owner:(Some self) ~port;
        let rec loop () =
          let _dg = Api.recvfrom kern ~self sock in
          sink.received <- sink.received + 1;
          loop ()
        in
        try loop () with Api.Socket_closed -> ())
  in
  sink
