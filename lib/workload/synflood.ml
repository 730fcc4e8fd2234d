(** SYN-flood generator (Figure 5).

    Injects TCP connection-establishment requests at a fixed rate to a
    victim port, from spoofed source addresses that do not exist on the
    fabric — so SYN-ACKs vanish and the victim's embryonic connections hang
    until they time out, exactly the attack pattern of the paper's
    experiment (no connection is ever established). *)

open Lrp_engine
open Lrp_net

type t = { mutable sent : int }

(* The first spoofed source; the flood cycles through 4096 of them. *)
let spoof_base = Packet.ip_of_quad 11 0 0 1

let start engine nic ~dst:(dip, dport) ~rate ~until () =
  let t = { sent = 0 } in
  let interval = 1e6 /. rate in
  (* Re-arm one event handle per firing rather than scheduling a fresh
     closure per SYN (see Blast.start_source). *)
  let handle = ref None in
  let tick () =
    if Engine.now engine < until then begin
      (* A fresh spoofed (address, port) pair per SYN: every request looks
         like a new connection. *)
      let src = spoof_base + (t.sent mod 4096) in
      let src_port = 1024 + (t.sent mod 60_000) in
      ignore
        (Nic.transmit_row nic
           (Parena.tcp (Nic.pool nic) ~src ~dst:dip ~src_port ~dst_port:dport
              ~seq:0 ~ack_no:0 ~flags:Packet.flags_syn ~window:16_384
              Packet.empty_payload));
      t.sent <- t.sent + 1;
      match !handle with
      | Some h -> Engine.reschedule_after engine h ~delay:interval
      | None -> ()
    end
  in
  handle := Some (Engine.schedule_after engine ~delay:interval tick);
  t
