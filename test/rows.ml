(* Test-side views of frame-pool rows. *)

open Lrp_net

(* The datagram a UDP row carries (a fragment's whole datagram), every
   field read from the row's own columns, its carried checksum too. *)
let to_udp pool h =
  if Parena.proto pool h <> Parena.Udp then invalid_arg "Rows.to_udp";
  { Packet.src = Parena.src pool h; dst = Parena.dst pool h;
    ident = Parena.ident pool h; csum = Parena.csum pool h;
    sport = Parena.sport pool h; dport = Parena.dport pool h;
    payload = Parena.payload pool h }
