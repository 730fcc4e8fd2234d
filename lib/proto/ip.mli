(** IP fragmentation and reassembly. *)

val fragment : Lrp_net.Packet.t -> mtu:int -> Lrp_net.Packet.t list
(** Split a datagram into MTU-sized fragments with 8-byte-aligned wire
    offsets; returns the packet unchanged when it fits.
    @raise Invalid_argument on nested fragments or an MTU smaller than the
    headers. *)

(** Reassembly table, keyed by (source, IP ident).  [insert] returns the
    whole datagram when the last missing piece arrives; [prune] expires
    incomplete datagrams older than the timeout (ip_slowtimo). *)

module Reasm :
  sig
    type pending = {
      whole : Lrp_net.Packet.t;
      mutable have : (int * int) list;
      mutable total : int option;
      mutable first_seen : float;
    }
    type t = {
      table : (Lrp_net.Packet.ip * int, pending) Hashtbl.t;
      timeout : float;
      mutable completed : int;
      mutable timed_out : int;
    }
    val create : ?timeout:float -> unit -> t
    val insert :
      t -> now:float -> Lrp_net.Packet.t -> Lrp_net.Packet.t option
    (** Record a fragment; [Some whole] on completion.  Non-fragments pass
        straight through. *)

    val prune : t -> now:float -> int
    val pending_count : t -> int
    val completed : t -> int
    val timed_out : t -> int
  end
