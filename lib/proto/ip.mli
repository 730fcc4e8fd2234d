(** IP fragmentation and reassembly. *)

val fragment :
  Lrp_net.Parena.t -> Lrp_net.Parena.handle -> mtu:int ->
  Lrp_net.Parena.handle list
(** Split the datagram in a row into MTU-sized fragment rows with
    8-byte-aligned wire offsets, releasing the datagram's row; returns
    [[row]] unchanged when it fits.
    @raise Invalid_argument on nested fragments or an MTU smaller than the
    headers. *)

(** Reassembly table, keyed by (source, IP ident), over received frames'
    {!Lrp_net.Parena} rows.  A pending datagram is one row: the first
    fragment's, into which each later fragment's row is folded
    ({!Lrp_net.Parena.absorb}), so its mbuf charge is the sum of its
    pieces'.  A fragment's row already holds its whole datagram, so
    [insert] hands that row on, its fragment mark cleared,
    when the last missing piece arrives; [prune] expires incomplete
    datagrams older than the timeout (ip_slowtimo) and hands their rows
    back to be released; the caller counts them. *)

module Reasm :
  sig
    type t
    val create : ?timeout:float -> Lrp_net.Parena.t -> t
    val insert : t -> now:float -> Lrp_net.Parena.handle -> Lrp_net.Parena.handle
    (** Record the fragment held in the row; the datagram's row on
        completion, [Lrp_net.Parena.none] otherwise.  A non-fragment's row
        passes straight through. *)

    val prune :
      t -> now:float -> release:(Lrp_net.Parena.handle -> unit) -> int
    (** Forget the datagrams pending longer than the timeout, passing each
        one's row to [release]; returns how many. *)

    val pending_count : t -> int
    val completed : t -> int
  end
