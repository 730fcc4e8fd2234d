(** Extension (paper section 3.5): an IP gateway under a transit flood,
    forwarding between two networks while a local application runs, on
    4.4BSD (forwarding at software-interrupt priority) and SOFT-LRP (a
    forwarding daemon scheduled like any process).  The shapes are
    {!claims}. *)

type row = {
  rate : float;       (** transit pkts/s offered *)
  bsd_fwd : float;    (** forwarded per second *)
  bsd_share : float;  (** the local application's CPU share *)
  lrp_fwd : float;
  lrp_share : float;
}

val run : ?jobs:int -> ?seed:int -> unit -> row list
(** [jobs] fans the (rate, architecture) cells out over that many
    domains; results are identical for any [jobs]. *)

val print : row list -> unit

val claims : row list -> Common.claim list
(** Who starves the local application, evaluated on [rows]. *)
