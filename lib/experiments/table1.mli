(** Table 1: baseline round-trip latency and throughput.

    Shows that LRP's overload robustness costs nothing at low load; the
    paper's shapes are {!claims}. *)

type row = {
  system : Common.system;
  rtt_us : float;
  udp_mbps : float;
  tcp_mbps : float;
}
val run : ?quick:bool -> ?jobs:int -> ?seed:int -> unit -> row list
(** [jobs] fans the (system, metric) cells out over that many domains;
    results are identical for any [jobs]. *)

val print : row list -> unit

val claims : row list -> Common.claim list
(** The paper's Table 1 shapes, evaluated on [rows]; each paper value is
    the same claim evaluated on the paper's own table. *)
