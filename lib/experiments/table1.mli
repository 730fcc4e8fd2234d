(** Table 1: baseline round-trip latency and throughput.

    Demonstrates that LRP's overload robustness costs nothing at low load:
    RTT and UDP/TCP throughput are on par with 4.4BSD, and the SunOS/Fore
    profile trails on latency and UDP bandwidth.

    Paper values (SunOS/Fore, 4.4BSD, NI-LRP, SOFT-LRP):
    RTT 1006/855/840/864 us; UDP 64/82/92/86 Mbit/s; TCP 63/69/67/66. *)

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
