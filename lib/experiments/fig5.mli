(** Figure 5: HTTP server throughput under a SYN flood.

    Eight closed-loop HTTP clients saturate an NCSA-style process-per-
    request HTTP server while a third machine floods a dummy port on the
    server with TCP connection-establishment requests from spoofed
    addresses.  TIME_WAIT is shortened to 500 ms, as in the paper, to keep
    the PCB tables out of the picture.  The paper's shapes are
    {!claims}. *)

type point = {
  syn_rate : float;
  http_per_sec : float;
  failed : int;
  syn_discards : int;
}
type row = { system : Common.system; points : point list; }
val run :
  ?quick:bool -> ?jobs:int -> ?seed:int -> unit -> row list
(** [jobs] fans the (system, rate) grid out over that many domains;
    results are identical for any [jobs]. *)

val print : row list -> unit

val claims : row list -> Common.claim list
(** The paper's Figure 5 shapes, evaluated on [rows]. *)
