(** Figure 4: latency under concurrent load.

    A client ping-pongs a short UDP message with a server process on
    machine B while machine C blasts UDP packets at a separate blast-server
    process on B.  Both machines in the ping-pong exchange run a nice +20
    compute-bound background process (the paper's workaround for a SunOS
    idle-loop anomaly; here it keeps the comparison honest the same way).
    The paper's shapes are {!claims}. *)

type point = {
  bg_rate : float;   (* background blast, pkts/s *)
  rtt_us : float;    (* median probe RTT *)
  rtt_mean : float;
  rtt_p99 : float;
  probes : int;
  lost : int;        (* probes lost (BSD's IP-queue drops) *)
}
type row = { system : Common.system; points : point list; }
val run :
  ?quick:bool -> ?jobs:int -> ?seed:int -> unit -> row list
(** [jobs] fans the (system, rate) grid out over that many domains;
    results are identical for any [jobs]. *)

val print : row list -> unit

val claims : row list -> Common.claim list
(** The paper's Figure 4 shapes, evaluated on [rows]. *)
