(** Figure 4: latency under concurrent load.

    A client ping-pongs a short UDP message with a server process on
    machine B while machine C blasts UDP packets at a separate blast-server
    process on B.  Both machines in the ping-pong exchange run a nice +20
    compute-bound background process (the paper's workaround for a SunOS
    idle-loop anomaly; here it keeps the comparison honest the same way).

    Paper shapes: BSD's RTT rises steeply (hardware+software interrupt per
    background packet, ~60 us) with a scheduling-induced hump peaking
    ~1020 us near 6-7k pkts/s, and cannot be measured beyond 15k pkts/s
    because probes die at the shared IP queue; SOFT-LRP rises gently
    (~25 us interrupt incl. demux, hump ≤ ~750 us); NI-LRP is nearly
    flat.  LRP never loses a probe (traffic separation). *)

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
  ?quick:bool -> ?rates:float list -> ?jobs:int -> ?seed:int -> unit ->
  row list
(** [jobs] fans the (system, rate) grid out over that many domains;
    results are identical for any [jobs]. *)

val print : row list -> unit
