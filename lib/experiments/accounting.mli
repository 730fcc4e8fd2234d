(** CPU-accounting ledger and overload-detector experiment.

    Table A attributes every simulated cycle of a blast-loaded server
    via {!Lrp_sim.Ledger}, contrasting BSD's interrupt-level charging
    (billed to an innocent nice +20 victim) with LRP's receiver-context
    protocol charging.  Table B runs the {!Lrp_check.Overload} detector
    across offered rates.  The shapes are {!claims}. *)

type arch_row = {
  system : Common.system;
  offered : int;
  delivered : int;
  intr_total : float;
  mischarged : float;
      (** interrupt cycles billed to some process's account, us *)
  victim_mis : float;
      (** of which: the nice +20 victim spinner's share, us *)
  receiver_proto : float;
  app_total : float;
}

type det_row = {
  d_system : Common.system;
  d_rate : float;
  d_offered : int;
  d_delivered : int;
  d_report : Lrp_check.Overload.report;
}

type result = { arch_rows : arch_row list; det_rows : det_row list }

val measure_arch :
  ?seed:int -> Common.system -> rate:float -> duration:float -> arch_row

val measure_detector :
  ?seed:int -> Common.system -> rate:float -> duration:float -> det_row

val run : ?quick:bool -> ?jobs:int -> ?seed:int -> unit -> result

val print : result -> unit

val claims : result -> Common.claim list
(** Who is charged for receive processing, and when the detector calls
    overload and livelock, evaluated on both tables. *)
