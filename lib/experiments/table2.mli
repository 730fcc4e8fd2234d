(** Table 2: synthetic RPC server workload.

    Measures throughput and fairness without overload: a memory-bound
    worker (11.5 s of CPU) completes alongside two RPC server processes
    driven at their maximal rate.  The paper's shapes are {!claims}. *)

type row = {
  system : Common.system;
  cls : Lrp_workload.Rpc.cls;
  worker_elapsed_s : float;
  rpcs_per_sec : float;
  worker_share : float;
}
val run : ?quick:bool -> ?jobs:int -> ?seed:int -> unit -> row list
(** [jobs] fans the (class, system) grid out over that many domains;
    results are identical for any [jobs]. *)

val print : row list -> unit

val claims : row list -> Common.claim list
(** The paper's Table 2 shapes for every RPC class in [rows]; each paper
    value is the same claim evaluated on the paper's own table. *)
