(** Table 2: synthetic RPC server workload.

    Measures throughput and fairness without overload: a memory-bound
    worker (11.5 s of CPU) completes alongside two RPC server processes
    driven at their maximal rate.  Paper results: the worker finishes in
    49.7/38.7/34.6 s (Fast case, BSD/SOFT-LRP/NI-LRP) while the RPC rate is
    equal or better under LRP; the worker's CPU share is 23-26 % under BSD
    versus 29-33 % (near the ideal 1/3) under LRP, showing BSD's
    mis-accounting penalises the compute-bound process. *)

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
