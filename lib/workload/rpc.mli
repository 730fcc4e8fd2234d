(** Synthetic RPC server workload (Table 2).

    Three processes run on the server machine:

    - the {e worker}: performs an 11.5-CPU-second memory-bound computation
      in response to a single RPC; its working set covers a significant
      fraction of the L2 cache (modelled as a cache-reload penalty on every
      context switch onto the CPU);
    - two {e RPC servers}: short per-request computations ("Fast" /
      "Medium" / "Slow" variants).

    A client machine keeps several requests outstanding at each RPC server,
    spread uniformly in time so request arrival is uncorrelated with server
    scheduling (paper section 4.2).  Requests ride on UDP, like the paper's
    RPC facility. *)

type cls = Fast | Medium | Slow
val cls_name : cls -> string
type result = {
  mutable worker_started : float;
  mutable worker_finished : float option;
  mutable rpcs_completed : int;
  mutable window_rpcs : int;
  worker_cpu : float;
}
val run :
  World.t ->
  server:Lrp_kernel.Kernel.t ->
  client:Lrp_kernel.Kernel.t ->
  cls:cls ->
  ?worker_cpu:float -> unit -> result
val worker_elapsed : result -> float
val rpc_rate : result -> float
val worker_share : result -> float
