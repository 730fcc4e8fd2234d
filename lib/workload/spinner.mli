(** Compute-bound background process.

    The paper runs low-priority (nice +20) infinite-loop processes during
    the latency experiments to keep the CPU out of the idle loop (working
    around a SunOS dispatch anomaly); the same trick keeps our comparisons
    clean, and spinners double as victims for fairness measurements. *)

val start :
  Lrp_sim.Cpu.t ->
  ?nice:int -> ?name:string -> unit -> Lrp_sim.Proc.t
