(** Compute-bound background process.

    The paper runs low-priority (nice +20) infinite-loop processes during
    the latency experiments to keep the CPU out of the idle loop (working
    around a SunOS dispatch anomaly); the same trick keeps our comparisons
    clean, and spinners double as victims for fairness measurements. *)

open Lrp_sim

let start cpu ?(nice = 20) ?(name = "spinner") () =
  Cpu.spawn cpu ~nice ~name (fun _self ->
      let rec loop () =
        (Cpu.cost_cell cpu).(0) <- 1_000.;
        Cpu.compute cpu;
        loop ()
      in
      loop ())
