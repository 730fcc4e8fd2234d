(** Livelock / overload detector.

    Attach to a kernel to sample it every 10 simulated milliseconds and
    classify each window from counters the kernel already maintains:

    - {b overload} — offered load was substantial (at least 20 frames)
      but delivered work (UDP datagrams + TCP segments + forwarded
      packets) fell below half of it.  Any load-shedding architecture
      triggers this, including LRP early discard doing its job;
    - {b livelock} — an overloaded window whose interrupt-level CPU
      share (hard + soft) was at least 0.8.  Only the eager
      architectures exhibit this; it is the detector's BSD-vs-LRP
      discriminator;
    - {b starvation} — substantial offered load while process-context
      work (ledger [App] + [Proto]) got at most 5% of the window.

    Each verdict (and each new queue high-watermark) is emitted into
    the kernel's tracer as an {!Lrp_trace.Trace.Alarm} event, so the
    flight recorder shows when the collapse began. *)

type report = {
  mutable samples : int;
  mutable judged : int;  (** windows with at least 20 frames offered *)
  mutable overload_windows : int;
  mutable livelock_windows : int;
  mutable starved_windows : int;
  mutable peak_offered : int;
  mutable worst_delivery : float;
      (** min delivered/offered over judged windows ([1.] if none) *)
  mutable peak_intr_share : float;
  mutable peak_poll_share : float;
      (** max NAPI-poll share (ledger [Poll]) over judged windows.  The
          NAPI-vs-BSD discriminator: a budgeted NAPI kernel under
          overload defers polling to ksoftirqd (process context), so its
          interrupt share stays under 0.8 while this field
          shows where the cycles went; a pathological budget keeps the
          poll cycles at softirq level and livelock fires as for BSD. *)
  mutable ipq_hwm : int;
  mutable chan_hwm : int;
  mutable sock_hwm : int;
}

type t

val attach : Lrp_kernel.Kernel.t -> t
(** Install the periodic sampler on the kernel's engine.  The detector
    reads counters only; its sole simulation footprint is one timer
    event per window. *)

val detach : t -> unit
(** Cancel the sampling event. *)

val report : t -> report

val pp_report : Format.formatter -> report -> unit
