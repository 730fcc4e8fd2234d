(** Ablations of LRP's individual design choices.

    The paper argues (section 3) that early demultiplexing and lazy
    processing are {e both} necessary, and that the combination of early
    discard and receiver-priority accounting is what yields stability and
    fairness.  Each ablation here removes one ingredient:

    - {!discard}: LRP with effectively unbounded channel queues — overload
      is absorbed into memory instead of shed at the NI, so queues (and
      delivery staleness) grow without bound while throughput is unchanged;
    - {!accounting}: LRP whose APP threads charge themselves instead of the
      owning process — the network-intensive process effectively receives
      two scheduler shares and a compute-bound bystander is squeezed;
    - {!demux_cost}: SOFT-LRP's residual vulnerability — its livelock is
      postponed, not eliminated, and arrives sooner the more each
      interrupt-time classification costs.

    Each has its claims ([discard_claims], [accounting_claims],
    [demux_claims]). *)

type discard_row = {
  bounded : bool;
  delivered : float;
  discards : int;
  backlog : int;
  queue_delay_ms : float;
}
val discard : ?jobs:int -> ?seed:int -> unit -> discard_row list
val print_discard : discard_row list -> unit
val discard_claims : discard_row list -> Common.claim list
type accounting_row = {
  fair : bool;
  hog_progress : float;
  receiver_share : float;
  receiver_billed : float;
}
val accounting : ?jobs:int -> ?seed:int -> unit -> accounting_row list
val print_accounting : accounting_row list -> unit
val accounting_claims : accounting_row list -> Common.claim list
type demux_row = { demux_us : float; delivered : float; }
val demux_cost : ?jobs:int -> ?seed:int -> unit -> demux_row list
val print_demux_cost : demux_row list -> unit
val demux_claims : demux_row list -> Common.claim list
