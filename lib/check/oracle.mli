(** Trace-driven invariant oracle.

    Checks conservation and ordering invariants over one kernel's
    packet-lifecycle event stream (see {!Lrp_trace.Trace}).  All per-packet
    bounds are stated against the number of NIC arrivals of that packet, so
    the oracle is sound under network-injected duplication: a kernel may
    deliver a packet twice only if the network presented it twice. *)

type verdict = {
  ok : bool;             (** no violation found (vacuously true when
                             [ring_wrapped]) *)
  ring_wrapped : bool;   (** tracer lost events; checks were skipped *)
  packets : int;         (** distinct packet idents seen arriving *)
  arrivals : int;        (** total NIC arrivals *)
  enqueued : int;        (** total socket enqueues *)
  violations : string list;  (** human-readable, empty iff [ok] *)
}

val pp_verdict : Format.formatter -> verdict -> unit

val check_tracer : ?require_demux:bool -> Lrp_trace.Trace.t -> verdict
(** [check] on the tracer's buffered events; reports
    [ring_wrapped = true] (and checks nothing) if the ring overwrote
    events, rather than raise false alarms on a truncated stream. *)
