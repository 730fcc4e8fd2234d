(** Structured packet-lifecycle and scheduler tracing.

    One tracer per simulated kernel, backed by a {!Precorder} flight
    recorder: a bounded SoA ring where each event is four words, stamped
    with the owning engine's virtual time and a monotonically increasing
    sequence number.  {!events} decodes the ring back to typed events for
    the sinks.  There is deliberately no global tracer — parallel sweeps
    run one simulation per domain, and every kernel records only into its
    own ring, so tracing can never perturb results or race across domains.

    Every emitter takes immediate arguments and checks {!enabled} (plus
    the event-class filter) first, so a disabled tracer costs one branch
    per call site; an enabled one writes four words and allocates nothing
    (notes aside: their text is formatted and interned).
    The ring's columns are only allocated on the first recorded event. *)

type t

type intr_level = Hard | Soft

type thread_state = Spawned | Runnable | Sleeping | Exited

(** Overload-detector alarm kinds (see {!Lrp_check.Overload}): sliding
    windows where delivered throughput collapsed against offered load
    ([Overload]), with the CPU additionally saturated at interrupt level
    ([Livelock]) or user progress starved ([Starvation]); queue
    high-watermark reports ([Queue_watermark]). *)
type alarm = Overload | Livelock | Starvation | Queue_watermark

(** Where a host discards a received packet (DESIGN.md §13 has the
    table, with each reason's [arg]):
    - [Nic_ring]: a full NIC receive ring ([arg] = its length);
    - [Mbuf_pool]: the mbuf pool is exhausted;
    - [Ip_queue]: BSD's shared IP queue is full ([arg] = its length);
    - [Ni_channel]: early discard at a full or disabled NI channel
      ([arg] = the channel);
    - [Edemux_discard]: Early-Demux's interrupt-time discard at a full
      receiver;
    - [Sock_buf]: a full socket queue ([arg] = the socket);
    - [Sock_close]: still queued when its socket closed ([arg] = the
      socket);
    - [Checksum]: content checksum mismatch;
    - [No_port]: no datagram endpoint after eager processing;
    - [Demux_miss]: no endpoint at LRP demux time;
    - [Not_forwarding]: in transit on a host that does not forward;
    - [Wrong_peer]: refused by a connected datagram socket ([arg] = the
      socket);
    - [Reasm_timeout]: an incomplete datagram expired in reassembly. *)
type reason =
  | Nic_ring | Mbuf_pool | Ip_queue | Ni_channel | Edemux_discard | Sock_buf
  | Sock_close | Checksum | No_port | Demux_miss | Not_forwarding | Wrong_peer
  | Reasm_timeout

(** Packet lifecycle events carry the packet's IP ident ([pkt]); [chan],
    [conn] and [sock] are channel / connection / socket ids, [-1] when not
    applicable. *)
type event =
  | Nic_rx of { pkt : int; bytes : int }
  | Demux of { pkt : int; chan : int; flow : int }
  | Ipq_enqueue of { pkt : int; qlen : int }
  | Drop of { pkt : int; reason : reason; arg : int }
      (** The host discarded the packet; [arg] is [-1] or what [reason]
          names. *)
  | Softint_begin of { pkt : int }
  | Softint_end of { pkt : int }
  | Proto_deliver of { pkt : int; conn : int; in_proc : bool }
  | Sock_enqueue of { pkt : int; sock : int }
  | Syscall_copyout of { pkt : int; sock : int; bytes : int }
  | Intr_enter of { level : intr_level; label : string }
  | Intr_exit of { level : intr_level; label : string }
  | Ctx_switch of { from_pid : int; to_pid : int }
  | Thread_state of { pid : int; state : thread_state }
  | Note of string
  | Alarm of { alarm : alarm; a : int; b : int }
      (** Structured detector alarm.  For [Overload]/[Livelock]: [a] =
          offered packets in the window, [b] = delivered (or for
          [Livelock], interrupt CPU share in percent).  For [Starvation]:
          [a] = user CPU share in percent, [b] = interrupt share in
          percent.  For [Queue_watermark]: [a] = queue code (0 = shared IP
          queue, 1 = channel, 2 = socket), [b] = high-watermark. *)
  | Poll_begin of { q : int; pending : int }
      (** A NAPI poll round starts on NIC queue [q] with [pending] packets
          waiting in its ring. *)
  | Poll_end of { q : int; served : int }
      (** The poll round on queue [q] ends having dequeued [served]
          packets (served < budget means the ring drained and the queue's
          interrupt was re-enabled). *)
  | Coalesce_fire of { q : int; pending : int }
      (** The NIC's interrupt-coalescing threshold (packet count or
          timer) fired for queue [q] and raised an interrupt covering
          [pending] buffered packets. *)
  | Gro_merge of { pkt : int; into : int }
      (** Receive-offload aggregation absorbed segment [pkt] into the
          held super-segment whose ident is [into]; [pkt] terminates here
          (its bytes travel on in [into]). *)
  | Gro_flush of { pkt : int; segs : int }
      (** The held super-segment [pkt], made of [segs] wire segments,
          was handed to protocol processing. *)

(** Event classes, for filtering at record time. *)
type cls = Packet_events | Sched_events | Note_events

val create : ?capacity:int -> name:string -> clock:float array -> unit -> t
(** [create ~name ~clock ()] makes a tracer recording up to [capacity]
    (default 65536) events; older events are overwritten once full.
    Timestamps are read from [clock.(0)] (pass the owning engine's
    {!Lrp_engine.Engine.clock_cell}).  Starts disabled. *)

val null : unit -> t
(** A disabled tracer with a private one-slot clock; cheap placeholder for
    components created without a kernel. *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit

val set_filter : t -> cls list -> unit
(** Record only the given classes (default: all). *)

val recorder : t -> Precorder.t
(** The tracer's flight recorder, for binary dumps
    ({!Precorder.write_dump}). *)

val events_of_precorder : Precorder.t -> (float * int * event) list
(** Decode a packed ring (e.g. one read back from a binary dump) to typed
    events, oldest first. *)

val length : t -> int

val dropped : t -> int
(** Events overwritten because the ring was full. *)

val drops : t -> reason -> int
(** Packets {!drop}ped for the reason since the tracer was made: every
    call counts, recorded or not (disabled, filtered out, or since
    overwritten). *)

val events : t -> (float * int * event) list
(** Buffer contents, oldest first, as [(virtual-time, seq, event)]. *)

val merged_events : (int * t) list -> (int * float * int * event) list
(** Merge labelled recorder streams into one timeline as
    [(stream, virtual-time, seq, event)], ordered by (time, stream, seq)
    with an explicit field-by-field comparator — a total order, so the
    merged dump of a sharded run is byte-identical at any shard count. *)

(* --- emitters (no-ops unless enabled and class passes the filter) ------ *)

val nic_rx : t -> pkt:int -> bytes:int -> unit
val demux : t -> pkt:int -> chan:int -> flow:int -> unit
val ipq_enqueue : t -> pkt:int -> qlen:int -> unit
val drop : t -> reason:reason -> pkt:int -> arg:int -> unit
(** Count a drop in {!drops} and, like every emitter, record it when
    enabled. *)

val softint_begin : t -> pkt:int -> unit
val softint_end : t -> pkt:int -> unit
val proto_deliver : t -> pkt:int -> conn:int -> in_proc:bool -> unit
val sock_enqueue : t -> pkt:int -> sock:int -> unit
val syscall_copyout : t -> pkt:int -> sock:int -> bytes:int -> unit
val intr_enter : t -> level:intr_level -> label:string -> unit
val intr_exit : t -> level:intr_level -> label:string -> unit
val ctx_switch : t -> from_pid:int -> to_pid:int -> unit
val thread_state : t -> pid:int -> state:thread_state -> unit
val alarm : t -> alarm:alarm -> a:int -> b:int -> unit
val poll_begin : t -> q:int -> pending:int -> unit
val poll_end : t -> q:int -> served:int -> unit
val coalesce_fire : t -> q:int -> pending:int -> unit
val gro_merge : t -> pkt:int -> into:int -> unit
val gro_flush : t -> pkt:int -> segs:int -> unit
val note : t -> string -> unit

val notef : t -> ('a, unit, string, unit) format4 -> 'a
(** Formatted {!note}.  When the tracer is disabled the format arguments
    are consumed without building the string. *)

(* --- sinks ------------------------------------------------------------- *)

val pp_event : Format.formatter -> event -> unit

val to_text : Buffer.t -> t -> unit
(** Human-readable dump, one event per line. *)

val to_csv : Buffer.t -> t -> unit
(** [seq,ts_us,class,event,pkt,a,b,detail] rows with a header line. *)

val to_chrome : Buffer.t -> t -> unit
(** Chrome [trace_event] document ({["{\"traceEvents\": [...]}"]}),
    loadable in Perfetto / about://tracing.  Interrupt activity becomes
    duration ("B"/"E") slices and lifecycle events instants, spread over
    one track per CPU context (nic / hardintr / softintr / process) plus
    one per channel and per socket. *)

val write_file : t -> format:[ `Chrome | `Csv | `Text ] -> string -> unit

(* --- per-packet stage-latency breakdown -------------------------------- *)

module Report : sig
  (** Reconstructs each packet's NIC-arrival → copyout timeline from the
      event stream and aggregates per-stage latency distributions:

      - ["queue-wait"]: enqueue (shared IP queue or per-channel queue) to
        the start of protocol processing;
      - ["softint-proto"]: protocol processing done in software-interrupt
        context (BSD's big term; absent under LRP);
      - ["proc-proto"]: protocol processing done in the receiver's own
        context (LRP's lazy processing; absent under BSD);
      - ["sockq-wait"]: socket queue to copyout;
      - ["total"]: NIC arrival to copyout.

      Only packets with a complete NIC-arrival → copyout timeline within
      the buffered window contribute. *)

  type t = {
    stages : (string * Lrp_stats.Stats.Samples.t) list;  (* fixed order *)
    packets : int;  (* complete packet timelines seen *)
  }

  val stage_latency : (float * int * event) list -> t

  val pp : Format.formatter -> t -> unit
end
