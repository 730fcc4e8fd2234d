(** Packed flight recorder: SoA ring storage for trace events.

    The zero-allocation storage behind every {!Trace} tracer.  Each event
    is four fixed-width words spread over parallel ring columns — int
    kind, flat float timestamp, int ident, and one int packing the
    event's two small arguments ([a]/[b], each 31 bits with a [-1]
    sentinel, packed the way Chantab packs flow keys).  {!record} performs four array stores and no
    allocation; the timestamp is copied from the owner's 1-slot clock
    array ({!Lrp_engine.Engine.clock_cell} for simulations), avoiding the
    boxed float a [unit -> float] clock closure would allocate per read.

    This module is pure storage plus codec: kind codes and their mapping
    to {!Trace.event} are owned by {!Trace} ([Trace.events_of_precorder]
    decodes losslessly), keeping the layering one-directional. *)

type t

val create : ?capacity:int -> clock:float array -> unit -> t
(** [create ~clock ()] makes a recorder holding up to [capacity] (default
    65536) events; older events are overwritten once full.  [clock] is the
    owner's 1-slot time array; slot 0 is read at each {!record}.  Columns
    are allocated lazily on the first recorded event. *)

val length : t -> int

val dropped : t -> int
(** Events overwritten because the ring was full. *)

val recorded : t -> int
(** Total events ever recorded (monotone; sequence numbers come from it). *)

val record : t -> kind:int -> ident:int -> a:int -> b:int -> unit
(** Append one event stamped with the current clock value.  [a] and [b]
    must lie in [[-1, 2{^31} - 2]]; out-of-range values are truncated by
    the packing.  Allocation-free after the first call. *)

val arg_max : int
(** Largest representable argument value. *)

val intern : t -> string -> int
(** Intern a string (interrupt label, note text) and return its id.
    Allocation-free once the string has been seen. *)

val get_string : t -> int -> string
(** The string for an interned id; ["?"] for unknown ids. *)

val iter :
  t ->
  (ts:float -> seq:int -> kind:int -> ident:int -> a:int -> b:int -> unit) ->
  unit
(** Visit surviving events oldest-first with reconstructed sequence
    numbers ([recorded t - length t] onward). *)

(** {1 Binary dump}

    Fixed-width little-endian int64 words: an 8-byte magic ["LRPREC02"],
    the [count]/[recorded]/[dropped]/string-table sizes, the interned
    strings (length-prefixed, zero-padded to 8-byte words), then four
    words per event — kind, [Int64.bits_of_float] timestamp, ident,
    packed argument.  The CI fuzz job uploads these dumps on failure;
    {!read_dump} + [Trace.events_of_precorder] recover the typed events. *)

val dump_to_buffer : Buffer.t -> t -> unit
val write_dump : t -> string -> unit

val of_string : string -> (t, string) result
(** Parse a dump; the error string includes the failing byte offset.
    A dump of another format version (["LRPREC01"]), a header claiming
    more records than the bytes that follow, or a record whose kind code
    is not one {!Trace} defines, is an [Error]. *)

val read_dump : string -> (t, string) result
