(** Measurement helpers for the experiment harnesses. *)

(** Streaming mean / min / max / stddev. *)

module Summary :
  sig
    type t = {
      mutable n : int;
      mutable sum : float;
      mutable sumsq : float;
      mutable min : float;
      mutable max : float;
    }
    val create : unit -> t
    val add : t -> float -> unit
    val count : t -> int
    val mean : t -> float
    val minimum : t -> float
    val maximum : t -> float
    val stddev : t -> float
  end
(** Sample store with percentiles (used for latency distributions).

    Backed by a growable array with a cached sort: the first percentile
    query after a batch of [add]s sorts once; later queries are O(1).
    [percentile], [median] and [mean] return [nan] on an empty store
    (e.g. a probe whose packets were all lost) rather than raising;
    with a single sample they return that sample. *)

module Samples :
  sig
    type t
    val create : unit -> t
    val add : t -> float -> unit
    val count : t -> int
    val percentile : t -> float -> float
    val median : t -> float
    val mean : t -> float
  end
(** Windowed event-rate meter. *)

module Rate :
  sig
    type t = {
      mutable count : int;
      mutable window_start : float;
      mutable last_rate : float;
    }
    val create : unit -> t
    val mark : t -> unit
    val rate : t -> now:float -> float
    val total_since_reset : t -> int
  end
val mbps : bytes:int -> us:float -> float
(** Megabits per second from a byte count over a duration. *)

val pps : packets:int -> us:float -> float
