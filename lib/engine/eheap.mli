(** Min-heap of timestamped entries with caller-ranked FIFO tie-breaking.

    The event queue of the simulator.  Entries pop in (key, seq) order:
    the engine hands every entry a monotonically increasing [seq] at
    schedule time, so entries with equal keys pop in insertion order and
    simulations stay deterministic when many events share a timestamp.

    Values are ints (the engine's packed event handles): monomorphic
    [int array] value storage compiles to plain word stores, where a
    polymorphic ['a array] would pay the [caml_modify] write barrier on
    every sift step of the hot schedule/pop cycle.

    Keys and bounds travel through a caller-owned float array [cell]
    instead of float arguments or returns, which non-flambda OCaml boxes
    at every call; with these entry points insert and pop allocate
    nothing on the steady state. *)

type t

val create : unit -> t

val length : t -> int
(** Entries currently in the heap. *)

val add_cell : t -> cell:float array -> seq:int -> int -> unit
(** [add_cell t ~cell ~seq v] inserts [v] with key [cell.(0)] and
    tie-break rank [seq]. *)

val min_into : t -> cell:float array -> default:int -> int
(** Write the smallest entry's key into [cell.(0)] and return its value,
    leaving it in the heap; [default] (cell untouched) when the heap is
    empty. *)

val top : t -> default:int -> int
(** The smallest entry's value, leaving it in the heap; [default] when
    the heap is empty.  Unlike {!min_into}, no cell is written. *)

val top_after : t -> cell:float array -> bool
(** [top_after t ~cell] holds when the heap is empty or its smallest key
    is strictly greater than [cell.(0)]. *)

val drop_top : t -> unit
(** Remove the smallest entry.  The heap must not be empty. *)

val pop_leq_into : t -> cell:float array -> default:int -> int
(** [pop_leq_into t ~cell ~default] pops the smallest entry iff its key
    is [<= cell.(1)]: key into [cell.(0)], value returned.  [default]
    (cell untouched) when the heap is empty or its minimum exceeds the
    bound. *)

val compact : t -> (int -> bool) -> unit
(** [compact t dead] removes every entry whose value [dead] accepts, in
    one pass plus a bottom-up re-heapify, and keeps the (key, seq) order
    of the rest.  [dead] is called once per entry and may release the
    state behind the values it accepts. *)
