(** Modern receiver back-ends versus the paper's architectures.

    - {!run}: the Figure-3 UDP blast over all seven architectures
      (4.4BSD, NI-LRP, SOFT-LRP, Early-Demux, NAPI, NAPI-GRO, RSS);
    - {!run_reorder}: sweep the NIC's interrupt-coalescing hold-off on
      a multi-queue RSS kernel and count cross-flow arrival → delivery
      order inversions from the flight recorder, with and without
      wire-level reordering injected by the fault fabric.

    The shapes both show are {!claims}. *)

type row = Fig3.row = { system : Common.system; points : Fig3.point list }

val run : ?quick:bool -> ?jobs:int -> ?seed:int -> unit -> row list

type reorder_point = {
  coalesce_us : float;    (** NIC hold-off swept *)
  fabric_faults : bool;   (** wire-level reorder injected too? *)
  observed : int;         (** packets seen at NIC and at the socket *)
  inversions : int;       (** arrival-order → delivery-order inversions *)
  per_kpkt : float;       (** inversions per 1000 observed packets *)
}

val count_inversions : int array -> int
(** Number of pairs [i < j] with [a.(i) > a.(j)] (mergesort count; the
    array is sorted in place).  Exposed for the test suite. *)

val run_reorder :
  ?quick:bool -> ?jobs:int -> ?seed:int -> unit -> reorder_point list

val print : row list -> unit
val print_reorder : reorder_point list -> unit

val claims : row list -> reorder_point list -> Common.claim list
(** The comparison's shapes, evaluated on the throughput rows and the
    reorder sweep. *)
