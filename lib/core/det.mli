(** Deterministic (sorted-key) iteration over [Hashtbl.t].

    Unordered [Hashtbl.iter]/[fold]/[to_seq] are banned outside this module
    (lint rule D2): any result that can reach output must be derived in a
    reproducible order.  All helpers snapshot the table first, so the
    callback may freely add or remove bindings. *)

val bindings : ('k, 'v) Hashtbl.t -> ('k * 'v) list
(** All bindings sorted by key with [Stdlib.compare] (keys in this repo
    are ints, strings or tuples of those).  Duplicate-key bindings keep
    most-recent-first order. *)

val iter_sorted : ('k -> 'v -> unit) -> ('k, 'v) Hashtbl.t -> unit
(** [iter_sorted f tbl] applies [f] to every binding in ascending key
    order. *)

(** {1 Int tables}

    The same helpers over {!Itab.t}: bindings in ascending key order,
    snapshotted first. *)

val sorted_keys_int : 'v Itab.t -> int list

val iter_sorted_int : (int -> 'v -> unit) -> 'v Itab.t -> unit

val fold_sorted_int : (int -> 'v -> 'acc -> 'acc) -> 'v Itab.t -> 'acc -> 'acc
