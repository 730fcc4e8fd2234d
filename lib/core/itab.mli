(** Open-addressing table over int keys.

    The monomorphic replacement for an [(int, 'a) Hashtbl.t] on a hot
    path: keys and values live in two parallel columns, a probe is an
    integer multiply plus a short linear scan of inline int compares —
    no closure call for hashing or equality, no [caml_hash], no bucket
    list.  At most half the slots are used; deletion shifts the probe
    cluster back (no tombstones).

    Iteration is in slot order, a function of the insert/remove history,
    so the unordered {!fold} is reserved for {!Det}: everywhere else, use
    [Det.iter_sorted_int] and its siblings (lint rule D2). *)

type 'a t

val create : int -> 'a t
(** [create n] makes an empty table of about [n] slots (at least 8),
    room for half as many bindings; it grows by doubling. *)

val length : 'a t -> int

val find : 'a t -> int -> int
(** The slot holding the key, or [-1].  Allocation-free; read the value
    with {!value}.  A slot is valid until the next mutation. *)

val value : 'a t -> int -> 'a
(** The value in a slot returned by {!find}. *)

val mem : 'a t -> int -> bool

val find_opt : 'a t -> int -> 'a option
(** Allocating convenience over {!find}/{!value} for cold paths. *)

val replace : 'a t -> int -> 'a -> unit
(** Bind the key, replacing any previous binding.
    @raise Invalid_argument for [min_int], the table's empty marker. *)

val remove : 'a t -> int -> unit
(** Unbind the key; nothing happens when it is absent. *)

val fold : (int -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
(** Slot-order fold, for {!Det}'s sorted helpers only (rule D2). *)
