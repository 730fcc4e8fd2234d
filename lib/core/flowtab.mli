(** Open-addressing flow table over packed integer keys.

    The demultiplexer's lookup structure: keys are two immediate ints
    ([hi]/[lo] — {!Chantab} documents the flow-key packing), storage is
    four parallel arrays indexed by slot, and collisions are resolved by
    robin-hood linear probing with backward-shift deletion.  A probe is
    an integer mix plus a short linear scan: no key allocation, no boxed
    hashing, no bucket-list chasing — the costs a polymorphic [Hashtbl]
    with tuple keys pays on every packet.

    Iteration is in slot order, which is a deterministic function of the
    insert/remove sequence (stdlib [Hashtbl] iteration order is not, and
    is banned from hot-path code by lint rule D2). *)

type 'a t

val create : dummy:'a -> unit -> 'a t
(** [create ~dummy ()] makes an empty table.  [dummy] fills empty value
    slots so removed entries do not pin their last value. *)

val length : 'a t -> int
(** Live entries. *)

val add : 'a t -> hi:int -> lo:int -> 'a -> unit
(** Insert, replacing the value if the key is already present. *)

val add_new : 'a t -> hi:int -> lo:int -> 'a -> unit
(** Insert a key that must not be present.
    @raise Invalid_argument on a duplicate. *)

val find : 'a t -> hi:int -> lo:int -> int
(** Slot index of the key, or [-1] when absent.  Allocation-free; read
    the value with {!value}.  The slot is valid only until the next
    mutation of the table. *)

val value : 'a t -> int -> 'a
(** Value stored in a slot returned by {!find}. *)

val find_opt : 'a t -> hi:int -> lo:int -> 'a option
(** Boxing convenience wrapper over {!find}/{!value} for cold paths. *)

val remove : 'a t -> hi:int -> lo:int -> bool
(** Delete the key (backward-shift, no tombstones); [false] when it was
    not present. *)

val iter : (hi:int -> lo:int -> 'a -> unit) -> 'a t -> unit
(** Apply to every live entry in slot order. *)

val max_probe : 'a t -> int
(** Largest probe distance currently in the table (1 = at home slot; 0 =
    empty table) — lets tests assert the robin-hood clustering bound. *)
