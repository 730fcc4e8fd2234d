(** A free list of released records: a stack, newest on top, grown by
    doubling.  Taking from an empty pool returns its [blank], and the
    caller makes a record instead and counts it ({!count_made}), so the
    pool knows how many of its records are live. *)

type 'a t

val create : 'a -> 'a t
(** [create blank]: an empty pool whose empty slots hold [blank]. *)

val take : 'a t -> 'a
(** The newest spare record, or [blank] when there is none.
    Allocation-free. *)

val give : 'a t -> 'a -> unit
(** Put a released record back.  Allocates only to grow the stack. *)

val count_made : 'a t -> unit
(** Count a record made for the pool because {!take} found none. *)

val live : 'a t -> int
(** Records made for the pool and not in it now. *)

val spare : 'a t -> int
(** Records in the pool now. *)
