(** Mbuf pool model.

    BSD stores packets in fixed-size mbufs drawn from a global pool; the
    shared pool is one of the resources that traffic bursts for one socket
    can exhaust to the detriment of others (paper section 2.2).  We model
    the pool by counting: a packet of [n] bytes consumes
    [ceil (n / mbuf_size)] mbufs (minimum 1) until it is freed. *)

(** The pool; a packet of [n] bytes consumes [ceil (n / mbuf_size)]
    mbufs (minimum 1) until freed. *)

type t
val create : ?mbuf_size:int -> capacity:int -> unit -> t
val alloc : t -> bytes:int -> bool
(** Reserve mbufs for a packet; [false] (and a counted failure) when the
    pool cannot cover the request. *)

val free : t -> bytes:int -> unit
(** Release a packet's mbufs.  @raise Invalid_argument on over-free. *)

(** {1 Handle-based reservations}

    A reservation can be held as a generation-checked handle whose slot
    remembers the mbuf count, so the free site needs no byte
    recomputation and cannot drift from the alloc site.  Stale handles
    (double free, use-after-free) raise. *)

type handle = int

val no_handle : handle
(** Never valid. *)

val alloc_h : t -> bytes:int -> handle
(** {!alloc} returning a handle, or [no_handle] on pool exhaustion (the
    failure is counted). *)

val free_h : t -> handle -> unit
(** Release a handle's reservation and invalidate the handle.
    @raise Invalid_argument on a stale handle. *)

val in_use : t -> int
val peak : t -> int
val failures : t -> int
