(** Mbuf pool model.

    BSD stores packets in fixed-size mbufs drawn from a global pool; the
    shared pool is one of the resources that traffic bursts for one socket
    can exhaust to the detriment of others (paper section 2.2).  We model
    the pool by counting: a packet of [n] bytes needs
    [ceil (n / 128)] mbufs (minimum 1).  The pool keeps only its
    counters; which frame holds how many mbufs is recorded on the frame's
    {!Parena} row, so the count returned is always the count taken. *)

type t
val create : capacity:int -> unit -> t

val mbufs_for : int -> int
(** Mbufs a frame of this many wire bytes needs. *)

val take : t -> int -> bool
(** Reserve [n] mbufs; [false] (nothing reserved) when the pool cannot
    cover them. *)

val give : t -> int -> unit
(** Return [n] mbufs.  @raise Invalid_argument on over-free. *)

val in_use : t -> int
val peak : t -> int
