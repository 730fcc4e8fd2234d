(** Packet payloads.

    Most simulated traffic only needs a length, but integrity tests (and the
    TCP stream reassembly tests) want real bytes.  A payload is therefore
    either synthetic (length + tag) or concrete bytes. *)

type t = Synthetic of { len : int; tag : int; } | Bytes of Bytes.t
(** Either a synthetic payload (length + tag; cheap, used by bulk traffic)
    or concrete bytes (integrity tests).  The two views agree:
    [to_bytes] of a synthetic payload is a deterministic fill. *)

val synthetic : ?tag:int -> int -> t
val of_string : string -> t
val of_bytes : Bytes.t -> t
val length : t -> int
val tag : t -> int option
val to_bytes : t -> Bytes.t

val byte_sum : t -> int
(** Sum of the payload's byte values; O(1) for synthetic payloads.  The
    content checksums ({!Packet.udp_sum} and its siblings) mix it in, so
    corruption of any single byte is detectable. *)

val bytes_sum : Bytes.t -> int
val synthetic_sum : len:int -> tag:int -> int
(** The two cases of {!byte_sum}, for a payload kept as columns. *)

val sub : t -> int -> int -> t
(** [sub t off len] is the slice used by IP fragmentation and TCP
    segmentation.  @raise Invalid_argument when out of range. *)

val equal : t -> t -> bool
val glues : len:int -> tag:int -> int -> bool
(** [glues ~len ~tag next_tag]: a synthetic slice of [len] bytes at
    [tag] is followed by the synthetic slice at [next_tag] of the same
    payload, so the two glue into one synthetic payload. *)

val concat : t list -> t
(** Reassemble slices; consecutive synthetic slices ({!glues}) glue back
    without materialising bytes. *)

