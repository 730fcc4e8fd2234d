(** Shared pieces of the experiment harnesses. *)

type system =
  | Sunos_fore
  | Bsd
  | Ni_lrp
  | Soft_lrp
  | Early_demux
  | Napi
  | Napi_gro
  | Rss

val system_name : system -> string
val config_of_system :
  ?tune:(Lrp_kernel.Kernel.config -> Lrp_kernel.Kernel.config) ->
  system -> Lrp_kernel.Kernel.config
val table1_systems : system list
val fig3_systems : system list

val modern_systems : system list
(** All seven receive architectures of the modern comparison: the four
    paper systems plus NAPI, NAPI-GRO and RSS. *)

val fig4_systems : system list
val table2_systems : system list
val fig5_systems : system list

val default_seed : int
(** Root seed of every experiment sweep (42, as everywhere else). *)

val job_seed : seed:int -> index:int -> int
(** Derive the engine seed of sweep job [index] from the root [seed]
    ({!Lrp_engine.Rng.split_seed}): deterministic whatever the pool size. *)

val sweep : jobs:int -> (int -> 'a -> 'b) -> 'a list -> 'b list
(** [sweep ~jobs f items] maps [f index item] over [items] on [jobs]
    domains ([1] = inline sequential), results in submission order. *)

val grid :
  jobs:int -> seed:int -> 'o list -> 'x list ->
  (seed:int -> 'o -> 'x -> 'r) -> ('o * 'r list) list
(** [grid ~jobs ~seed outer inner measure] runs [measure ~seed o x] for
    every cell of [outer] x [inner] (outer-major) as one {!sweep}, each
    cell seeded by {!job_seed} of its index, and regroups the results per
    element of [outer]. *)

val printf : ('a, out_channel, unit) format -> 'a
(** The experiment layer's single stdout sink (lint rule P1): all report
    rendering goes through here. *)

val print_title : string -> unit

(** A paper claim evaluated on the rows that measure it: an id
    ([experiment.claim]), the paper's sentence with the band checked,
    the paper's value where it gives one ([nan] where it does not), the
    measured value and whether the band holds. *)
type claim = {
  id : string;
  text : string;
  paper : float;
  measured : float;
  holds : bool;
}

val claim : ?paper:float -> string -> string -> float -> bool -> claim

val pick : ('a -> float) -> ('a -> bool) -> 'a list -> float
(** [pick f p xs] is [f] of the first element of [xs] satisfying [p], or
    [nan] if none does: a claim made on a missing row fails. *)

val with_paper : claim list -> claim list -> claim list
(** [with_paper claims paper_claims] sets each claim's paper value to the
    [measured] of the claim with the same id in [paper_claims] (the same
    claims evaluated on the paper's own rows). *)

val print_claims : claim list -> unit
(** The claims table, one line per claim ([ok] or [FAIL]). *)
