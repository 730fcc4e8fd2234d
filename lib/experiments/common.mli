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

val regroup : 'g list -> ('g * 'p) list -> ('g * 'p list) list
(** Regroup a flattened sweep back into per-group rows, preserving
    order. *)

val printf : ('a, out_channel, unit) format -> 'a
(** The experiment layer's single stdout sink (lint rule P1): all report
    rendering goes through here. *)

val print_title : string -> unit
val print_series :
  xlabel:string ->
  ylabel:string -> ymax:float -> (float * float) list -> unit
