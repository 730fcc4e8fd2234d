(** Shared pieces of the experiment harnesses. *)

open Lrp_kernel

(* The systems the paper compares.  "SunOS + Fore driver" is the BSD
   architecture with the vendor driver's (slower) cost profile.  The
   Napi / Napi_gro / Rss entries are the post-paper receiver back-ends
   the "modern" comparison adds to the grid. *)
type system =
  | Sunos_fore
  | Bsd
  | Ni_lrp
  | Soft_lrp
  | Early_demux
  | Napi
  | Napi_gro
  | Rss

let arch_of_system = function
  | Sunos_fore | Bsd -> Kernel.Bsd
  | Ni_lrp -> Kernel.Ni_lrp
  | Soft_lrp -> Kernel.Soft_lrp
  | Early_demux -> Kernel.Early_demux
  | Napi -> Kernel.Napi
  | Napi_gro -> Kernel.Napi_gro
  | Rss -> Kernel.Rss

let system_name = function
  | Sunos_fore -> "SunOS/Fore"
  | sys -> Kernel.arch_name (arch_of_system sys)

let config_of_system ?(tune = fun (c : Kernel.config) -> c) sys =
  let costs =
    match sys with Sunos_fore -> Cost.sunos_fore | _ -> Cost.default
  in
  tune (Kernel.default_config ~costs (arch_of_system sys))

let table1_systems = [ Sunos_fore; Bsd; Ni_lrp; Soft_lrp ]
let fig3_systems = [ Bsd; Ni_lrp; Soft_lrp; Early_demux ]

let modern_systems =
  [ Bsd; Ni_lrp; Soft_lrp; Early_demux; Napi; Napi_gro; Rss ]
let fig4_systems = [ Bsd; Soft_lrp; Ni_lrp ]
let table2_systems = [ Bsd; Soft_lrp; Ni_lrp ]
let fig5_systems = [ Bsd; Soft_lrp ]

(* --- parallel sweeps --------------------------------------------------- *)

(* Root seed of every experiment.  Each simulation run of a sweep gets its
   own engine seeded by [job_seed]: runs are isolated (one engine, one
   world per job), so fanning the sweep out over domains cannot change any
   result — job index, not execution order, decides every stream. *)
let default_seed = 42

let job_seed ~seed ~index = Lrp_engine.Rng.split_seed ~seed ~index

(* [sweep ~jobs f items] maps [f index item] over [items] on [jobs]
   domains (1 = inline, today's sequential path), returning results in
   submission order. *)
let sweep ~jobs f items =
  Lrp_parallel.Pool.with_pool ~domains:jobs (fun p ->
      Lrp_parallel.Pool.map p
        (fun (i, x) -> f i x)
        (List.mapi (fun i x -> (i, x)) items))

(* Regroup a flattened sweep over [groups] x [cases] back into rows. *)
let regroup groups tagged =
  List.map
    (fun g ->
      (g, List.filter_map (fun (g', p) -> if g' = g then Some p else None) tagged))
    groups

(* --- plain-text rendering -------------------------------------------- *)

(* The experiment layer's one stdout sink: every figure/table renderer
   prints through here, so rule P1 has exactly one audited exemption and
   redirecting report output later means changing one line. *)
(* lint: stdout-ok — experiment report sink, the sole audited stdout writer *)
let printf fmt = Printf.printf fmt

let hr width = String.make width '-'

let print_title title =
  printf "\n%s\n%s\n" title (hr (String.length title))

(* Render an ASCII series plot: one line per x value, a bar whose length is
   proportional to y. *)
let print_series ~xlabel ~ylabel ~ymax rows =
  printf "  %-12s %-10s\n" xlabel ylabel;
  List.iter
    (fun (x, y) ->
      let bar_len =
        if ymax <= 0. then 0 else int_of_float (y /. ymax *. 50.)
      in
      printf "  %-12.0f %-10.0f %s\n" x y (String.make (max 0 bar_len) '#'))
    rows
