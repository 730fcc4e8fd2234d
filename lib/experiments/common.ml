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

(* One independent simulation [measure ~seed o x] per cell of [outer] x
   [inner], outer-major, as one flat sweep (each cell seeded by its
   index), regrouped per element of [outer]. *)
let grid ~jobs ~seed outer inner measure =
  let n = List.length inner in
  let cells =
    sweep ~jobs
      (fun i (o, x) -> measure ~seed:(job_seed ~seed ~index:i) o x)
      (List.concat_map (fun o -> List.map (fun x -> (o, x)) inner) outer)
  in
  List.mapi (fun k o -> (o, List.filteri (fun i _ -> i / n = k) cells)) outer

(* --- plain-text rendering -------------------------------------------- *)

(* The experiment layer's one stdout sink: every figure/table renderer
   prints through here, so rule P1 has exactly one audited exemption and
   redirecting report output later means changing one line. *)
(* lint: stdout-ok — experiment report sink, the sole audited stdout writer *)
let printf fmt = Printf.printf fmt

let hr width = String.make width '-'

let print_title title =
  printf "\n%s\n%s\n" title (hr (String.length title))

(* --- claims ------------------------------------------------------------ *)

(* One of the paper's shapes, evaluated on the rows that measure it:
   [holds] is the predicate whose band [text] states, [measured] (and
   [paper], where the paper gives the same quantity, else nan) the value
   shown. *)
type claim = {
  id : string;
  text : string;
  paper : float;
  measured : float;
  holds : bool;
}

let claim ?(paper = nan) id text measured holds =
  { id; text; paper; measured; holds }

let pick f p xs = match List.find_opt p xs with Some x -> f x | None -> nan

let with_paper claims paper_claims =
  List.map
    (fun c ->
      { c with paper = pick (fun p -> p.measured) (fun p -> p.id = c.id) paper_claims })
    claims

let print_claims claims =
  let value x = Printf.sprintf (if Float.abs x >= 100. then "%.0f" else "%.3g") x in
  let line status id m p = printf "  %-4s %-36s %9s %9s  %s\n" status id m p in
  if claims <> [] then (printf "\n"; line "" "claim" "measured" "paper" "band");
  List.iter
    (fun c ->
      line (if c.holds then "ok" else "FAIL") c.id (value c.measured)
        (if Float.is_nan c.paper then "-" else value c.paper)
        c.text)
    claims
