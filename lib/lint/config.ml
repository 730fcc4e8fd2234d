(* Per-rule configuration for lrp_lint.

   Path matching (suffix after '/'-normalisation, component scopes,
   consecutive-component directory runs) is the shared
   Lrp_report.Pathspec, re-exported below so rule modules and tests keep
   their historical [Config.in_files]-style call sites. *)

type t = {
  rng_files : string list;
      (* D1: the one module allowed to own ambient nondeterminism. *)
  wallclock_files : string list;
      (* D1: wall-clock reads (Sys.time / Unix.gettimeofday) allowed —
         the experiment front end times its runs by design.
         Random.* stays banned here. *)
  det_files : string list;
      (* D2: the sorted-iteration helper implementation itself. *)
  d3_files : (string * string list) list;
      (* D3: files whose float-carrying or mutable record types make
         polymorphic compare/(=) hazardous, with the type names for the
         message.  In these files, bare [compare], [Stdlib.compare],
         [Hashtbl.hash] and unapplied [(=)]/[(<>)] are banned. *)
  d4_dirs : string list;
      (* D4: hot-path layer directories where a polymorphic [Hashtbl]
         probe with a structural (tuple/record) key is banned —
         structural hashing allocates and chases pointers per packet;
         pack the key into ints ({!Lrp_core.Flowtab}). *)
  d4_exempt_files : string list;
      (* D4: files inside [d4_dirs] allowed to keep structural keys.
         lib/proto/pcb.ml models the *BSD* PCB lookup the paper singles
         out as a known performance problem — its cost is the point, it
         is not on any LRP fast path, and its generic value type cannot
         use the packed-key Flowtab (lib/core) without inverting the
         layer DAG (proto ranks below core). *)
  stateful_scope : string list;
      (* C1/P1 apply only under these path components (library code);
         executables under bin/ may print and hold state. *)
  c2_dirs : string list;
      (* C2: directories whose code runs cell-parallel under Shardsim —
         module-level bindings there must not hold mutable state even
         nested inside records/closures ([Atomic.t] included: a shared
         counter still couples cells and breaks shard-count invariance).
         Mutable state must hang off a per-cell context record (Engine.t,
         Fabric.t, Idspace.t).  lib/parallel is deliberately absent: it
         is the one sanctioned home for cross-domain module state. *)
  sink_files : string list;
      (* P1: trace/report sink modules allowed to write stdout. *)
  layer_rank : (string * int) list;
      (* L1: library name -> layer rank.  A library may only depend on
         strictly lower ranks.  Unknown lrp_* names are findings, so new
         libraries must be placed in the DAG explicitly. *)
}

let default =
  {
    rng_files = [ "lib/engine/rng.ml" ];
    wallclock_files = [ "bin/lrp_sim_cli.ml" ];
    det_files = [ "lib/core/det.ml" ];
    d3_files =
      [
        ("lib/stats/stats.ml", [ "summary"; "Samples.t"; "Rate.t" ]);
        ("lib/proto/tcp.ml", [ "conn"; "timer" ]);
        ("lib/sched/sched.ml", [ "thread" ]);
        ("lib/trace/trace.ml", [ "Report.marks" ]);
        ("lib/engine/eheap.ml", [ "t" ]);
      ];
    d4_dirs = [ "lib/engine"; "lib/net"; "lib/proto"; "lib/core" ];
    d4_exempt_files = [ "lib/proto/pcb.ml" ];
    stateful_scope = [ "lib" ];
    c2_dirs = [ "lib/engine"; "lib/net" ];
    sink_files = [];
    layer_rank =
      [
        (* leaves: no lrp dependencies *)
        ("lrp_det", 0);
        ("lrp_stats", 0);
        ("lrp_parallel", 0);
        ("lrp_report", 0);
        (* the analyzers share the report/suppression grammar *)
        ("lrp_lint", 1);
        ("lrp_allocheck", 1);
        (* the simulation core *)
        ("lrp_engine", 1);
        ("lrp_trace", 2);
        ("lrp_net", 3);
        ("lrp_sched", 3);
        ("lrp_proto", 4);
        ("lrp_sim", 4);
        ("lrp_core", 5);
        ("lrp_kernel", 6);
        (* observers and drivers *)
        ("lrp_workload", 7);
        ("lrp_check", 7);
        ("lrp_experiments", 8);
      ];
  }

let normalize = Lrp_report.Pathspec.normalize
let has_suffix_path = Lrp_report.Pathspec.has_suffix_path
let in_files = Lrp_report.Pathspec.in_files
let in_scope = Lrp_report.Pathspec.in_scope
let in_dirs = Lrp_report.Pathspec.in_dirs

let d3_types_of config file =
  List.find_map
    (fun (f, tys) -> if has_suffix_path file f then Some tys else None)
    config.d3_files
