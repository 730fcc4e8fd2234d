(* Per-cycle CPU accounting ledger.

   Every simulated microsecond the CPU charges is mirrored here under one
   of four classes, keyed by the process it was *charged to* and (for
   receiver-context protocol work) the flow/channel it served:

     - Intr / Soft: interrupt-level work.  The pid column records BSD's
       "curproc at the time" — the interrupted victim — which is exactly
       the paper's mis-accounting: under BSD all receive-side protocol
       cycles land in these columns against whoever happened to be
       running, while under LRP the protocol cycles move to the Proto
       class against the receiving process itself.
     - Proto: protocol processing performed in a process's own context
       (LRP's lazy receiver processing, the UDP helper, the forwarding
       daemon), attributed to the owning pid and the channel it drained.
     - Poll: NAPI-style budgeted poll cycles — softirq poll rounds and
       ksoftirqd process-context polling.  Kept distinct from Soft so the
       overload detector can discriminate a NAPI kernel spending its CPU
       in accountable poll work from a BSD kernel drowning in eager
       interrupt-level processing.
     - App: everything else a process computes.

   Idle is derived by the caller (elapsed minus the grand total).  Rows
   are plain float arrays so the charge path allocates nothing beyond the
   first sighting of a pid/flow, and the amount can arrive through a
   staged float cell so the caller does not box it either.

   A row lives as long as its process or channel: [retire_pid] /
   [retire_flow] add a dead key's columns into one aggregate row and drop
   its entry, so the tables hold the live population, not every pid and
   channel a long run has ever seen.  A retired row, zeroed, is kept for
   the next new pid or flow.  The class totals are kept apart and
   never folded. *)

type cls = Intr | Soft | Proto | Poll | App

let idx = function Intr -> 0 | Soft -> 1 | Proto -> 2 | Poll -> 3 | App -> 4

type prow = { mutable p_name : string; pcols : float array }

type t = {
  totals : float array;                  (* 5 class totals, us *)
  pids : prow Lrp_det.Itab.t;  (* live pid -> columns; -1 = idle ctx *)
  flows : float array Lrp_det.Itab.t;  (* open flow/channel id -> columns *)
  amount : float array;                  (* staged amount, see [charge_staged] *)
  exited : float array;                  (* columns of every retired pid *)
  closed : float array;                  (* columns of every retired flow *)
  mutable any_exited : bool;
  mutable any_closed : bool;
  spare : float array Lrp_det.Pool.t;  (* retired flows' rows, zeroed *)
  pspare : prow Lrp_det.Pool.t;  (* retired pids' rows, zeroed *)
  (* one-entry caches of the last row looked up: consecutive charges
     nearly always hit the same pid and flow *)
  mutable last_pid : int;
  mutable last_prow : prow;
  mutable last_flow : int;
  mutable last_fcols : float array;
}

let no_row = { p_name = ""; pcols = [||] }

let create () =
  { totals = Array.make 5 0.;
    pids = Lrp_det.Itab.create 8;
    flows = Lrp_det.Itab.create 8;
    amount = [| 0. |];
    exited = Array.make 5 0.; closed = Array.make 5 0.;
    any_exited = false; any_closed = false;
    spare = Lrp_det.Pool.create [||]; pspare = Lrp_det.Pool.create no_row;
    last_pid = min_int; last_prow = no_row;
    last_flow = min_int; last_fcols = [||] }

let prow t pid =
  if pid = t.last_pid then t.last_prow
  else begin
    let slot = Lrp_det.Itab.find t.pids pid in
    let r =
      if slot >= 0 then Lrp_det.Itab.value t.pids slot
      else begin
        let name = if pid < 0 then "(idle)" else "?" in
        let r = Lrp_det.Pool.take t.pspare in
        let r =
          if r != no_row then begin
            r.p_name <- name;
            r
          end
          else
            (* alloc: cold — once per pooled row *)
            { p_name = name; pcols = Array.make 5 0. }
        in
        Lrp_det.Itab.replace t.pids pid r;
        r
      end
    in
    t.last_pid <- pid;
    t.last_prow <- r;
    r
  end

let frow t flow =
  if flow = t.last_flow then t.last_fcols
  else begin
    let slot = Lrp_det.Itab.find t.flows flow in
    let c =
      if slot >= 0 then Lrp_det.Itab.value t.flows slot
      else begin
        let c = Lrp_det.Pool.take t.spare in
        let c =
          if Array.length c > 0 then c
          else Array.make 5 0. (* alloc: cold — first sighting of a flow *)
        in
        Lrp_det.Itab.replace t.flows flow c;
        c
      end
    in
    t.last_flow <- flow;
    t.last_fcols <- c;
    c
  end

let set_name t ~pid name = (prow t pid).p_name <- name

let fold_into agg cols =
  for i = 0 to 4 do
    agg.(i) <- agg.(i) +. cols.(i)
  done

let retire_pid t ~pid =
  let slot = Lrp_det.Itab.find t.pids pid in
  if slot >= 0 then begin
    let r = Lrp_det.Itab.value t.pids slot in
    fold_into t.exited r.pcols;
    t.any_exited <- true;
    Lrp_det.Itab.remove t.pids pid;
    Array.fill r.pcols 0 5 0.;
    Lrp_det.Pool.give t.pspare r;
    if t.last_pid = pid then begin
      t.last_pid <- min_int;
      t.last_prow <- no_row
    end
  end

let retire_flow t ~flow =
  let slot = Lrp_det.Itab.find t.flows flow in
  if slot >= 0 then begin
    let c = Lrp_det.Itab.value t.flows slot in
    fold_into t.closed c;
    t.any_closed <- true;
    Lrp_det.Itab.remove t.flows flow;
    Array.fill c 0 5 0.;
    Lrp_det.Pool.give t.spare c;
    if t.last_flow = flow then begin
      t.last_flow <- min_int;
      t.last_fcols <- [||]
    end
  end

let pid_rows t = (Lrp_det.Itab.length t.pids, Lrp_det.Pool.spare t.pspare)

let amount_cell t = t.amount

let charge_staged t cls ~pid ~flow =
  let d = t.amount.(0) in
  if d > 0. then begin
    let i = idx cls in
    t.totals.(i) <- t.totals.(i) +. d;
    let r = prow t pid in
    r.pcols.(i) <- r.pcols.(i) +. d;
    if flow >= 0 then begin
      let c = frow t flow in
      c.(i) <- c.(i) +. d
    end
  end

let charge t cls ~pid ~flow d =
  t.amount.(0) <- d;
  charge_staged t cls ~pid ~flow

let total t cls = t.totals.(idx cls)

let grand_total t =
  t.totals.(0) +. t.totals.(1) +. t.totals.(2) +. t.totals.(3) +. t.totals.(4)

type row = {
  pid : int;
  name : string;
  intr_victim : float;
  soft_victim : float;
  proto : float;
  poll : float;
  app : float;
}

let misaccounted r = r.intr_victim +. r.soft_victim

type flow_row = { flow : int; f_proto : float }

let exited_pid = max_int
let closed_flow = max_int

let row pid name c =
  { pid; name; intr_victim = c.(0); soft_victim = c.(1); proto = c.(2);
    poll = c.(3); app = c.(4) }

let flow_row flow c = { flow; f_proto = c.(2) }

(* Live rows in key order, then the aggregate once something retired. *)
let rows t =
  let live =
    Lrp_det.Det.fold_sorted_int
      (fun pid (r : prow) acc -> row pid r.p_name r.pcols :: acc)
      t.pids []
  in
  List.rev_append live
    (if t.any_exited then [ row exited_pid "(exited)" t.exited ] else [])

let flow_rows t =
  let live =
    Lrp_det.Det.fold_sorted_int (fun flow c acc -> flow_row flow c :: acc) t.flows []
  in
  List.rev_append live
    (if t.any_closed then [ flow_row closed_flow t.closed ] else [])
