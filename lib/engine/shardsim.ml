(* Deterministic conservative-lookahead coordinator for sharded
   simulation.

   One simulation = many *cells*, each a self-contained engine (plus
   whatever the caller hangs off it: kernels, a leaf fabric, recorders).
   Cells interact only through a caller-supplied [exchange] step that the
   coordinator invokes single-threaded at epoch barriers.  A *shard* is a
   contiguous block of cells advanced by one domain; crucially the cell
   set and everything observable is fixed by the topology, and shards are
   just an execution grouping — which is why results are byte-identical
   at any shard count, including 1.

   Epoch protocol (classic conservative lookahead, CMB-style):

     d      = min over cells of Engine.next_key_into (global min deadline)
     T_safe = min (d + lookahead) until
     advance every cell to T_safe (shards in parallel, each shard's cells
       in ascending index order); barrier; exchange cross-cell messages.

   Safety: [lookahead] must lower-bound the virtual-time distance between
   *sending* a cross-cell message and its earliest effect on another cell
   (for a network fabric: the minimum cross-link latency).  Every event
   executed in an epoch has time >= d, so any message it emits becomes
   visible at >= d + lookahead >= T_safe — no cell has advanced past
   T_safe, so barrier delivery can never rewind a cell.  Messages landing
   exactly at T_safe are injected at the barrier and processed in the
   next epoch, after local events already executed at that same
   timestamp; the tie-break is identical at every shard count because the
   epoch schedule itself is shard-independent (d depends only on cell
   states).

   Progress: T_safe > max cell clock whenever d is finite (lookahead is
   required positive), so every epoch either executes events, moves
   messages, or terminates the run.

   Determinism requirements on the caller:
   - a cell touches only its own state while advancing (the lint C2 rule
     keeps lib/engine and lib/net free of cross-cell module state, and
     Idspace makes id streams per-cell);
   - [exchange] runs at barriers only, visits source cells in a fixed
     order, and delivers messages in a fixed total order (Topology sorts
     by (ready time, source cell, sequence)).

   The coordinator also measures how much parallelism the decomposition
   exposes: [events_critical] sums, per epoch, the *maximum* events any
   one shard executed — the critical path of the epoch schedule.  With
   enough cores, wall-clock speedup over one shard approaches
   events_total / events_critical; unlike measured wall time the ratio is
   deterministic and machine-independent, so the perf gate can enforce it
   even on a single-core CI runner. *)

type t = {
  cells : Engine.t array;
  lookahead : float;
  exchange : unit -> int;
  shard_events : int array;  (* per-shard events this epoch; one per shard *)
  (* [|key; bound|]: slot 0 carries next_key_into's keys, slot 1 the
     global min deadline and then the epoch's bound *)
  cell : float array;
  work : int -> unit;  (* advance shard s to [cell.(1)]; built once *)
  mutable team : Lrp_parallel.Team.t option;
  mutable epochs : int;
  mutable messages : int;
  mutable events_total : int;
  mutable events_critical : int;
}

(* Advance shard [s]'s cells to [cell.(1)].  Each shard's cells run in
   ascending index order with the cell's own Idspace installed, so a
   cell's execution is a pure function of its state and the bound
   sequence — independent of the shard partition.  The bound reaches
   every engine through its deadline cell: a float argument would box
   per cell per epoch. *)
let shard_work cells first_cell shard_events cell s =
  let saved = Idspace.current () in
  let events = ref 0 in
  for i = first_cell.(s) to first_cell.(s + 1) - 1 do
    let e = cells.(i) in
    Idspace.use (Engine.ids e);
    let before = Engine.events_executed e in
    (Engine.deadline_cell e).(0) <- cell.(1);
    Engine.run_staged e;
    events := !events + (Engine.events_executed e - before)
  done;
  Idspace.use saved;
  shard_events.(s) <- !events

let create ?(shards = 1) ~lookahead ~exchange cells =
  let n = Array.length cells in
  if n = 0 then invalid_arg "Shardsim.create: no cells";
  if not (lookahead > 0. && lookahead < Float.infinity) then
    invalid_arg "Shardsim.create: lookahead must be positive and finite";
  let shards = max 1 (min shards n) in
  (* Contiguous block partition: deterministic, and cells built
     rack-by-rack keep their locality. *)
  let first_cell = Array.init (shards + 1) (fun s -> s * n / shards) in
  let shard_events = Array.make shards 0 and cell = [| 0.; 0. |] in
  { cells; lookahead; exchange; shard_events; cell;
    work = shard_work cells first_cell shard_events cell; team = None;
    epochs = 0; messages = 0; events_total = 0; events_critical = 0 }

let shards t = Array.length t.shard_events
let epochs t = t.epochs
let messages t = t.messages
let events_total t = t.events_total
let events_critical t = t.events_critical

(* Leave the global min deadline in [cell.(1)].  Keys and the result
   travel through [cell]: a float return would box one float per cell
   per epoch. *)
let next_deadline t =
  let c = t.cell in
  c.(1) <- Float.infinity;
  for i = 0 to Array.length t.cells - 1 do
    if Engine.next_key_into t.cells.(i) ~cell:c && c.(0) < c.(1) then
      c.(1) <- c.(0)
  done

(* Advance every cell to [cell.(1)]: one epoch. *)
let advance t =
  (match t.team with
   | None -> t.work 0
   | Some team -> Lrp_parallel.Team.run team t.work);
  let total = ref 0 and critical = ref 0 in
  for s = 0 to Array.length t.shard_events - 1 do
    total := !total + t.shard_events.(s);
    if t.shard_events.(s) > !critical then critical := t.shard_events.(s)
  done;
  t.events_total <- t.events_total + !total;
  t.events_critical <- t.events_critical + !critical

let run t ~until =
  let saved = Idspace.current () in
  let team =
    if shards t > 1 then Some (Lrp_parallel.Team.create ~size:(shards t))
    else None
  in
  t.team <- team;
  Fun.protect
    ~finally:(fun () ->
      t.team <- None;
      (match team with
       | Some tm -> Lrp_parallel.Team.shutdown tm
       | None -> ());
      Idspace.use saved)
  @@ fun () ->
  let rec loop () =
    next_deadline t;
    if t.cell.(1) <= until then begin
      let b = t.cell.(1) +. t.lookahead in
      t.cell.(1) <- (if b < until then b else until);
      advance t;
      t.epochs <- t.epochs + 1;
      t.messages <- t.messages + t.exchange ();
      loop ()
    end
    else begin
      (* Nothing left below the horizon; cross-cell messages may still be
         in flight.  Drain mailboxes until quiescent, then snap clocks. *)
      let moved = t.exchange () in
      if moved > 0 then begin
        t.messages <- t.messages + moved;
        loop ()
      end
      else begin
        t.cell.(1) <- until;
        advance t
      end
    end
  in
  loop ()
