open Lrp_engine
module Sched = Lrp_sched.Sched
module Trace = Lrp_trace.Trace

(* A typed interrupt job is an index into its CPU's job table, which
   holds the job's trace label and its dispatcher, stored as the uniform
   [Obj.t -> int -> unit] ({!job}).  A ring row and the running segment
   name the job by that immediate int, so posting and dispatching it
   store no pointer. *)
type 'a job = int

let no_obj = Obj.repr 0

(* Store [v] into [a.(i)] only when it differs: an unchanged pointer
   store would still pay [caml_modify]. *)
let[@inline] set_obj (a : Obj.t array) i v =
  if Array.unsafe_get a i != v then Array.unsafe_set a i v

(* Clear a payload slot so it pins nothing; an immediate pins nothing
   already, so only a block is overwritten. *)
let[@inline] clear_obj (a : Obj.t array) i =
  if Obj.is_block (Array.unsafe_get a i) then Array.unsafe_set a i no_obj

(* ------------------------------------------------------------------ *)
(* Work rings                                                          *)
(* ------------------------------------------------------------------ *)

(* One interrupt level's work queue: a power-of-two ring of rows stored
   in parallel columns.  A row is a posted work item — the CPU
   microseconds it still owes, the packet ident it processes (or -1; it
   keys the tracer's per-packet softint spans), whether it is a NAPI poll
   round (softirq level, but ledgered as [Poll]), and its typed job (the
   job's id, which also names its trace label, plus an object and an
   int).  The running item stays at the head of its ring until it
   finishes, and a preempted one simply stays there, so dispatching reads
   the row in place: posting stores the object once and finishing clears
   it once, and the steady state allocates nothing. *)
type ring = {
  mutable head : int;
  mutable len : int;
  mutable jobs : int array;
  mutable lefts : float array;
  mutable tpkts : int array;
  mutable polls : bool array;
  mutable objs : Obj.t array;
  mutable ints : int array;
}

let ring_create () =
  let cap = 16 in
  { head = 0; len = 0; jobs = Array.make cap 0; lefts = Array.make cap 0.;
    tpkts = Array.make cap (-1); polls = Array.make cap false;
    objs = Array.make cap no_obj;
    ints = Array.make cap 0 }

(* A full ring column [a] from [head], unrolled to index 0 of a column
   twice as long, [fill] in the rest. *)
let unroll a ~head fill =
  let cap = Array.length a in
  let b = Array.make (2 * cap) fill in (* alloc: cold — amortized growth *)
  for i = 0 to cap - 1 do
    b.(i) <- a.((head + i) land (cap - 1))
  done;
  b

(* Double the capacity of a full ring, its rows then starting at
   index 0. *)
let ring_grow r =
  let head = r.head in
  r.jobs <- unroll r.jobs ~head 0;
  r.lefts <- unroll r.lefts ~head 0.;
  r.tpkts <- unroll r.tpkts ~head (-1);
  r.polls <- unroll r.polls ~head false;
  r.objs <- unroll r.objs ~head no_obj;
  r.ints <- unroll r.ints ~head 0;
  r.head <- 0

(* Append a row; its cost is read from [cost.(0)] (a float argument would
   be boxed at the call). *)
let push_back r cost ~tpkt ~poll job obj arg =
  if r.len = Array.length r.ints then ring_grow r;
  let i = (r.head + r.len) land (Array.length r.ints - 1) in
  r.jobs.(i) <- job;
  r.lefts.(i) <- cost.(0);
  r.tpkts.(i) <- tpkt;
  r.polls.(i) <- poll;
  set_obj r.objs i obj;
  r.ints.(i) <- arg;
  r.len <- r.len + 1

(* ------------------------------------------------------------------ *)
(* The CPU                                                             *)
(* ------------------------------------------------------------------ *)

(* Slots of [fl]: the running segment's remaining cost and start time,
   the exact per-level clocks, and the elapsed time being charged. *)
let f_left = 0
let f_started = 1
let f_hard = 2
let f_soft = 3
let f_user = 4
let f_poll = 5
let f_elapsed = 6

(* Running-segment classes, ordered by dispatch priority. *)
let c_idle = -1
let c_user = 0
let c_soft = 1
let c_hard = 2

(* [in_dispatch] states: outside the dispatch loop, inside it, and inside
   it under a tail entry — an entry whose event returns to the engine as
   soon as the loop is done, so a segment whose completion is the
   engine's next event may complete inline (see [arm_segment]). *)
let d_out = 0
let d_in = 1
let d_tail = 2

type t = {
  engine : Engine.t;
  clock : float array;     (* the engine's clock cell *)
  deadline : float array;  (* the engine's deadline cell *)
  sched : Sched.t;
  ctx_switch_cost : float;
  hardq : ring;
  softq : ring;
  procs : Proc.t Lrp_det.Itab.t;  (* live processes by scheduler tid *)
  mutable next_pid : int;
  spare : Proc.t Lrp_det.Pool.t;
      (* reaped processes' records, each with its thread *)
  (* Run on every process at its reap, before its record is reused
     ({!on_exit}). *)
  mutable exit_hook : Proc.t -> unit;
  (* registered jobs ({!job}): dispatcher and trace label by job id *)
  mutable job_fns : (Obj.t -> int -> unit) array;
  mutable job_labels : string array;
  (* The running segment lives in these fields, not in an allocated
     record: its class ([c_idle] .. [c_hard]), the user process, and the
     completion event.  A running interrupt item is the head row of its
     level's ring. *)
  mutable run_cls : int;
  mutable run_proc : Proc.t;
  (* The process whose host-side code [run_instant] is running, or
     [Proc.none]: the one effect handler reads it. *)
  mutable inst_proc : Proc.t;
  mutable handler : (unit, unit) Effect.Deep.handler;
  mutable run_ev : Engine.handle;
  fl : float array;       (* slots [f_left] .. [f_elapsed] *)
  cost : float array;     (* staged cost of the next [post_*_job] or compute *)
  mutable cur_proc : Proc.t;  (* BSD curproc, or [Proc.none] *)
  mutable last_user : int;  (* pid last on CPU, for cache penalty *)
  mutable in_dispatch : int;  (* [d_out], [d_in] or [d_tail] *)
  mutable redo : bool;
  mutable force_resched : bool;
  (* registered engine targets (closure-free schedule path); filled in by
     [create] right after the record is built *)
  mutable seg_tgt : unit Engine.target option;
  mutable wake_tgt : Proc.t Engine.target option;
  mutable n_ctx_switch : int;
  mutable n_soft_dispatch : int;
  mutable n_hard_dispatch : int;
  created_at : Time.t;
  mutable tracer : Trace.t;  (* owning kernel's tracer; disabled by default *)
  ledger : Ledger.t;
  lamt : float array;  (* the ledger's staged amount cell *)
  (* ledger class ([Proc.lcls] code) and flow of the next [Proc.Compute]
     segment, set by [compute_proto] / [compute_poll] and latched into the
     process by the effect handler *)
  mutable hint_cls : int;
  mutable hint_flow : int;
}

let set_tracer t tr = t.tracer <- tr
let cost_cell t = t.cost

(* Objects are stored via [Obj.repr] (the identity on the value's
   representation), so applying the magicked dispatcher is exactly the
   registered function on the original value — the same contract as
   [Engine.target]. *)
let job (type a) t ~label (f : a -> int -> unit) : a job =
  let id = Array.length t.job_fns in
  let f : Obj.t -> int -> unit = Obj.magic f in
  t.job_fns <- Array.append t.job_fns [| f |];
  t.job_labels <- Array.append t.job_labels [| label |];
  id

(* Trace bracketing for interrupt-level work.  Emitters are no-ops on a
   disabled tracer, so these cost one branch each on the hot path. *)

let trace_work_begin t level job tpkt =
  Trace.intr_enter t.tracer ~level ~label:t.job_labels.(job);
  if tpkt >= 0 && level = Trace.Soft then Trace.softint_begin t.tracer ~pkt:tpkt

let trace_work_end t level job tpkt =
  if tpkt >= 0 && level = Trace.Soft then Trace.softint_end t.tracer ~pkt:tpkt;
  Trace.intr_exit t.tracer ~level ~label:t.job_labels.(job)

(* ------------------------------------------------------------------ *)
(* Accounting                                                          *)
(* ------------------------------------------------------------------ *)

(* BSD's curproc at the instant interrupt cycles are charged: the ledger's
   "victim" pid, or -1 when the interrupt preempted an idle CPU. *)
let victim_pid t = t.cur_proc.Proc.pid

(* Charge [fl.(f_elapsed)] to the running segment. *)
let charge t =
  let e = t.fl.(f_elapsed) in
  if e > 0. then begin
    t.lamt.(0) <- e;
    if t.run_cls = c_hard then begin
      t.fl.(f_hard) <- t.fl.(f_hard) +. e;
      Ledger.charge_staged t.ledger Ledger.Intr ~pid:(victim_pid t) ~flow:(-1)
    end
    else if t.run_cls = c_soft then begin
      t.fl.(f_soft) <- t.fl.(f_soft) +. e;
      if t.softq.polls.(t.softq.head) then begin
        t.fl.(f_poll) <- t.fl.(f_poll) +. e;
        Ledger.charge_staged t.ledger Ledger.Poll ~pid:(victim_pid t) ~flow:(-1)
      end
      else
        Ledger.charge_staged t.ledger Ledger.Soft ~pid:(victim_pid t) ~flow:(-1)
    end
    else begin
      let p = t.run_proc in
      let acct = p.Proc.acct in
      t.fl.(f_user) <- t.fl.(f_user) +. e;
      acct.(Proc.a_cpu) <- acct.(Proc.a_cpu) +. e;
      acct.(Proc.a_last_on_cpu) <- t.clock.(0);
      if p.Proc.lcls = 1 then
        Ledger.charge_staged t.ledger Ledger.Proto ~pid:p.Proc.pid
          ~flow:p.Proc.lflow
      else if p.Proc.lcls = 2 then begin
        t.fl.(f_poll) <- t.fl.(f_poll) +. e;
        Ledger.charge_staged t.ledger Ledger.Poll ~pid:p.Proc.pid
          ~flow:p.Proc.lflow
      end
      else Ledger.charge_staged t.ledger Ledger.App ~pid:p.Proc.pid ~flow:(-1)
    end
  end

(* ------------------------------------------------------------------ *)
(* Dispatch machinery                                                  *)
(* ------------------------------------------------------------------ *)

let best_class t =
  if t.hardq.len > 0 then c_hard
  else if t.softq.len > 0 then c_soft
  else if Sched.pick_tid t.sched >= 0 then c_user
  else c_idle

(* Drop the finished head row of [r]; the ring must not pin its
   object. *)
let pop_head r =
  clear_obj r.objs r.head;
  r.head <- (r.head + 1) land (Array.length r.ints - 1);
  r.len <- r.len - 1

let stop_work t level r =
  r.lefts.(r.head) <- t.fl.(f_left);
  trace_work_end t level r.jobs.(r.head) r.tpkts.(r.head)

let stop_running t =
  if t.run_cls <> c_idle then begin
    let elapsed = t.clock.(0) -. t.fl.(f_started) in
    t.fl.(f_elapsed) <- elapsed;
    charge t;
    Engine.cancel t.engine t.run_ev;
    t.run_ev <- Engine.none;
    let left = t.fl.(f_left) -. elapsed in
    t.fl.(f_left) <- (if left > 0. then left else 0.);
    (* A preempted interrupt item stays at the head of its ring with what
       it still owes; its span closes, and re-dispatch opens a new one. *)
    if t.run_cls = c_hard then stop_work t Trace.Hard t.hardq
    else if t.run_cls = c_soft then stop_work t Trace.Soft t.softq
    else t.run_proc.Proc.acct.(Proc.a_work_left) <- t.fl.(f_left);
    t.run_cls <- c_idle
  end

(* Targets are registered by [create] before any event can fire. *)
let seg_target t =
  match t.seg_tgt with Some g -> g | None -> assert false

let wake_target t =
  match t.wake_tgt with Some g -> g | None -> assert false

(* Charge the running segment its whole remaining cost and leave the CPU
   idle; returns the segment's class. *)
let close_segment t =
  t.fl.(f_elapsed) <- t.fl.(f_left);
  charge t;
  t.run_ev <- Engine.none;
  let cls = t.run_cls in
  t.run_cls <- c_idle;
  cls

(* Latch the ledger class and flow of a process's next compute segment;
   it survives preemption splits because [charge] reads it from the
   process, not from the (consumed) hint. *)
let latch_compute t (p : Proc.t) =
  p.Proc.lcls <- t.hint_cls;
  p.Proc.lflow <- t.hint_flow;
  t.hint_cls <- 0;
  t.hint_flow <- -1

let wake t (q : Proc.t) =
  if not q.Proc.exited then begin
    Trace.thread_state t.tracer ~pid:q.Proc.pid ~state:Trace.Runnable;
    q.Proc.pending <- Proc.Resume;
    Sched.make_runnable t.sched q.Proc.thread;
    (* BSD preemption point: a wakeup may preempt a worse-priority curproc. *)
    t.force_resched <- true;
    t.redo <- true
  end

(* Wake every waiter on [wq], oldest first, and count them. *)
let rec wake_queue t wq n =
  let q = Proc.dequeue wq in
  if q == Proc.none then n
  else begin
    wake t q;
    wake_queue t wq (n + 1)
  end

(* Take the finished interrupt item, the head row of [r], off its ring,
   run its action, then close its span. *)
let finish_work t level r =
  let i = r.head in
  let job = r.jobs.(i) and obj = r.objs.(i) and arg = r.ints.(i) in
  let tpkt = r.tpkts.(i) in
  pop_head r;
  t.job_fns.(job) obj arg;
  trace_work_end t level job tpkt

let rec segment_done t =
  let cls = close_segment t in
  if cls = c_hard then finish_work t Trace.Hard t.hardq
  else if cls = c_soft then finish_work t Trace.Soft t.softq
  else begin
    let p = t.run_proc in
    p.Proc.acct.(Proc.a_work_left) <- 0.;
    p.Proc.pending <- Proc.Resume;
    run_instant t p
  end

(* Schedule the running segment's completion [fl.(f_left)] from now,
   through the engine's staged deadline — or run it ahead (DESIGN §17).
   Under a tail entry, when the completion is provably the engine's next
   event, nothing else can happen between now and then: the rest of this
   dispatch loop is a no-op (the segment just started is the best work),
   and the event returns to the engine once the loop is done.  So end
   this event here as its loop would ([redo] and [force_resched] clear),
   run the completion event's body at its time, and flag [redo]: the
   running loop then serves as that event's own dispatch loop. *)
and arm_segment t =
  t.deadline.(0) <- t.clock.(0) +. t.fl.(f_left);
  if t.in_dispatch = d_tail && Engine.staged_is_next t.engine then begin
    t.redo <- false;
    t.force_resched <- false;
    Engine.advance_to_staged t.engine;
    segment_done t;
    t.redo <- true
  end
  else t.run_ev <- Engine.schedule_to_staged t.engine (seg_target t) ()

(* Run a process's host-side code until its next effect.  Instantaneous in
   virtual time.  Must execute with [in_dispatch] set, which is what keeps
   it from nesting: process code that enters this CPU only flags [redo]. *)
and run_instant t (p : Proc.t) =
  if t.inst_proc != Proc.none then assert false;
  t.inst_proc <- p;
  (match p.Proc.pending with
   | Proc.Start ->
       let body = p.Proc.body in
       p.Proc.body <- Proc.started;
       p.Proc.pending <- Proc.Blocked;
       Effect.Deep.match_with body p t.handler
   | Proc.Resume ->
       let k = p.Proc.k in
       if k == Proc.no_k then assert false;
       p.Proc.k <- Proc.no_k;
       p.Proc.pending <- Proc.Blocked;
       Effect.Deep.continue k ()
   | Proc.Work | Proc.Blocked | Proc.Done -> assert false);
  t.inst_proc <- Proc.none;
  match p.Proc.pending with
  | Proc.Done -> reap t p
  | Proc.Work | Proc.Blocked | Proc.Resume -> ()
  | Proc.Start -> assert false

and reap t (p : Proc.t) =
  Trace.thread_state t.tracer ~pid:p.Proc.pid ~state:Trace.Exited;
  p.Proc.exited <- true;
  t.exit_hook p;
  Sched.exit_thread t.sched p.Proc.thread;
  Lrp_det.Itab.remove t.procs (Sched.tid p.Proc.thread);
  Ledger.retire_pid t.ledger ~pid:p.Proc.pid;
  if t.cur_proc == p then t.cur_proc <- Proc.none;
  if t.run_proc == p then t.run_proc <- Proc.none;
  ignore (wake_queue t p.Proc.exit_waiters 0 : int);
  let o = p.Proc.acct_owner in
  if o != Proc.none then begin
    p.Proc.acct_owner <- Proc.none;
    o.Proc.holds <- o.Proc.holds - 1;
    if o.Proc.holds = 0 && o.Proc.exited then release t o
  end;
  if p.Proc.holds = 0 then release t p

(* A reaped process's record goes back to the pool once no live process
   is charged to it ([Proc.holds]): an APP thread that outlives its
   owner keeps charging the owner's frozen usage, as it always has. *)
and release t (p : Proc.t) = Lrp_det.Pool.give t.spare p

and begin_timed t (p : Proc.t) =
  let now = t.clock.(0) in
  let acct = p.Proc.acct in
  if t.last_user <> p.Proc.pid then begin
    (* Cache-reload penalty: eviction is proportional to how long other
       work occupied the CPU, capped by this process's working set.  This
       keeps the model from compounding reloads into a livelock when a
       process is preempted mid-reload. *)
    let gone = now -. acct.(Proc.a_last_on_cpu) in
    let absence = if gone > 0. then gone else 0. in
    let half = 0.5 *. absence in
    let reload = if half < p.Proc.working_set_us then half else p.Proc.working_set_us in
    let overhead = t.ctx_switch_cost +. reload in
    if overhead > 0. then
      acct.(Proc.a_work_left) <- acct.(Proc.a_work_left) +. overhead;
    t.n_ctx_switch <- t.n_ctx_switch + 1;
    Trace.ctx_switch t.tracer ~from_pid:t.last_user ~to_pid:p.Proc.pid;
    t.last_user <- p.Proc.pid
  end;
  if t.cur_proc != p then t.cur_proc <- p;
  t.run_cls <- c_user;
  if t.run_proc != p then t.run_proc <- p;
  t.fl.(f_left) <- acct.(Proc.a_work_left);
  t.fl.(f_started) <- now;
  arm_segment t

and begin_work t cls r =
  if cls = c_hard then t.n_hard_dispatch <- t.n_hard_dispatch + 1
  else t.n_soft_dispatch <- t.n_soft_dispatch + 1;
  let i = r.head in
  let level = if cls = c_hard then Trace.Hard else Trace.Soft in
  trace_work_begin t level r.jobs.(i) r.tpkts.(i);
  t.run_cls <- cls;
  t.fl.(f_left) <- r.lefts.(i);
  t.fl.(f_started) <- t.clock.(0);
  if t.fl.(f_left) <= 0. then begin
    (* Zero-cost work completes immediately. *)
    t.run_cls <- c_idle;
    finish_work t level r;
    t.redo <- true
  end
  else arm_segment t

and start_best t =
  if t.hardq.len > 0 then begin_work t c_hard t.hardq
  else if t.softq.len > 0 then begin_work t c_soft t.softq
  else begin
    let tid = Sched.pick_tid t.sched in
    if tid >= 0 then begin
      (* Usually the process that ran last (never the sentinel, whose tid
         is another scheduler's): probe the table only on a switch. *)
      let q = t.run_proc in
      let p =
        if q != Proc.none && Sched.tid q.Proc.thread = tid then q
        else Lrp_det.Itab.value t.procs (Lrp_det.Itab.find t.procs tid)
      in
      match p.Proc.pending with
      | Proc.Work -> begin_timed t p
      | Proc.Start | Proc.Resume ->
          (* Host-side code is free in virtual time: run it now, then
             re-evaluate.  [last_user] is left alone so the switch penalty
             lands on the first timed segment. *)
          if t.cur_proc != p then t.cur_proc <- p;
          run_instant t p;
          t.redo <- true
      | Proc.Blocked | Proc.Done -> assert false
    end
  end

and do_dispatch t =
  (if t.run_cls = c_idle then start_best t
   else begin
     let b = best_class t and c = t.run_cls in
     if b > c then begin
       stop_running t;
       start_best t
     end
     else if c = c_user && b = c_user then begin
       (* User-user preemption only at BSD's preemption points (wakeup,
          tick, yield), flagged via [force_resched] — not on every
          dispatch event. *)
       if t.force_resched
          && Sched.should_preempt t.sched
               ~current:t.run_proc.Proc.thread
       then begin
         stop_running t;
         start_best t
       end
     end
   end);
  t.force_resched <- false

(* Every entry point brackets its mutation with [enter] / [leave]: the
   mutation runs immediately, and a single non-reentrant dispatch loop
   then brings the CPU to a fixed point.  A nested entry (from inside a
   dispatched action) only flags [redo] for the loop already running,
   and leaves the outermost entry's kind alone.  [enter_tail] is for an
   entry that its event calls last: the CPU's own segment and wake
   targets, and [post_hard_job_tail]. *)
let enter t =
  t.in_dispatch = d_out
  && begin
    t.in_dispatch <- d_in;
    true
  end

let enter_tail t =
  t.in_dispatch = d_out
  && begin
    t.in_dispatch <- d_tail;
    true
  end

let leave t entered =
  if entered then begin
    do_dispatch t;
    while t.redo do
      t.redo <- false;
      do_dispatch t
    done;
    t.in_dispatch <- d_out
  end
  else t.redo <- true

(* ------------------------------------------------------------------ *)
(* Clock: scheduler tick (10 ms) and usage decay (1 s)                 *)
(* ------------------------------------------------------------------ *)

let tick t =
  let e = enter t in
  (* BSD charges the tick to curproc: the running process, or — the
     mis-accounting — the one an interrupt-level segment interrupted. *)
  if t.run_cls = c_user then begin
    let th = t.run_proc.Proc.thread in
    Sched.charge_tick th;
    if Sched.quantum_expired th then Sched.requeue t.sched th
  end
  else if t.run_cls <> c_idle && t.cur_proc != Proc.none then
    Sched.charge_tick t.cur_proc.Proc.thread;
  (* Ticks are a BSD preemption point: priorities were just recomputed. *)
  t.force_resched <- true;
  leave t e

let decay t =
  let e = enter t in
  Sched.decay t.sched;
  leave t e

(* Periodic clocks re-arm their own event record ([reschedule_after]), so a
   long run pays one slot and one closure total per clock, not one per
   firing. *)
let install_periodic engine ~delay fn =
  let h = ref None in
  let ev =
    Engine.schedule_after engine ~delay (fun () ->
        fn ();
        match !h with
        | Some ev -> Engine.reschedule_after engine ev ~delay
        | None -> assert false)
  in
  h := Some ev

(* The CPU's one effect handler, shared by every process it runs: the
   process is the one [run_instant] is running.  [effc] does each
   effect's bookkeeping itself and returns [park], so a compute / block /
   sleep / yield allocates no closure and no option; [park] only stores
   the continuation. *)
let make_handler t : (unit, unit) Effect.Deep.handler =
  let park =
    (* alloc: cold — once per CPU *)
    Some (fun (k : (unit, unit) Effect.Deep.continuation) ->
        t.inst_proc.Proc.k <- k)
  in
  (* alloc: cold — once per CPU *)
  { Effect.Deep.retc = (fun () -> t.inst_proc.Proc.pending <- Proc.Done);
    exnc = raise;
    effc =
      (* alloc: cold — once per CPU *)
      (fun (type a) (eff : a Effect.t) :
           ((a, unit) Effect.Deep.continuation -> unit) option ->
        let p = t.inst_proc in
        match eff with
        | Proc.Compute ->
            p.Proc.acct.(Proc.a_work_left) <- t.cost.(0);
            latch_compute t p;
            p.Proc.pending <- Proc.Work;
            park
        | Proc.Block _ ->
            p.Proc.pending <- Proc.Blocked;
            Proc.enqueue eff p;
            Trace.thread_state t.tracer ~pid:p.Proc.pid ~state:Trace.Sleeping;
            Sched.sleep t.sched p.Proc.thread;
            park
        | Proc.Sleep d ->
            p.Proc.pending <- Proc.Blocked;
            Trace.thread_state t.tracer ~pid:p.Proc.pid ~state:Trace.Sleeping;
            Sched.sleep t.sched p.Proc.thread;
            t.deadline.(0) <- t.clock.(0) +. d;
            ignore (Engine.schedule_to_staged t.engine (wake_target t) p);
            park
        | Proc.Yield ->
            p.Proc.pending <- Proc.Resume;
            Sched.requeue t.sched p.Proc.thread;
            t.force_resched <- true;
            park
        | _ -> None) }

let no_handler : (unit, unit) Effect.Deep.handler =
  { Effect.Deep.retc = ignore; exnc = raise; effc = (fun _ -> None) }

let create engine ?(ctx_switch_cost = 0.) ?(start_clock = true) () =
  let ledger = Ledger.create () in
  let t =
    { engine; clock = Engine.clock_cell engine;
      deadline = Engine.deadline_cell engine;
      sched = Sched.create ~clock:(Engine.clock_cell engine);
      ctx_switch_cost; hardq = ring_create (); softq = ring_create ();
      procs = Lrp_det.Itab.create 8; next_pid = 1;
      spare = Lrp_det.Pool.create Proc.none; exit_hook = ignore;
      job_fns = [||]; job_labels = [||];
      run_cls = c_idle; run_proc = Proc.none; inst_proc = Proc.none;
      handler = no_handler; run_ev = Engine.none; fl = Array.make 7 0.; cost = [| 0. |];
      cur_proc = Proc.none; last_user = -1; in_dispatch = d_out; redo = false;
      force_resched = false; seg_tgt = None; wake_tgt = None;
      n_ctx_switch = 0; n_soft_dispatch = 0; n_hard_dispatch = 0;
      created_at = Engine.now engine; tracer = Trace.null (); ledger;
      lamt = Ledger.amount_cell ledger; hint_cls = 0; hint_flow = -1 }
  in
  t.handler <- make_handler t;
  (* One dispatcher per event kind, registered once, so firing a segment
     or a sleep timer allocates nothing. *)
  t.seg_tgt <-
    Some
      (Engine.target engine (fun () ->
           let e = enter_tail t in
           segment_done t;
           leave t e));
  t.wake_tgt <-
    Some
      (Engine.target engine (fun p ->
           let e = enter_tail t in
           wake t p;
           leave t e));
  if start_clock then begin
    install_periodic t.engine ~delay:Sched.tick_interval (fun () -> tick t);
    install_periodic t.engine ~delay:Sched.decay_interval (fun () -> decay t)
  end;
  t

(* ------------------------------------------------------------------ *)
(* Public operations                                                   *)
(* ------------------------------------------------------------------ *)

(* A process from the pool: the newest reaped record and its thread,
   made new with the pid and tid a fresh one would draw; a new record
   when the pool is empty. *)
let spawn t ?nice ?working_set ~name body =
  let working_set = match working_set with Some w -> w | None -> 0. in
  let pid = t.next_pid and now = t.clock.(0) in
  let p = Lrp_det.Pool.take t.spare in
  let p =
    if p != Proc.none then begin
      Sched.readd_thread t.sched p.Proc.thread ?nice ();
      Proc.reinit p ~pid ~name ~working_set ~now body;
      p
    end
    else begin
      Lrp_det.Pool.count_made t.spare;
      let thread = Sched.add_thread t.sched ?nice () in
      Proc.make ~pid ~name ~thread ~working_set ~now body
    end
  in
  t.next_pid <- pid + 1;
  let thread = p.Proc.thread in
  Lrp_det.Itab.replace t.procs (Sched.tid thread) p;
  Ledger.set_name t.ledger ~pid name;
  Trace.thread_state t.tracer ~pid ~state:Trace.Spawned;
  let e = enter t in
  Sched.make_runnable t.sched thread;
  leave t e;
  p

let join (p : Proc.t) ~pid =
  if p.Proc.pid = pid && not p.Proc.exited then Proc.block p.Proc.exit_waiters

let wakeup_one t (wq : Proc.waitq) =
  let p = Proc.dequeue wq in
  p != Proc.none
  && begin
    let e = enter t in
    wake t p;
    leave t e;
    true
  end

let wakeup_all t (wq : Proc.waitq) =
  let e = enter t in
  let n = wake_queue t wq 0 in
  leave t e;
  n

let proc_count t = Lrp_det.Itab.length t.procs

let post_hard_job t ~tpkt (j : 'a job) (obj : 'a) arg =
  let e = enter t in
  push_back t.hardq t.cost ~tpkt ~poll:false j (Obj.repr obj) arg;
  leave t e

let post_hard_job_tail t ~tpkt (j : 'a job) (obj : 'a) arg =
  let e = enter_tail t in
  push_back t.hardq t.cost ~tpkt ~poll:false j (Obj.repr obj) arg;
  leave t e

let post_soft_job t ~tpkt ~poll (j : 'a job) (obj : 'a) arg =
  let e = enter t in
  push_back t.softq t.cost ~tpkt ~poll j (Obj.repr obj) arg;
  leave t e

(* The process-context compute entry points.  Each performs the one
   payload-free [Proc.Compute] effect for the cost staged in [cost.(0)]
   (nothing when it is not positive); the handler reads the cell, so the
   only allocation is the continuation the runtime makes per perform.
   [compute] is application work; [compute_proto] is receiver-context
   protocol work serving [flow]; [compute_poll] is ksoftirqd's NAPI poll
   work, ledgered as [Poll] against the polling process itself (Linux
   charges ksoftirqd, not the victim).  The class hint is set only when
   the effect fires and the handler (or the run-ahead below) consumes it
   synchronously, so it cannot leak onto another process's segment.

   Run-ahead (DESIGN §17): the running process is [cur_proc].  When this
   event is under a tail entry, no interrupt work is queued, the process
   is the one last on the CPU and the scheduler's pick, and the segment's
   end is provably the engine's next event, the effect would only park
   the process until that event resumes it.  Do here, in order, what the
   handler, [begin_timed] (no switch, so no penalty) and [segment_done]
   would have done, and let the process carry on.  The checks run
   cheapest first: CPU fields, the engine probe, the scheduler scan.  A
   failed probe ends the tail entry for the rest of the event: the
   segment [begin_timed] is about to arm for this process has the same
   deadline, so probing it again would only fail again. *)
let run_ahead_compute t =
  let p = t.cur_proc in
  t.in_dispatch = d_tail && t.hardq.len = 0 && t.softq.len = 0
  && t.last_user = p.Proc.pid && p != Proc.none
  && begin
    t.deadline.(0) <- t.clock.(0) +. t.cost.(0);
    Engine.staged_is_next t.engine
    || begin
      t.in_dispatch <- d_in;
      false
    end
  end
  && Sched.pick_tid t.sched = Sched.tid p.Proc.thread
  && begin
    latch_compute t p;
    t.run_cls <- c_user;
    if t.run_proc != p then t.run_proc <- p;
    t.fl.(f_left) <- t.cost.(0);
    t.fl.(f_started) <- t.clock.(0);
    Engine.advance_to_staged t.engine;
    ignore (close_segment t : int);
    p.Proc.acct.(Proc.a_work_left) <- 0.;
    t.redo <- false;
    t.force_resched <- false;
    true
  end

let[@inline] perform_compute t =
  if not (run_ahead_compute t) then Effect.perform Proc.Compute

let compute t = if t.cost.(0) > 0. then perform_compute t

let compute_proto t ~flow =
  if t.cost.(0) > 0. then begin
    t.hint_cls <- 1;
    t.hint_flow <- flow;
    perform_compute t
  end

let compute_poll t =
  if t.cost.(0) > 0. then begin
    t.hint_cls <- 2;
    perform_compute t
  end

let ledger t = t.ledger

let set_account (p : Proc.t) ~(owner : Proc.t) =
  if p.Proc.acct_owner != Proc.none then
    invalid_arg "Cpu.set_account: already charged to another process"; (* alloc: cold — error path *)
  Sched.set_account p.Proc.thread ~owner:owner.Proc.thread;
  p.Proc.acct_owner <- owner;
  owner.Proc.holds <- owner.Proc.holds + 1

let on_exit t f = t.exit_hook <- f

let proc_pool t = (Lrp_det.Pool.live t.spare, Lrp_det.Pool.spare t.spare)

let time_hard t = t.fl.(f_hard)
let time_soft t = t.fl.(f_soft)
let time_user t = t.fl.(f_user)
let time_poll t = t.fl.(f_poll)

let time_idle t =
  let elapsed = Engine.now t.engine -. t.created_at in
  Float.max 0. (elapsed -. t.fl.(f_hard) -. t.fl.(f_soft) -. t.fl.(f_user))

let context_switches t = t.n_ctx_switch
let softirq_dispatches t = t.n_soft_dispatch
let hardirq_dispatches t = t.n_hard_dispatch

let utilization t =
  let elapsed = Engine.now t.engine -. t.created_at in
  if elapsed <= 0. then 0.
  else (t.fl.(f_hard) +. t.fl.(f_soft) +. t.fl.(f_user)) /. elapsed

(* Tid order, which is spawn order: callers observe processes in a
   reproducible order. *)
let iter_procs t f = Lrp_det.Det.iter_sorted_int (fun _ p -> f p) t.procs

let counters t ~prefix =
  let i name v = (prefix ^ name, float_of_int v) in
  [ (prefix ^ ".time_hard_us", time_hard t);
    (prefix ^ ".time_soft_us", time_soft t);
    (prefix ^ ".time_user_us", time_user t);
    (prefix ^ ".time_idle_us", time_idle t);
    i ".ctx_switches" t.n_ctx_switch; i ".hard_dispatches" t.n_hard_dispatch;
    i ".soft_dispatches" t.n_soft_dispatch; i ".procs" (proc_count t) ]
  @ Sched.counters t.sched ~prefix:(prefix ^ ".sched")
