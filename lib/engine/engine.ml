(* Event records live in a slot table (parallel arrays) and are recycled
   through a free stack instead of being allocated per [schedule].  A handle
   is an immediate int packing (generation, slot): the generation is bumped
   when a slot is freed, so a stale handle held after its event fired (or
   was cancelled) can never touch the slot's next occupant.

   The pending queue is one binary heap ({!Eheap}) ordered by (key, seq),
   where seq is the engine's running schedule count: equal keys fire in
   schedule order.

   Each slot holds one work item.  Conceptually the item is the variant

     | Packet_rx of nic * pkt      (NIC delivery / tx-complete)
     | Softint of cpu              (CPU segment completion)
     | Timer of conn               (TCP retransmit / delack / persist)
     | Thunk of (unit -> unit)

   but allocating that variant per event is exactly the cost the fast path
   removes, so it is flattened into the slot table: a dispatcher id (the
   constructor, registered once per call site as a {!target}) plus a
   uniformly-represented argument (the payload).  [Thunk] is the built-in
   target [thunk_target], registered first, whose argument is the closure
   itself: every event dispatches through the same two columns.

   Slot states:
     free      — on the free stack, generation already bumped;
     pending   — scheduled, in the queue;
     cancelled — cancelled but still in the queue (lazy removal: the
                 entry is freed when it is popped, or when a compaction
                 sheds it);
     firing    — popped, its work item is executing; [reschedule] may
                 re-arm it, otherwise the slot is freed afterwards. *)

let slot_bits = 24
let slot_mask = (1 lsl slot_bits) - 1

let st_free = '\000'
let st_pending = '\001'
let st_cancelled = '\002'
let st_firing = '\003'

type handle = int

(* Never valid: slot 0xffffff with generation 0xffffff...; [valid] rejects
   it before any array access. *)
let none = -1

type 'a target = int

type timer_stats = {
  scheduled : int;        (* total events accepted by [schedule*] *)
  fired : int;            (* events whose work item actually ran *)
  cancelled : int;        (* events cancelled before firing *)
  routed_wheel : int;     (* always 0: there is no timer wheel *)
  routed_heap : int;      (* = scheduled: every event goes to the heap *)
}

(* The clock lives in a 1-slot float array: float arrays store doubles
   flat, so reads and writes of slot 0 stay unboxed, where a [mutable
   clock : float] field in the mixed record below would allocate a fresh
   box on every store (once per fired event).  The array (rather than a
   flat record) is deliberate: {!clock_cell} hands it to observers — the
   packed flight recorder stamps events by copying [cell.(0)] straight
   into its own float column, where the boxed-closure clock ({!clock})
   would allocate two words per read. *)
type t = {
  clock : float array;
  queue : Eheap.t;
  (* three-float scratch cell: [cell.(0)] carries event keys into and out
     of the queue, [cell.(1)] the pop bound, [cell.(2)] the run-ahead
     bound (see {!staged_is_next}): the batched run's bound while the
     last event of a batch fires, [neg_infinity] otherwise.  Float-array
     loads and stores stay unboxed where float arguments and returns are
     boxed at every call.  Per-engine, not global — engines run
     concurrently in separate domains during parallel sweeps. *)
  cell : float array;
  root_rng : Rng.t;
  mutable live_count : int;
  (* cancelled entries still queued; past [live_count + compact_slack]
     the next pop sheds them all in one {!Eheap.compact} *)
  mutable dead : int;
  (* the compaction filter, built once at [create] so passing it
     allocates nothing *)
  mutable shed : int -> bool;
  mutable executed : int;
  mutable n_scheduled : int;
  mutable n_cancelled : int;
  (* registered dispatchers for the typed fast path; each entry is the
     one-per-target closure that interprets the slot's argument *)
  mutable dispatchers : (Obj.t -> unit) array;
  mutable n_dispatchers : int;
  (* slot table *)
  mutable disp : int array;   (* dispatcher id *)
  mutable args : Obj.t array; (* dispatcher argument (the closure for thunks) *)
  mutable state : Bytes.t;
  mutable gens : int array;
  mutable free : int array; (* stack of free slots *)
  mutable free_top : int;
  (* scratch column for {!run}: handles of an equal-key run, popped
     together and dispatched through one loop.  Per-engine (engines run in
     separate domains during parallel sweeps) and reused across batches —
     it only ever grows, so the steady state allocates nothing. *)
  mutable batch : int array;
  mutable batch_active : bool;
  (* this engine's identifier streams (packet idents, channel / conn /
     socket ids); installed as the domain's current space at creation and
     re-installed by Shardsim before each advance window *)
  ids : Idspace.t;
}

let no_arg = Obj.repr 0

(* The dispatcher id of a plain thunk: [create] registers it first. *)
let thunk_target = 0
let run_thunk (f : unit -> unit) = f ()

let now t = t.clock.(0)
let clock_cell t = t.clock

let rng t = t.root_rng
let ids t = t.ids

let target (type a) t (f : a -> unit) : a target =
  let id = t.n_dispatchers in
  let cap = Array.length t.dispatchers in
  if id = cap then begin
    let cap' = Int.max 8 (2 * cap) in
    let d = Array.make cap' (fun (_ : Obj.t) -> ()) in (* alloc: cold — one-time registration *)
    Array.blit t.dispatchers 0 d 0 cap;
    t.dispatchers <- d
  end;
  (* Arguments are stored via [Obj.repr] (the identity on the value's
     uniform representation), so applying [f] magicked to [Obj.t -> unit]
     is exactly [f] on the original value. *)
  t.dispatchers.(id) <- (Obj.magic (f : a -> unit) : Obj.t -> unit);
  t.n_dispatchers <- id + 1;
  id

let grow t =
  let cap = Array.length t.gens in
  let cap' = Int.max 16 (2 * cap) in
  if cap' > slot_mask then failwith "Engine: too many pending events"; (* alloc: cold — error path *)
  let disp = Array.make cap' 0 in (* alloc: cold — amortized growth *)
  let args = Array.make cap' no_arg in (* alloc: cold — amortized growth *)
  let state = Bytes.make cap' st_free in (* alloc: cold — amortized growth *)
  let gens = Array.make cap' 0 in (* alloc: cold — amortized growth *)
  let free = Array.make cap' 0 in (* alloc: cold — amortized growth *)
  Array.blit t.disp 0 disp 0 cap;
  Array.blit t.args 0 args 0 cap;
  Bytes.blit t.state 0 state 0 cap;
  Array.blit t.gens 0 gens 0 cap;
  t.disp <- disp;
  t.args <- args;
  t.state <- state;
  t.gens <- gens;
  t.free <- free;
  (* Newly created slots go on the free stack. *)
  t.free_top <- 0;
  for slot = cap' - 1 downto cap do
    t.free.(t.free_top) <- slot;
    t.free_top <- t.free_top + 1
  done

let[@inline] alloc_slot t =
  if t.free_top = 0 then grow t;
  t.free_top <- t.free_top - 1;
  let slot = Array.unsafe_get t.free t.free_top in
  Bytes.unsafe_set t.state slot st_pending;
  slot

(* Clearing [args] prevents the freed slot from pinning the last event's
   payload (packets can be large).  An immediate argument pins nothing,
   so only a block is cleared: a slot re-armed with [()] (a CPU segment,
   say) then keeps [no_arg] and its next schedule skips the store.  A
   thunk's closure is left in place and overwritten by the slot's next
   occupant — a steady-state loop re-arming the same static thunk through
   the same slot then skips the [caml_modify] write barrier entirely (see
   [set_arg]).  The pinned closure is bounded by the slot table's size
   and is typically a static function.  [disp] is rewritten by every
   schedule, so it is left alone. *)
let[@inline] free_slot t slot =
  Array.unsafe_set t.gens slot (Array.unsafe_get t.gens slot + 1);
  if Array.unsafe_get t.disp slot <> thunk_target
     && Obj.is_block (Array.unsafe_get t.args slot)
  then Array.unsafe_set t.args slot no_arg;
  Bytes.unsafe_set t.state slot st_free;
  Array.unsafe_set t.free t.free_top slot;
  t.free_top <- t.free_top + 1

let[@inline] is_cancelled t h =
  Bytes.unsafe_get t.state (h land slot_mask) = st_cancelled

(* A cancelled entry has left the queue: recycle its slot. *)
let[@inline] free_cancelled t h =
  free_slot t (h land slot_mask);
  t.dead <- t.dead - 1

(* Cancelled entries may outnumber live ones by this much before a pop
   sheds them: enough that small queues never compact, small enough that
   TCP re-arm churn cannot grow the heap far past its live size. *)
let compact_slack = 64

let create ?(seed = 42) () =
  let t =
    { clock = [| Time.zero |]; queue = Eheap.create ();
      cell = [| 0.; 0.; Float.neg_infinity |];
      root_rng = Rng.create seed;
      live_count = 0; dead = 0; shed = (fun _ -> false);
      executed = 0; n_scheduled = 0; n_cancelled = 0;
      dispatchers = [||]; n_dispatchers = 0;
      disp = [||]; args = [||]; state = Bytes.empty; gens = [||];
      free = [||]; free_top = 0;
      batch = Array.make 16 0; batch_active = false;
      ids = Idspace.create () }
  in
  Idspace.use t.ids;
  ignore (target t run_thunk : (unit -> unit) target);
  t.shed <-
    (fun h ->
      is_cancelled t h
      && begin
        free_cancelled t h;
        true
      end);
  t

(* The event's firing time arrives in [cell.(0)] (written by the public
   wrappers below); an [~at : float] parameter would be boxed at every
   call.  The error paths may allocate freely. *)
let[@inline never] schedule_in_past name t =
  invalid_arg (* alloc: cold — error path *)
    (Printf.sprintf "Engine.%s: at=%.3f is before now=%.3f" name
       t.cell.(0) t.clock.(0))

(* The running schedule count doubles as the entry's FIFO rank. *)
let[@inline] enqueue t h =
  Eheap.add_cell t.queue ~cell:t.cell ~seq:t.n_scheduled h;
  t.live_count <- t.live_count + 1;
  t.n_scheduled <- t.n_scheduled + 1

let[@inline] enqueue_cell t slot =
  let h = (t.gens.(slot) lsl slot_bits) lor slot in
  enqueue t h;
  h

(* Store a slot's argument only when it changes: the recycled slot often
   still holds this exact value (a static thunk, [()], the same queue),
   and an unchanged pointer store would still pay [caml_modify].  An
   immediate over an immediate (a frame's row handle over the last one)
   creates and drops no pointer, so it is stored without the barrier. *)
let[@inline] set_arg t slot v =
  let old = Array.unsafe_get t.args slot in
  if old != v then
    if Obj.is_int v && Obj.is_int old then
      Array.unsafe_set (Obj.magic t.args : int array) slot (Obj.obj v : int)
    else Array.unsafe_set t.args slot v

let[@inline] schedule_cell t (fn : unit -> unit) =
  if t.cell.(0) < t.clock.(0) then schedule_in_past "schedule" t;
  let slot = alloc_slot t in
  t.disp.(slot) <- thunk_target;
  set_arg t slot (Obj.repr fn);
  enqueue_cell t slot

let schedule t ~at fn =
  t.cell.(0) <- at;
  schedule_cell t fn

let schedule_after t ~delay fn =
  t.cell.(0) <- t.clock.(0) +. delay;
  schedule_cell t fn

let[@inline] schedule_to_cell t tid v =
  if t.cell.(0) < t.clock.(0) then schedule_in_past "schedule_to" t;
  let slot = alloc_slot t in
  t.disp.(slot) <- tid;
  set_arg t slot (Obj.repr v);
  enqueue_cell t slot

let schedule_to t ~at (tid : _ target) v =
  t.cell.(0) <- at;
  schedule_to_cell t tid v

let schedule_to_after t ~delay tgt v =
  t.cell.(0) <- t.clock.(0) +. delay;
  schedule_to_cell t tgt v

(* Unboxed deadline path: the caller stores the deadline straight into
   [t.cell] (a float-array write never boxes) and schedules from it. *)
let deadline_cell t = t.cell

let schedule_to_staged t (tid : _ target) v = schedule_to_cell t tid v

(* A handle is valid while its generation matches the slot's: from
   [schedule] until the slot is freed (event fired without re-arm, or its
   cancelled entry left the queue). *)
let valid t h =
  let slot = h land slot_mask in
  slot < Array.length t.gens && t.gens.(slot) = h lsr slot_bits

let cancel t h =
  if valid t h then begin
    let slot = h land slot_mask in
    if Bytes.get t.state slot = st_pending then begin
      Bytes.set t.state slot st_cancelled;
      t.live_count <- t.live_count - 1;
      t.dead <- t.dead + 1;
      t.n_cancelled <- t.n_cancelled + 1
    end
  end

let is_pending t h =
  valid t h && Bytes.get t.state (h land slot_mask) = st_pending

(* As with [schedule_cell], the new firing time arrives in [cell.(0)]. *)
let reschedule_cell t h =
  if t.cell.(0) < t.clock.(0) then schedule_in_past "reschedule" t;
  let slot = h land slot_mask in
  if not (valid t h) || Bytes.get t.state slot <> st_firing then
    invalid_arg "Engine.reschedule: handle is not the currently-firing event"; (* alloc: cold — error path *)
  Bytes.set t.state slot st_pending;
  enqueue t h

let reschedule t h ~at =
  t.cell.(0) <- at;
  reschedule_cell t h

let reschedule_after t h ~delay =
  t.cell.(0) <- t.clock.(0) +. delay;
  reschedule_cell t h

let pending_events t = t.live_count

let events_executed t = t.executed

let timer_stats t =
  { scheduled = t.n_scheduled; fired = t.executed;
    cancelled = t.n_cancelled;
    routed_wheel = 0; routed_heap = t.n_scheduled }

(* Pop the next live entry whose key is <= [cell.(1)], leaving its key in
   [cell.(0)]; -1 when there is none.  Cancelled entries popped on the
   way are freed.  The compaction check sits here rather than in [cancel]:
   between batches every cancelled entry is still in the heap, so a
   compaction sheds all [dead] of them, where a cancel of a popped batch
   member could trigger one that finds nothing to shed. *)
let[@inline] pop_live t =
  if t.dead > t.live_count + compact_slack then Eheap.compact t.queue t.shed;
  let h = ref (Eheap.pop_leq_into t.queue ~cell:t.cell ~default:(-1)) in
  while !h >= 0 && is_cancelled t !h do
    free_cancelled t !h;
    h := Eheap.pop_leq_into t.queue ~cell:t.cell ~default:(-1)
  done;
  !h

(* Free the cancelled entries at the root, so that the root is live (or
   the queue empty).  No cell is written. *)
let shed_top t =
  let h = ref (Eheap.top t.queue ~default:(-1)) in
  while !h >= 0 && is_cancelled t !h do
    Eheap.drop_top t.queue;
    free_cancelled t !h;
    h := Eheap.top t.queue ~default:(-1)
  done

(* Earliest live key — the per-cell deadline Shardsim folds into its
   global epoch bound.  Cancelled entries at the root are shed first, so
   a cancelled timer never pulls the epoch bound below the next firing. *)
let next_key_into t ~cell =
  shed_top t;
  Eheap.min_into t.queue ~cell ~default:(-1) >= 0

(* Run-ahead (DESIGN §17).  An event staged at [cell.(0)] is the very
   next to fire when the firing event is the last of its batch in a
   batched run whose bound admits it ([cell.(2)] holds that bound then,
   [neg_infinity] otherwise) and every live queued key is strictly
   greater: an equal key was queued earlier, so it would fire first.
   Cancelled roots are shed only when the root's key is not greater. *)
let[@inline] staged_is_next t =
  t.cell.(0) <= t.cell.(2)
  && (Eheap.top_after t.queue ~cell:t.cell
      || (is_cancelled t (Eheap.top t.queue ~default:(-1))
          && begin
            shed_top t;
            Eheap.top_after t.queue ~cell:t.cell
          end))

(* The event completed inline still takes its FIFO rank and counts as
   executed, so every count reads as if it had been queued. *)
let advance_to_staged t =
  t.clock.(0) <- t.cell.(0);
  t.n_scheduled <- t.n_scheduled + 1;
  t.executed <- t.executed + 1

(* Run one popped handle's work item.  Unsafe accesses: a popped handle's
   slot was written by [alloc_slot], so it is always below the table's
   capacity. *)
let[@inline] dispatch t h =
  let slot = h land slot_mask in
  if Bytes.unsafe_get t.state slot = st_pending then begin
    Bytes.unsafe_set t.state slot st_firing;
    t.live_count <- t.live_count - 1;
    t.executed <- t.executed + 1;
    (Array.unsafe_get t.dispatchers (Array.unsafe_get t.disp slot))
      (Array.unsafe_get t.args slot);
    (* Unless the work item re-armed itself, recycle the record. *)
    if Bytes.unsafe_get t.state slot = st_firing then free_slot t slot
  end
  else free_cancelled t h (* cancelled by an earlier batch member *)

(* Fire a handle fresh from [pop_live]: its key is in [cell.(0)], read
   into the clock before dispatching because the work item may schedule
   and clobber the cell. *)
let[@inline] fire t h =
  t.clock.(0) <- t.cell.(0);
  dispatch t h

let step t =
  t.cell.(1) <- Float.infinity;
  t.cell.(2) <- Float.neg_infinity;
  let h = pop_live t in
  h >= 0
  && begin
    fire t h;
    true
  end

let run_while t pred ~until =
  (* A plain while over a deref-only ref (no closure, the ref compiles to
     a mutable variable) rather than a local [let rec loop], which would
     capture [pred]/[until] in a heap-allocated closure per call. *)
  let running = ref true in
  t.cell.(2) <- Float.neg_infinity;
  while !running && pred () do
    t.cell.(1) <- until;
    let h = pop_live t in
    if h >= 0 then fire t h
    else begin
      (* Queue exhausted up to [until]: the virtual interval elapsed. *)
      if t.clock.(0) < until then t.clock.(0) <- until;
      running := false
    end
  done

(* Batched dispatch.  Pops the maximal run of *equal-key* ready events
   into the scratch column in one go, then dispatches them through a
   single loop — the queue's root reads are paid once per key instead of
   once per event.

   An equal-key run is the largest slice that can be pre-popped without
   risking reorder: the next queue minimum after popping key [k] is
   >= k, so popping with [k] as the bound means *equal* — and anything a
   batched handler schedules at [k] receives a larger FIFO seq, placing
   it after the whole batch exactly as a one-at-a-time loop would.  A
   handler cancelling a not-yet-dispatched batch member is also
   preserved: the slot is marked cancelled and [dispatch] frees it
   without firing.  Firing order is therefore exactly (key, seq).

   [batch_active] guards re-entrancy: an event that itself calls
   [run]/[drain] (nested simulation) falls back to the un-batched loop
   rather than clobbering the scratch column mid-iteration.  Only the
   last event of a batch may run ahead: its run's bound is staged in
   [cell.(2)] while it fires, and every other event (earlier batch
   members, [step], [run_while], a nested run) sees [neg_infinity].  [snap]
   distinguishes {!run} (clock advances to [until] when the queue runs
   dry first) from {!drain} ([until] is [infinity]; the clock stays at
   the last fired event).

   [until] arrives staged in [cell.(0)], like a scheduling deadline: a
   float argument would box per call.  It is read once, before the queue
   reuses the slot as its key carrier. *)
let run_loop t ~snap =
  let until = t.cell.(0) in
  if t.batch_active then run_while t (fun () -> true) ~until
  else begin
    t.batch_active <- true;
    (try
       let continue = ref true in
       while !continue do
         (* Dispatched work may have popped (a nested run), so the bound
            in [cell.(1)] is re-written before every batch. *)
         t.cell.(1) <- until;
         let h0 = pop_live t in
         if h0 < 0 then continue := false
         else begin
           let k = t.cell.(0) in
           t.batch.(0) <- h0;
           let n = ref 1 in
           let more = ref true in
           (* No handler runs during collection, so one write suffices. *)
           t.cell.(1) <- k;
           while !more do
             let h = pop_live t in
             if h < 0 then more := false
             else begin
               if !n = Array.length t.batch then begin
                 let b = Array.make (2 * !n) 0 in (* alloc: cold — amortized growth *)
                 Array.blit t.batch 0 b 0 !n;
                 t.batch <- b
               end;
               t.batch.(!n) <- h;
               incr n
             end
           done;
           t.clock.(0) <- k;
           let n = !n in
           let last = n - 1 in
           (* A batch of one, the common case, skips the loop: its
              per-event test measured about 2% of NAPI's wall time. *)
           if last = 0 then begin
             t.cell.(2) <- until;
             dispatch t h0
           end
           else
             for i = 0 to last do
               if i = last then t.cell.(2) <- until;
               dispatch t t.batch.(i)
             done;
           t.cell.(2) <- Float.neg_infinity
         end
       done
     with e ->
       t.batch_active <- false;
       t.cell.(2) <- Float.neg_infinity;
       raise e);
    t.batch_active <- false;
    if snap && t.clock.(0) < until then t.clock.(0) <- until
  end

let run t ~until =
  t.cell.(0) <- until;
  run_loop t ~snap:true

let run_staged t = run_loop t ~snap:true

(* Takes no float argument, so a hot caller pays no boxing for the
   bound — the whole schedule-batch-then-drain cycle stays at zero words
   per event. *)
let drain t =
  t.cell.(0) <- infinity;
  run_loop t ~snap:false
