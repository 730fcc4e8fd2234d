(* Hierarchical timer wheel in front of {!Eheap}.

   The engine's dominant event pattern is short-horizon timers that are
   re-armed or cancelled before they fire (TCP retransmit/delack churn,
   per-packet NIC serialisation, CPU work segments).  A comparison heap
   pays an O(log n) sift on every schedule and again on every lazy-cancel
   pop; the wheel makes both O(1).

   Structure: [levels] wheels of [wheel_size] buckets each.  Level 0
   buckets span [granularity] microseconds of virtual time; each higher
   level is [wheel_size] times coarser.  An event lands in the finest
   level whose span still contains it; events beyond the top level's
   horizon overflow into the heap and are simply popped from there when
   their time comes (no heap-to-wheel migration is ever needed for
   correctness — the heap orders them exactly).

   Ordering is heap-equivalent by construction:

   - Every event is assigned a global sequence number at schedule time,
     whichever structure it lands in.  Bucket pours replay the original
     (key, seq) into the heap via {!Eheap.add_pre}, so FIFO among equal
     keys is decided exactly as if the event had been heap-inserted at
     schedule time.
   - All final pops come from the heap.  The invariant is: every pending
     event with key < low_edge (= cur_tick * granularity) lives in the
     heap.  [sync] turns the wheel — pouring due level-0 buckets and
     cascading higher-level buckets at their boundaries — until the heap
     minimum is strictly below low_edge (or the wheel is empty), at which
     point the heap minimum is the true global minimum: every wheel
     resident has key >= low_edge.  Equal keys can never straddle the
     pop boundary because the sync condition is strict.

   Cancellation stays lazy (the engine marks the slot), but the wheel
   consults a caller-installed [filter] when a bucket pours: entries the
   filter rejects are dropped in O(1) without ever touching the heap.
   This is the big win for TCP re-arm churn — a timer cancelled before
   its bucket comes up costs one array push and one filtered skip. *)

let bucket_bits = 8
let wheel_size = 1 lsl bucket_bits (* 256 buckets per level *)
let bucket_mask = wheel_size - 1
let levels = 3

let granularity = 16.0 (* us: level-0 bucket width *)
let inv_granularity = 1. /. granularity (* exact: granularity is a power of 2 *)

(* Level spans, in ticks: level 0 holds delta in [0, 2^8), level 1
   [2^8, 2^16), level 2 [2^16, 2^24); anything farther overflows. *)
let span_bits l = bucket_bits * (l + 1)
let top_span = 1 lsl (bucket_bits * levels)

type bucket = {
  mutable bkeys : float array;
  mutable bseqs : int array;
  mutable bvals : int array;
  mutable blen : int;
}

type t = {
  heap : Eheap.t; (* poured + overflow events, ordered by (key, seq) *)
  wheels : bucket array array; (* [level].(index) *)
  lcounts : int array; (* live entries per level, for empty-stretch jumps *)
  cell : float array;
  (* two-float scratch cell shared with the caller: [cell.(0)] carries the
     event key into [add_cell] and out of [pop_min_cell]; [cell.(1)]
     carries the current virtual time into [add_cell].  Float array
     loads/stores stay unboxed where float arguments and returns would be
     boxed at every call — this is what makes the steady-state
     schedule/fire cycle allocate zero minor words. *)
  mutable cur_tick : int;
  (* tick boundaries cached as floats, maintained by [set_tick]: the
     schedule and sync paths compare keys against them on every call, and
     recomputing [float_of_int cur_tick *. granularity] per operation is
     measurable on the hot path.  [edges] rather than mutable float fields:
     a float array keeps the stores unboxed in this mixed record.
       edges.(0) = low edge   = cur_tick * granularity
       edges.(1) = due edge   = (cur_tick + 1) * granularity
       edges.(2) = horizon    = (cur_tick + top_span) * granularity *)
  edges : float array;
  mutable wheel_count : int; (* entries currently resident in buckets *)
  mutable next_seq : int;
  mutable filter : int -> bool; (* false at pour time = drop the entry *)
  mutable use_wheel : bool;
  (* routing statistics, surfaced through Engine.timer_stats *)
  mutable n_wheel : int;   (* schedules routed to a bucket *)
  mutable n_heap : int;    (* schedules routed straight to the heap *)
  mutable n_skipped : int; (* cancelled entries dropped at pour time *)
}

let empty_bucket () =
  { bkeys = [||]; bseqs = [||]; bvals = [||]; blen = 0 }

let[@inline] set_tick t tick =
  t.cur_tick <- tick;
  let f = float_of_int tick in
  t.edges.(0) <- f *. granularity;
  t.edges.(1) <- (f +. 1.) *. granularity;
  t.edges.(2) <- float_of_int (tick + top_span) *. granularity

let create ?(wheel = true) () =
  let t =
    { heap = Eheap.create ();
      wheels =
        Array.init levels (fun _ ->
            Array.init wheel_size (fun _ -> empty_bucket ()));
      lcounts = Array.make levels 0;
      cell = Array.make 2 0.;
      cur_tick = 0; edges = Array.make 3 0.;
      wheel_count = 0; next_seq = 0;
      filter = (fun _ -> true); use_wheel = wheel;
      n_wheel = 0; n_heap = 0; n_skipped = 0 }
  in
  set_tick t 0;
  t

let cell t = t.cell

let set_filter t f = t.filter <- f

let length t = Eheap.length t.heap + t.wheel_count

let is_empty t = length t = 0

let scheduled_wheel t = t.n_wheel
let scheduled_heap t = t.n_heap
let skipped_at_pour t = t.n_skipped

let bucket_push b ~key ~seq v =
  let cap = Array.length b.bseqs in
  if b.blen = cap then begin
    let cap' = max 8 (2 * cap) in
    let bkeys = Array.make cap' 0. in (* alloc: cold — amortized growth *)
    let bseqs = Array.make cap' 0 in (* alloc: cold — amortized growth *)
    let bvals = Array.make cap' 0 in (* alloc: cold — amortized growth *)
    Array.blit b.bkeys 0 bkeys 0 b.blen;
    Array.blit b.bseqs 0 bseqs 0 b.blen;
    Array.blit b.bvals 0 bvals 0 b.blen;
    b.bkeys <- bkeys;
    b.bseqs <- bseqs;
    b.bvals <- bvals
  end;
  b.bkeys.(b.blen) <- key;
  b.bseqs.(b.blen) <- seq;
  b.bvals.(b.blen) <- v;
  b.blen <- b.blen + 1

(* Route one (cell.(0), seq, value) to its resting place given the
   current tick.  Used both for fresh schedules and for cascade
   redistribution.  The key travels in the scratch cell: a float-array
   load is unboxed where a float argument is boxed at every call.  The
   horizon test runs in floats before any int conversion, so huge keys
   never reach [int_of_float].

   Keys below the *due* edge — already expired, or expiring within the
   current tick — go straight to the heap: the bucket they would land in
   is the very next one poured, so bucketing them only adds a push, a
   pour, and a filter call to the path of every due-now event.  The sync
   invariant is unchanged: [sync] still pours the current tick's bucket
   before any key >= low edge is popped, so a heap-resident due event can
   never overtake an earlier (smaller seq) bucket resident with the same
   key. *)
let[@inline] place_cell t ~seq v =
  let key = t.cell.(0) in
  if key < t.edges.(1) || key >= t.edges.(2) then begin
    t.n_heap <- t.n_heap + 1;
    Eheap.add_pre_cell t.heap ~cell:t.cell ~seq v
  end
  else begin
    (* key >= 0 here (it is >= due edge >= 0), so truncation is floor *)
    let tick = int_of_float (key *. inv_granularity) in
    let delta = tick - t.cur_tick in
    let level =
      if delta < wheel_size then 0
      else if delta < 1 lsl span_bits 1 then 1
      else 2
    in
    let index = (tick lsr (bucket_bits * level)) land bucket_mask in
    t.n_wheel <- t.n_wheel + 1;
    t.wheel_count <- t.wheel_count + 1;
    t.lcounts.(level) <- t.lcounts.(level) + 1;
    bucket_push t.wheels.(level).(index) ~key ~seq v
  end

(* [add_cell t v] assigns the event its global sequence rank and routes
   it; the key arrives in [cell.(0)] and the current virtual time in
   [cell.(1)].  The time only matters when the wheel is idle: the
   current tick may lag far behind virtual time after a heap-only
   stretch, and snapping it forward (legal exactly when no bucket holds
   anything) keeps near-horizon schedules in the cheap path.  The snap
   itself is guarded by the cached due edge so the common case — virtual
   time still inside the current tick — costs one float compare, no
   conversion. *)
let[@inline] add_cell t v =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  if not t.use_wheel then begin
    t.n_heap <- t.n_heap + 1;
    Eheap.add_pre_cell t.heap ~cell:t.cell ~seq v
  end
  else begin
    if t.wheel_count = 0 && t.cell.(1) >= t.edges.(1) then
      set_tick t (int_of_float (t.cell.(1) *. inv_granularity));
    place_cell t ~seq v
  end

let add t ~now ~key v =
  t.cell.(0) <- key;
  t.cell.(1) <- now;
  add_cell t v

(* Drain one bucket, re-routing live entries and dropping filtered ones.
   [into_heap] pours (level-0 expiry); otherwise entries are re-placed
   a level down (cascade).  Either way each entry keeps its original
   (key, seq), threaded through the scratch cell. *)
let drain_bucket t ~level ~into_heap =
  let b =
    t.wheels.(level).((t.cur_tick lsr (bucket_bits * level)) land bucket_mask)
  in
  let n = b.blen in
  if n > 0 then begin
    b.blen <- 0;
    t.wheel_count <- t.wheel_count - n;
    t.lcounts.(level) <- t.lcounts.(level) - n;
    for i = 0 to n - 1 do
      let v = b.bvals.(i) in
      if t.filter v then begin
        t.cell.(0) <- b.bkeys.(i);
        if into_heap then
          Eheap.add_pre_cell t.heap ~cell:t.cell ~seq:b.bseqs.(i) v
        else place_cell t ~seq:b.bseqs.(i) v
      end
      else t.n_skipped <- t.n_skipped + 1
    done
  end

(* Advance the wheel by one level-0 bucket: pour the due bucket, step the
   tick, and cascade any higher-level bucket whose boundary we crossed.
   When the lower levels are provably empty we jump straight to the next
   cascade boundary instead of stepping through empty buckets: every
   level-k resident's tick lies below the next level-(k+1) boundary, so
   an empty level means nothing can be due before that boundary. *)
let advance t =
  drain_bucket t ~level:0 ~into_heap:true;
  if t.lcounts.(0) > 0 then set_tick t (t.cur_tick + 1)
  else if t.lcounts.(1) > 0 then
    set_tick t ((t.cur_tick lor bucket_mask) + 1)
  else set_tick t ((t.cur_tick lor ((1 lsl span_bits 1) - 1)) + 1);
  if t.cur_tick land bucket_mask = 0 then begin
    drain_bucket t ~level:1 ~into_heap:false;
    if t.cur_tick land ((1 lsl span_bits 1) - 1) = 0 then
      drain_bucket t ~level:2 ~into_heap:false
  end

(* Turn the wheel until the heap's minimum is the true global minimum:
   strictly below the low edge (every wheel resident is >= the low edge),
   or the wheel is empty.  The heap minimum is read through the scratch
   cell — [Eheap.min_key_or]'s boxed float return would cost two minor
   words per step. *)
(* A loop (not recursion) so the all-heap fast case — wheel empty, one
   compare — inlines into the pop path. *)
let[@inline] sync t =
  while
    t.wheel_count > 0
    && (not (Eheap.min_key_into t.heap ~cell:t.cell)
       || t.cell.(0) >= t.edges.(0))
  do
    advance t
  done

let min_key_or t ~default =
  sync t;
  (* alloc: cold — compat accessor (boxed float return); hot callers use min_key_into *)
  Eheap.min_key_or t.heap ~default

let min_key_into t ~cell =
  sync t;
  Eheap.min_key_into t.heap ~cell

(* [true] iff the queue is non-empty and its minimal key is <= [bound].
   Allocation-free replacement for [min_key_or t ~default:infinity <=
   bound] (whose float return is boxed). *)
let[@inline] min_key_leq t bound =
  sync t;
  Eheap.min_key_into t.heap ~cell:t.cell && t.cell.(0) <= bound

(* Pop the globally-minimal entry, leaving its key in [cell.(0)].
   Returns -1 when the queue is empty (after filtered entries have been
   dropped) — values stored in the wheel must therefore be >= 0, which
   engine handles always are. *)
let[@inline] pop_min_cell t =
  sync t;
  Eheap.pop_min_into t.heap ~cell:t.cell ~default:(-1)

(* Pop the globally-minimal entry iff its key is <= [bound]; -1
   otherwise.  Fuses [min_key_leq] and [pop_min_cell] into one sync and
   one heap-root access — this is the event loop's per-iteration
   operation, so halving the queue traffic is directly visible in
   events/sec. *)
let[@inline] pop_leq_cell t ~bound =
  sync t;
  Eheap.pop_leq_into t.heap ~bound ~cell:t.cell ~default:(-1)

(* [pop_leq_cell] with the bound passed through [cell.(1)] instead of a
   float argument: the batched dispatch loop pops once per event with a
   bound freshly loaded from the scratch cell, and boxing that bound at
   every call would cost two minor words per event.  [cell.(1)] is
   otherwise only read by [add_cell] at schedule time, so the caller just
   re-writes it before any pop that follows dispatched work. *)
let[@inline] pop_boundcell t =
  sync t;
  Eheap.pop_boundcell_into t.heap ~cell:t.cell ~default:(-1)

let pop_min t ~key_ref =
  let v = pop_min_cell t in
  if v < 0 then invalid_arg "Twheel.pop_min: empty queue"; (* alloc: cold — error path *)
  key_ref := t.cell.(0);
  v
