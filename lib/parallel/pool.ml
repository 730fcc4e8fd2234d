(* One process-wide set of parked worker domains, shared by every pool
   (and by Team's epoch barriers).  Spawning a domain costs hundreds of
   microseconds plus a minor heap, so the old design — each [with_pool]
   bracket spawning and joining its own workers — made short sweeps pay
   the spawn bill per batch.  Workers are now spawned on demand, never
   torn down, and idle between batches in a {!Spin} wait (poll the
   queued-job count briefly, then park in [Condition.wait]); a [Pool.t]
   is just a parallelism cap over the shared set.

   lib/parallel is the one sanctioned home for cross-domain module state
   (the lint C2 rule keeps lib/engine and lib/net free of it): everything
   below is either immutable, accessed under [shared.lock], or an atomic
   job cursor.  Determinism is untouched — jobs still receive no
   information about which domain ran them, and [map] still returns
   results by submission index. *)

type shared = {
  lock : Mutex.t;
  work_ready : Condition.t;      (* job queued, or process shutdown *)
  jobs : (unit -> unit) Queue.t;
  queued : int Atomic.t;         (* length of [jobs], +1 once [quit] is
                                    set: what idle workers spin on *)
  mutable spawned : int;         (* worker domains alive *)
  mutable reserved : int;        (* workers pinned by long-running jobs *)
  mutable handles : unit Domain.t list;
  mutable quit : bool;           (* set once, by the at_exit hook *)
}

let shared =
  { lock = Mutex.create (); work_ready = Condition.create ();
    jobs = Queue.create (); queued = Atomic.make 0; spawned = 0;
    reserved = 0; handles = []; quit = false }

(* Idle workers poll only while every domain of the process fits a core:
   with more, a polling worker could hold the core a busy one needs. *)
let idle_spin = Atomic.make true

let worker_loop () =
  let rec next () =
    Spin.until_ne ~spin:(Atomic.get idle_spin) ~lock:shared.lock
      ~cond:shared.work_ready shared.queued 0;
    Mutex.lock shared.lock;
    if Queue.is_empty shared.jobs then begin
      (* Quit, or another worker took the job first. *)
      let quit = shared.quit in
      Mutex.unlock shared.lock;
      if not quit then next ()
    end
    else begin
      let job = Queue.pop shared.jobs in
      Atomic.decr shared.queued;
      Mutex.unlock shared.lock;
      job ();
      next ()
    end
  in
  next ()

(* Park the workers and join them before the runtime shuts down, so the
   process never exits with domains mid-wait. *)
let () =
  at_exit (fun () ->
      Mutex.lock shared.lock;
      shared.quit <- true;
      Atomic.incr shared.queued;
      Condition.broadcast shared.work_ready;
      let hs = shared.handles in
      shared.handles <- [];
      Mutex.unlock shared.lock;
      List.iter Domain.join hs)

(* Grow the shared set until [n] workers are free of long-running
   reservations.  Spawn outside the lock: the counter is bumped first, so
   concurrent callers cannot double-spawn the same slot. *)
let ensure_free n =
  if n > 0 then begin
    Mutex.lock shared.lock;
    let missing = (shared.reserved + n) - shared.spawned in
    let missing = if shared.quit then 0 else max 0 missing in
    shared.spawned <- shared.spawned + missing;
    Atomic.set idle_spin (Spin.fits (shared.spawned + 1));
    Mutex.unlock shared.lock;
    if missing > 0 then begin
      let hs = List.init missing (fun _ -> Domain.spawn worker_loop) in
      Mutex.lock shared.lock;
      shared.handles <- hs @ shared.handles;
      Mutex.unlock shared.lock
    end
  end

let submit job =
  Mutex.lock shared.lock;
  Queue.add job shared.jobs;
  Atomic.incr shared.queued;
  Condition.signal shared.work_ready;
  Mutex.unlock shared.lock

let reserve_workers n =
  if n > 0 then begin
    ensure_free n;
    Mutex.lock shared.lock;
    shared.reserved <- shared.reserved + n;
    Mutex.unlock shared.lock
  end

let release_workers n =
  if n > 0 then begin
    Mutex.lock shared.lock;
    shared.reserved <- max 0 (shared.reserved - n);
    Mutex.unlock shared.lock
  end

let spawned_domains () =
  Mutex.lock shared.lock;
  let n = shared.spawned in
  Mutex.unlock shared.lock;
  n

(* --- the per-sweep view ------------------------------------------------ *)

type t = { n_domains : int }

let create ?domains () =
  let n =
    match domains with
    | Some n -> max 1 n
    | None -> Domain.recommended_domain_count ()
  in
  (* Warm the shared set now so the first [map] doesn't pay spawn cost. *)
  ensure_free (n - 1);
  { n_domains = n }

let domains t = t.n_domains

(* Workers are shared and persistent; a pool owns nothing to tear down. *)
let with_pool ?domains f = f (create ?domains ())

let map t f xs =
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | _ when t.n_domains = 1 -> List.map f xs
  | _ ->
      let arr = Array.of_list xs in
      let n = Array.length arr in
      let results = Array.make n None in
      let error = Atomic.make None in
      let cursor = Atomic.make 0 in
      let batch_lock = Mutex.create () in
      let batch_done = Condition.create () in
      let remaining = ref n in
      (* Runner task: claim job indices from the shared cursor until the
         batch is drained.  Results land by index, so completion order
         cannot leak into the output.  A runner popped by a worker after
         the batch already finished claims an out-of-range index and
         returns immediately. *)
      let rec runner () =
        let i = Atomic.fetch_and_add cursor 1 in
        if i < n then begin
          (if Atomic.get error = None then
             match f arr.(i) with
             | v -> results.(i) <- Some v
             | exception e ->
                 let bt = Printexc.get_raw_backtrace () in
                 ignore (Atomic.compare_and_set error None (Some (e, bt))));
          Mutex.lock batch_lock;
          decr remaining;
          if !remaining = 0 then Condition.broadcast batch_done;
          Mutex.unlock batch_lock;
          runner ()
        end
      in
      let helpers = min (t.n_domains - 1) (n - 1) in
      ensure_free helpers;
      Mutex.lock shared.lock;
      for _ = 1 to helpers do
        Queue.add runner shared.jobs
      done;
      ignore (Atomic.fetch_and_add shared.queued helpers);
      Condition.broadcast shared.work_ready;
      Mutex.unlock shared.lock;
      (* The caller is a runner too, then waits out helper stragglers. *)
      runner ();
      Mutex.lock batch_lock;
      while !remaining > 0 do
        Condition.wait batch_done batch_lock
      done;
      Mutex.unlock batch_lock;
      (match Atomic.get error with
       | Some (e, bt) -> Printexc.raise_with_backtrace e bt
       | None -> ());
      Array.to_list
        (Array.map
           (function Some v -> v | None -> assert false)
           results)

let map_reduce t ~map:f ~reduce ~init xs =
  List.fold_left reduce init (map t f xs)
