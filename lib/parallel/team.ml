(* Reusable domain team with an epoch barrier, built on Pool's shared
   worker set.

   Pool.map is shaped for one-shot batches: per-batch queueing, one job
   per element.  A sharded simulation (Shardsim) instead runs *thousands*
   of tiny epochs against the same member set — each epoch every member
   advances its shard to a common bound, then all meet at a barrier.  A
   Team keeps its members waiting on worker domains between epochs, so an
   epoch costs one epoch bump and one completion wait instead of per-job
   queue traffic.  Both waits are {!Spin} waits: a member polls the epoch
   counter, and the caller the pending count, before parking.  An epoch
   is tens of microseconds of work, about what a futex wake-up and the
   reschedule after it cost, so on a machine with a core per member most
   epochs never sleep.

   Members are pinned pool workers: [create] reserves size-1 workers from
   the shared set (growing it if needed) and parks a member loop on each;
   [shutdown] releases them back to the pool.  The caller is member 0 of
   every [run], so a team of [size] gives [size]-way parallelism. *)

type t = {
  size : int;
  lock : Mutex.t;
  go : Condition.t;        (* a new epoch was published, or shutdown *)
  finished : Condition.t;  (* the epoch's last member completed *)
  mutable fn : int -> unit;
  epoch : int Atomic.t;    (* bumped per run, and once by shutdown *)
  pending : int Atomic.t;  (* members still working this epoch *)
  mutable stopped : bool;
  mutable error : (exn * Printexc.raw_backtrace) option;
}

let nop _ = ()

let record_error t ex bt =
  Mutex.lock t.lock;
  (match t.error with
   | None -> t.error <- Some (ex, bt) (* alloc: cold — error path *)
   | Some _ -> ());
  Mutex.unlock t.lock

(* Parked on a pool worker for the team's lifetime: wait for the epoch
   to move, run the epoch's function with this member's index, check in,
   wait again.  [fn] and [stopped] are written before the epoch bump that
   publishes them, so reading them after seeing the bump is race-free. *)
let member t idx =
  let rec loop last =
    Spin.until_ne ~spin:(Spin.fits t.size) ~lock:t.lock ~cond:t.go t.epoch
      last;
    if not t.stopped then begin
      let e = Atomic.get t.epoch in
      (try t.fn idx
       with ex -> record_error t ex (Printexc.get_raw_backtrace ()));
      if Atomic.fetch_and_add t.pending (-1) = 1 then begin
        Mutex.lock t.lock;
        Condition.broadcast t.finished;
        Mutex.unlock t.lock
      end;
      loop e
    end
  in
  loop 0

let create ~size =
  let size = max 1 size in
  let t =
    { size; lock = Mutex.create (); go = Condition.create ();
      finished = Condition.create (); fn = nop; epoch = Atomic.make 0;
      pending = Atomic.make 0; stopped = false; error = None }
  in
  if size > 1 then begin
    Pool.reserve_workers (size - 1);
    for i = 1 to size - 1 do
      Pool.submit (fun () -> member t i)
    done
  end;
  t

let size t = t.size

let run t f =
  if t.stopped then invalid_arg "Team.run: team is shut down"; (* alloc: cold — error path *)
  if t.size = 1 then f 0
  else begin
    t.fn <- f;
    Atomic.set t.pending (t.size - 1);
    Mutex.lock t.lock;
    Atomic.incr t.epoch;
    Condition.broadcast t.go;
    Mutex.unlock t.lock;
    (try f 0 with ex -> record_error t ex (Printexc.get_raw_backtrace ()));
    Spin.until_eq ~spin:(Spin.fits t.size) ~lock:t.lock ~cond:t.finished
      t.pending 0;
    t.fn <- nop;
    match t.error with
    | Some (ex, bt) ->
        t.error <- None;
        Printexc.raise_with_backtrace ex bt
    | None -> ()
  end

let shutdown t =
  if not t.stopped then begin
    Mutex.lock t.lock;
    t.stopped <- true;
    Atomic.incr t.epoch;
    Condition.broadcast t.go;
    Mutex.unlock t.lock;
    if t.size > 1 then Pool.release_workers (t.size - 1)
  end
