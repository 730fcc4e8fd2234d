open Lrp_engine

let tick_interval = Time.ms 10.

let decay_interval = Time.sec 1.

let quantum_ticks = 10

let priority_user = 50

let priority_max = 127

type state = Runnable | Sleeping | Exited

(* The slots of a thread's float cell. *)
let p_cpu_slot = 0
let sleep_slot = 1

type thread = {
  mutable tid : int;
  mutable nice : int;
  fl : float array;
      (* [p_cpu] and [sleep_start], a 2-slot cell: a mutable float field
         would box *)
  mutable priority : int;
  mutable state : state;
  mutable enqueue_seq : int;
  mutable quantum : int;
  mutable account : thread;  (* whose [p_cpu] it is charged; [none]: its own *)
  mutable ticks : int;
}

(* The live threads, newest first: [threads.(n - 1)] down to
   [threads.(0)].  The order is part of the model: [decay] recomputes an
   accounted thread's priority from its owner's [p_cpu] part-way through
   the pass, and [pick_tid] breaks full ties by it.  Exit removes a thread
   in place, keeping the order, and [readd_thread] puts an exited thread's
   record back as the newest, so a process's lifecycle allocates
   nothing once its CPU's pool is warm. *)
type t = {
  mutable threads : thread array;
  mutable n : int;
  mutable next_tid : int;
  mutable next_seq : int;
  loadavg : float array;  (* 1-slot cell *)
  mutable best_prio : int;  (* priority of the thread [pick_tid] chose *)
  clock : float array;      (* slot 0 is now *)
}

(* The thread that is no thread: the empty slot, and the [account] of a
   thread charged to itself. *)
let rec none =
  { tid = -1; nice = 0; fl = [| 0.; 0. |]; priority = priority_user;
    state = Exited; enqueue_seq = 0; quantum = 0; account = none; ticks = 0 }

let create ~clock =
  { threads = [||]; n = 0; next_tid = 1; next_seq = 0; loadavg = [| 0. |]; best_prio = 0;
    clock }

let clamp (lo : int) hi x = if x < lo then lo else if x > hi then hi else x

let[@inline] target th = if th.account == none then th else th.account

let recompute_priority th =
  let o = target th in
  th.priority <-
    clamp priority_user priority_max
      (priority_user + (int_of_float o.fl.(p_cpu_slot) / 4) + (2 * o.nice))

(* Append [th] as the newest live thread. *)
let push t th =
  if t.n = Array.length t.threads then
    (* alloc: cold — amortized growth *)
    t.threads <- Array.append t.threads (Array.make (Int.max 8 t.n) none);
  t.threads.(t.n) <- th;
  t.n <- t.n + 1

(* [nice] as given, clamped; 0 when it is not. *)
let nice_of = function Some n -> clamp (-20) 20 n | None -> 0

let add_thread t ?nice () =
  let th =
    (* alloc: cold — once per pooled thread *)
    { tid = t.next_tid; nice = nice_of nice;
      (* alloc: cold — once per pooled thread *)
      fl = [| 0.; Time.zero |];
      priority = priority_user; state = Sleeping; enqueue_seq = 0; quantum = 0;
      account = none; ticks = 0 }
  in
  t.next_tid <- t.next_tid + 1;
  recompute_priority th;
  push t th;
  th

(* An exited thread's record made new: every field as [add_thread] sets
   it, the next tid drawn. *)
let readd_thread t th ?nice () =
  if th.state <> Exited then
    invalid_arg "Sched.readd_thread: thread is live"; (* alloc: cold — error path *)
  th.tid <- t.next_tid;
  th.nice <- nice_of nice;
  th.fl.(p_cpu_slot) <- 0.;
  th.state <- Sleeping;
  th.enqueue_seq <- 0;
  th.quantum <- 0;
  th.fl.(sleep_slot) <- Time.zero;
  th.account <- none;
  th.ticks <- 0;
  t.next_tid <- t.next_tid + 1;
  recompute_priority th;
  push t th

let set_account th ~owner = th.account <- owner

let tid th = th.tid
let priority th = th.priority
let p_cpu th = th.fl.(p_cpu_slot)
let is_sleeping th = th.state = Sleeping
let ticks_charged th = th.ticks

let rec count_runnable a i n =
  if i < 0 then n
  else count_runnable a (i - 1) (if a.(i).state = Runnable then n + 1 else n)

let runnable_count t = count_runnable t.threads (t.n - 1) 0

let make_runnable t th =
  match th.state with
  | Runnable -> ()
  | Exited ->
      invalid_arg "Sched.make_runnable: thread has exited" (* alloc: cold — error path *)
  | Sleeping ->
      (* 4.3BSD updatepri(): decay p_cpu once per whole second slept, so a
         thread that waits on I/O regains good priority.  (Seconds and
         the decay factor are spelled out: a call returning a float would
         box it.) *)
      let slept_sec =
        int_of_float ((t.clock.(0) -. th.fl.(sleep_slot)) /. 1_000_000.)
      in
      if slept_sec > 0 then begin
        let load = t.loadavg.(0) in
        let f = 2. *. load /. ((2. *. load) +. 1.) in
        let cpu = th.fl in
        for _ = 1 to Int.min slept_sec 20 do
          cpu.(p_cpu_slot) <- cpu.(p_cpu_slot) *. f
        done
      end;
      recompute_priority th;
      th.state <- Runnable;
      th.enqueue_seq <- t.next_seq;
      t.next_seq <- t.next_seq + 1;
      th.quantum <- 0

let sleep t th =
  if th.state = Exited then
    invalid_arg "Sched.sleep: thread has exited"; (* alloc: cold — error path *)
  th.state <- Sleeping;
  th.fl.(sleep_slot) <- t.clock.(0)

let rec index_of a th i = if i < 0 || a.(i) == th then i else index_of a th (i - 1)

let exit_thread t th =
  th.state <- Exited;
  let i = index_of t.threads th (t.n - 1) in
  if i >= 0 then begin
    Array.blit t.threads (i + 1) t.threads i (t.n - 1 - i);
    t.n <- t.n - 1;
    t.threads.(t.n) <- none
  end

(* The best runnable thread: lowest priority value, FIFO [enqueue_seq]
   among equals, newest first on a full tie.  The scan carries the best
   so far in int arguments, so picking allocates nothing. *)
let rec scan t i btid bprio bseq =
  if i < 0 then begin
    t.best_prio <- bprio;
    btid
  end
  else
    let th = t.threads.(i) in
    if th.state = Runnable
       && (btid < 0 || th.priority < bprio
           || (th.priority = bprio && th.enqueue_seq < bseq))
    then scan t (i - 1) th.tid th.priority th.enqueue_seq
    else scan t (i - 1) btid bprio bseq

let pick_tid t = scan t (t.n - 1) (-1) 0 0

let should_preempt t ~current =
  let tid = pick_tid t in
  tid >= 0 && tid <> current.tid && t.best_prio < current.priority

let requeue t th =
  th.enqueue_seq <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  th.quantum <- 0

let charge_tick th =
  let target = target th in
  let cpu = target.fl in
  let v = cpu.(p_cpu_slot) +. 1. in
  cpu.(p_cpu_slot) <- (if v > 255. then 255. else v);
  target.ticks <- target.ticks + 1;
  recompute_priority target;
  recompute_priority th;
  th.quantum <- th.quantum + 1

let quantum_expired th = th.quantum >= quantum_ticks

let reset_quantum th = th.quantum <- 0

(* Decay each thread's usage by [2*load / (2*load + 1)], newest first,
   the load read from its cell: a float argument would box. *)
let decay_threads t =
  for i = t.n - 1 downto 0 do
    let th = t.threads.(i) in
    let load = t.loadavg.(0) in
    let f = 2. *. load /. ((2. *. load) +. 1.) in
    let cpu = th.fl in
    cpu.(p_cpu_slot) <- (f *. cpu.(p_cpu_slot)) +. float_of_int th.nice;
    if cpu.(p_cpu_slot) < 0. then cpu.(p_cpu_slot) <- 0.;
    recompute_priority th
  done

let decay t =
  (* Smooth the instantaneous runnable count into a load average, then decay
     every thread's usage, as 4.3BSD's schedcpu() does once per second. *)
  let inst = float_of_int (runnable_count t) in
  t.loadavg.(0) <- (0.8 *. t.loadavg.(0)) +. (0.2 *. inst);
  decay_threads t

let load_average t = t.loadavg.(0)

let counters t ~prefix =
  [ (prefix ^ ".loadavg", t.loadavg.(0));
    (prefix ^ ".runnable", float_of_int (runnable_count t));
    (prefix ^ ".threads", float_of_int t.n) ]

