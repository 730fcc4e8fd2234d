open Lrp_engine

let tick_interval = Time.ms 10.

let decay_interval = Time.sec 1.

let quantum_ticks = 10

let priority_user = 50

let priority_max = 127

type state = Runnable | Sleeping | Exited

type thread = {
  tid : int;
  name : string;
  mutable nice : int;
  p_cpu : float array;  (* 1-slot cell: a mutable float field would box *)
  mutable priority : int;
  mutable state : state;
  mutable enqueue_seq : int;
  mutable quantum : int;
  sleep_start : float array;  (* 1-slot cell: a float field would box *)
  mutable account : thread option;
  mutable ticks : int;
}

type t = {
  mutable threads : thread list;
  mutable next_tid : int;
  mutable next_seq : int;
  loadavg : float array;  (* 1-slot cell *)
  mutable best_prio : int;  (* priority of the thread [pick_tid] chose *)
  clock : float array;      (* slot 0 is now *)
}

let create ~clock =
  { threads = []; next_tid = 1; next_seq = 0; loadavg = [| 0. |]; best_prio = 0;
    clock }

let clamp (lo : int) hi x = if x < lo then lo else if x > hi then hi else x

let recompute_priority th =
  match th.account with
  | Some owner ->
      th.priority <-
        clamp priority_user priority_max
          (priority_user + (int_of_float owner.p_cpu.(0) / 4) + (2 * owner.nice))
  | None ->
      th.priority <-
        clamp priority_user priority_max
          (priority_user + (int_of_float th.p_cpu.(0) / 4) + (2 * th.nice))

(* alloc: cold — once per thread *)
let add_thread t ?(nice = 0) ~name () =
  let th =
    (* alloc: cold — once per thread *)
    { tid = t.next_tid; name; nice = clamp (-20) 20 nice;
      (* alloc: cold — once per thread *)
      p_cpu = [| 0. |];
      priority = priority_user; state = Sleeping; enqueue_seq = 0; quantum = 0;
      (* alloc: cold — once per thread *)
      sleep_start = [| Time.zero |]; account = None; ticks = 0 }
  in
  t.next_tid <- t.next_tid + 1;
  recompute_priority th;
  t.threads <- th :: t.threads; (* alloc: cold — once per thread *)
  th

let set_account th owner = th.account <- owner

let name th = th.name
let tid th = th.tid
let priority th = th.priority
let p_cpu th = th.p_cpu.(0)
let is_sleeping th = th.state = Sleeping
let ticks_charged th = th.ticks

let rec count_runnable n = function
  | [] -> n
  | th :: rest -> count_runnable (if th.state = Runnable then n + 1 else n) rest

let runnable_count t = count_runnable 0 t.threads

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
        int_of_float ((t.clock.(0) -. th.sleep_start.(0)) /. 1_000_000.)
      in
      if slept_sec > 0 then begin
        let load = t.loadavg.(0) in
        let f = 2. *. load /. ((2. *. load) +. 1.) in
        let cpu = th.p_cpu in
        for _ = 1 to Int.min slept_sec 20 do
          cpu.(0) <- cpu.(0) *. f
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
  th.sleep_start.(0) <- t.clock.(0)

let exit_thread t th =
  th.state <- Exited;
  (* alloc: cold — once per process exit *)
  t.threads <- List.filter (fun other -> other.tid <> th.tid) t.threads

(* The best runnable thread: lowest priority value, FIFO [enqueue_seq]
   among equals, first in list order on a full tie.  The scan carries the
   best so far in int arguments, so picking allocates nothing. *)
let rec scan t l btid bprio bseq =
  match l with
  | [] ->
      t.best_prio <- bprio;
      btid
  | th :: rest ->
      if th.state = Runnable
         && (btid < 0 || th.priority < bprio
             || (th.priority = bprio && th.enqueue_seq < bseq))
      then scan t rest th.tid th.priority th.enqueue_seq
      else scan t rest btid bprio bseq

let pick_tid t = scan t t.threads (-1) 0 0

let pick t =
  let tid = pick_tid t in
  if tid < 0 then None else List.find_opt (fun th -> th.tid = tid) t.threads

let should_preempt t ~current =
  let tid = pick_tid t in
  tid >= 0 && tid <> current.tid && t.best_prio < current.priority

let requeue t th =
  th.enqueue_seq <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  th.quantum <- 0

let charge_tick _t th =
  let target = match th.account with Some owner -> owner | None -> th in
  let cpu = target.p_cpu in
  let v = cpu.(0) +. 1. in
  cpu.(0) <- (if v > 255. then 255. else v);
  target.ticks <- target.ticks + 1;
  recompute_priority target;
  recompute_priority th;
  th.quantum <- th.quantum + 1

let quantum_expired th = th.quantum >= quantum_ticks

let reset_quantum th = th.quantum <- 0

(* Decay each thread's usage by [2*load / (2*load + 1)], the load read
   from its cell: a float argument or a closure over one would box. *)
let rec decay_threads loadavg = function
  | [] -> ()
  | th :: rest ->
      let load = loadavg.(0) in
      let f = 2. *. load /. ((2. *. load) +. 1.) in
      let cpu = th.p_cpu in
      cpu.(0) <- (f *. cpu.(0)) +. float_of_int th.nice;
      if cpu.(0) < 0. then cpu.(0) <- 0.;
      recompute_priority th;
      decay_threads loadavg rest

let decay t =
  (* Smooth the instantaneous runnable count into a load average, then decay
     every thread's usage, as 4.3BSD's schedcpu() does once per second. *)
  let inst = float_of_int (runnable_count t) in
  t.loadavg.(0) <- (0.8 *. t.loadavg.(0)) +. (0.2 *. inst);
  decay_threads t.loadavg t.threads

let load_average t = t.loadavg.(0)

let counters t ~prefix =
  [ (prefix ^ ".loadavg", t.loadavg.(0));
    (prefix ^ ".runnable", float_of_int (runnable_count t));
    (prefix ^ ".threads", float_of_int (List.length t.threads)) ]

