module Sched = Lrp_sched.Sched

(* A wait queue is its own [Block] effect value (below), so blocking
   performs the queue itself and builds nothing. *)
type waitq = unit Effect.t

type t = {
  pid : int;
  name : string;
  thread : Sched.thread;
  working_set_us : float;
  mutable pending : pending;
  mutable body : t -> unit;
  mutable k : (unit, unit) Effect.Deep.continuation;
  mutable exited : bool;
  acct : float array;
  exit_waiters : waitq;
  mutable wq_next : t;
  mutable lcls : int;
  mutable lflow : int;
}

and pending = Start | Work | Resume | Blocked | Done

(* [Block] is a FIFO of blocked processes linked through their
   [wq_next], circular: [tail] is the newest waiter and [tail.wq_next]
   the oldest. *)
type _ Effect.t +=
  | Compute : unit Effect.t
  | Block : { mutable tail : t } -> unit Effect.t
  | Sleep : float -> unit Effect.t
  | Yield : unit Effect.t

(* Slots of [acct].  Float-array slots are stored flat, where a mutable
   float field of this mixed record would box on every store. *)
let a_work_left = 0
let a_cpu = 1
let a_last_on_cpu = 2
let acct_slots = 3

(* Placeholder for [k] while no continuation is parked: never resumed,
   because [pending] only becomes [Resume] after a real one is stored. *)
let no_k : (unit, unit) Effect.Deep.continuation = Obj.magic ()

(* What [body] holds once the process has started, so the finished start
   closure is not pinned. *)
let started (_ : t) = ()

(* The process that is no process: [tail] of an empty queue, and the
   CPU's "nobody" in its running-process and curproc fields.  Never
   spawned, dispatched or charged, so nothing ever writes it; its pid is
   the ledger's idle context. *)
let none =
  let sched = Sched.create ~clock:[| 0. |] in
  let thread = Sched.add_thread sched () in
  let acct = Array.make acct_slots 0. in
  let rec none =
    { pid = -1; name = "(none)"; thread; working_set_us = 0.;
      pending = Start; body = started; k = no_k; exited = false; acct;
      exit_waiters = Block { tail = none }; wq_next = none;
      lcls = 0; lflow = -1 }
  in
  none

(* lint: unused-ok — perfbench names its queues; ROADMAP item 19 drops it *)
let waitq (_ : string) : waitq = Block { tail = none } (* alloc: cold — once per queue *)

let make ~pid ~name ~thread ~working_set ~now body =
  (* alloc: cold — once per process *)
  let acct = Array.make acct_slots 0. in
  acct.(a_last_on_cpu) <- now;
  let p =
    (* alloc: cold — once per process *)
    { pid; name; thread; working_set_us = working_set; pending = Start; body;
      k = no_k; exited = false; acct; exit_waiters = waitq "exit";
      wq_next = none; lcls = 0; lflow = -1 }
  in
  (* On no queue: linked to itself (a [let rec] would build the record
     twice). *)
  p.wq_next <- p;
  p

let cpu_time p = p.acct.(a_cpu)

(* A process on no queue links to itself, so appending to an empty queue
   stores only [tail], and taking its only waiter only clears it: the
   steady one-sleeper queue stores no link at all. *)
let enqueue (wq : unit Effect.t) p =
  match wq with
  | Block q ->
      let tl = q.tail in
      if tl != none then begin
        p.wq_next <- tl.wq_next;
        tl.wq_next <- p
      end;
      q.tail <- p
  | _ -> assert false (* a process blocks only by performing a [Block] *)

let dequeue (wq : waitq) =
  match wq with
  | Block q ->
      let tl = q.tail in
      if tl == none then none
      else begin
        let hd = tl.wq_next in
        if hd == tl then q.tail <- none
        else begin
          tl.wq_next <- hd.wq_next;
          hd.wq_next <- hd
        end;
        hd
      end
  | _ -> assert false (* [waitq] is private: every queue is a [Block] *)

let block (wq : waitq) = Effect.perform wq

let sleep_for d = Effect.perform (Sleep d)

let yield () = Effect.perform Yield
