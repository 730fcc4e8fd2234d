module Sched = Lrp_sched.Sched

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
  mutable lcls : int;
  mutable lflow : int;
}

and pending = Start | Work | Resume | Blocked | Done

and waitq = { mutable waiters : t list }

type _ Effect.t +=
  | Compute : unit Effect.t
  | Block : waitq -> unit Effect.t
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

let waitq (_ : string) = { waiters = [] } (* alloc: cold — once per queue *)

let make ~pid ~name ~thread ~working_set ~now body =
  (* alloc: cold — once per process *)
  let acct = Array.make acct_slots 0. in
  acct.(a_last_on_cpu) <- now;
  (* alloc: cold — once per process *)
  { pid; name; thread; working_set_us = working_set; pending = Start; body;
    k = no_k; exited = false; acct; exit_waiters = waitq "exit";
    lcls = 0; lflow = -1 }

let cpu_time p = p.acct.(a_cpu)

let block wq = Effect.perform (Block wq)

let sleep_for d = Effect.perform (Sleep d)

let yield () = Effect.perform Yield
