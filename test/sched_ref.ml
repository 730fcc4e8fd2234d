(* The reference model the scheduler is tested against: the 4.3BSD
   decay-usage policy over a plain list of threads, newest first, with an
   exiting thread filtered out of it.  [Sched] keeps its threads in an
   array in the same order; its picks, priorities and usage must agree
   with this model after any sequence of spawns, exits, wakeups, ticks
   and decays. *)

type state = Runnable | Sleeping | Exited

type th = {
  tid : int;
  nice : int;
  mutable p_cpu : float;
  mutable priority : int;
  mutable state : state;
  mutable seq : int;
  mutable sleep_start : float;
  mutable account : th option;
}

type t = {
  mutable threads : th list;
  mutable next_tid : int;
  mutable next_seq : int;
  mutable load : float;
  clock : float array;
}

let create ~clock =
  { threads = []; next_tid = 1; next_seq = 0; load = 0.; clock }

let recompute th =
  let o = Option.value th.account ~default:th in
  th.priority <-
    Int.max 50 (Int.min 127 (50 + (int_of_float o.p_cpu / 4) + (2 * o.nice)))

let add t ~nice =
  let th =
    { tid = t.next_tid; nice = Int.max (-20) (Int.min 20 nice); p_cpu = 0.;
      priority = 50; state = Sleeping; seq = 0; sleep_start = 0.;
      account = None }
  in
  t.next_tid <- t.next_tid + 1;
  recompute th;
  t.threads <- th :: t.threads;
  th

let factor t = 2. *. t.load /. ((2. *. t.load) +. 1.)

let make_runnable t th =
  if th.state = Sleeping then begin
    let slept = int_of_float ((t.clock.(0) -. th.sleep_start) /. 1_000_000.) in
    for _ = 1 to Int.min slept 20 do
      th.p_cpu <- th.p_cpu *. factor t
    done;
    recompute th;
    th.state <- Runnable;
    th.seq <- t.next_seq;
    t.next_seq <- t.next_seq + 1
  end

let sleep t th =
  th.state <- Sleeping;
  th.sleep_start <- t.clock.(0)

let exit_thread t th =
  th.state <- Exited;
  t.threads <- List.filter (fun o -> o.tid <> th.tid) t.threads

(* Lowest priority, then lowest [seq], then first in list order. *)
let pick_tid t =
  let best =
    List.fold_left
      (fun best th ->
        match best with
        | _ when th.state <> Runnable -> best
        | Some b
          when b.priority < th.priority
               || (b.priority = th.priority && b.seq <= th.seq) ->
            best
        | Some _ | None -> Some th)
      None t.threads
  in
  match best with Some th -> th.tid | None -> -1

let requeue t th =
  th.seq <- t.next_seq;
  t.next_seq <- t.next_seq + 1

let charge_tick th =
  let o = Option.value th.account ~default:th in
  o.p_cpu <- Float.min 255. (o.p_cpu +. 1.);
  recompute o;
  recompute th

let decay t =
  let runnable = List.filter (fun th -> th.state = Runnable) t.threads in
  t.load <- (0.8 *. t.load) +. (0.2 *. float_of_int (List.length runnable));
  List.iter
    (fun th ->
      th.p_cpu <- Float.max 0. ((factor t *. th.p_cpu) +. float_of_int th.nice);
      recompute th)
    t.threads
