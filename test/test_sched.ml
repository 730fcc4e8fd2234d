(* Tests for the 4.3BSD decay-usage scheduler. *)

module Sched = Lrp_sched.Sched
open Lrp_engine

let mk () = Sched.create ~clock:[| 0. |]

let test_new_thread_priority () =
  let s = mk () in
  let th = Sched.add_thread s () in
  Alcotest.(check int) "fresh thread at PUSER" Sched.priority_user
    (Sched.priority th);
  Alcotest.(check bool) "starts sleeping" true (Sched.is_sleeping th)

let test_nice_worsens_priority () =
  let s = mk () in
  let a = Sched.add_thread s ~nice:0 () in
  let b = Sched.add_thread s ~nice:20 () in
  Alcotest.(check bool) "nice thread has worse (larger) priority" true
    (Sched.priority b > Sched.priority a);
  Alcotest.(check int) "nice +20 adds 40" (Sched.priority_user + 40)
    (Sched.priority b)

let test_pick_best_priority () =
  let s = mk () in
  let a = Sched.add_thread s ~nice:10 () in
  let b = Sched.add_thread s () in
  Sched.make_runnable s a;
  Sched.make_runnable s b;
  Alcotest.(check int) "picks low-nice thread" (Sched.tid b) (Sched.pick_tid s);
  Alcotest.(check int) "runnable count" 2 (Sched.runnable_count s)

let test_fifo_among_equals () =
  let s = mk () in
  let a = Sched.add_thread s () in
  let b = Sched.add_thread s () in
  Sched.make_runnable s a;
  Sched.make_runnable s b;
  Alcotest.(check int) "first enqueued wins ties" (Sched.tid a) (Sched.pick_tid s);
  Sched.requeue s a;
  Alcotest.(check int) "requeue rotates" (Sched.tid b) (Sched.pick_tid s)

let test_charge_tick_worsens_priority () =
  let s = mk () in
  let a = Sched.add_thread s () in
  Sched.make_runnable s a;
  let before = Sched.priority a in
  for _ = 1 to 40 do
    Sched.charge_tick a
  done;
  Alcotest.(check bool) "p_cpu accumulated" true (Sched.p_cpu a >= 40.);
  Alcotest.(check bool) "priority got worse" true (Sched.priority a > before);
  Alcotest.(check int) "40 ticks -> PUSER+10" (Sched.priority_user + 10)
    (Sched.priority a)

let test_priority_clamped () =
  let s = mk () in
  let a = Sched.add_thread s ~nice:20 () in
  for _ = 1 to 10_000 do
    Sched.charge_tick a
  done;
  Alcotest.(check int) "clamped at 127" 127 (Sched.priority a)

let test_decay_reduces_usage () =
  let s = mk () in
  let a = Sched.add_thread s () in
  Sched.make_runnable s a;
  for _ = 1 to 100 do
    Sched.charge_tick a
  done;
  let before = Sched.p_cpu a in
  Sched.decay s;
  Alcotest.(check bool) "usage decayed" true (Sched.p_cpu a < before)

let test_wakeup_boost () =
  (* A thread that slept for seconds comes back with decayed usage, hence
     better priority than a compute-bound peer: the BSD I/O-boost. *)
  let clock = [| 0. |] in
  let s = Sched.create ~clock in
  let sleeper = Sched.add_thread s () in
  let hog = Sched.add_thread s () in
  Sched.make_runnable s sleeper;
  Sched.make_runnable s hog;
  (* Both burn CPU for a while. *)
  for _ = 1 to 200 do
    Sched.charge_tick sleeper;
    Sched.charge_tick hog
  done;
  (* Build a nonzero load average so the wakeup decay has something to do. *)
  Sched.decay s;
  for _ = 1 to 100 do
    Sched.charge_tick sleeper;
    Sched.charge_tick hog
  done;
  clock.(0) <- Time.sec 1.;
  Sched.sleep s sleeper;
  clock.(0) <- Time.sec 9.;
  Sched.make_runnable s sleeper;
  Alcotest.(check bool) "sleeper priority better after long sleep" true
    (Sched.priority sleeper < Sched.priority hog)

let test_should_preempt () =
  let s = mk () in
  let a = Sched.add_thread s () in
  let b = Sched.add_thread s () in
  Sched.make_runnable s a;
  Sched.make_runnable s b;
  Alcotest.(check bool) "equal priority does not preempt" false
    (Sched.should_preempt s ~current:a);
  for _ = 1 to 80 do
    Sched.charge_tick a
  done;
  Alcotest.(check bool) "worse current is preempted" true
    (Sched.should_preempt s ~current:a)

let test_quantum () =
  let s = mk () in
  let a = Sched.add_thread s () in
  Sched.make_runnable s a;
  for _ = 1 to Sched.quantum_ticks - 1 do
    Sched.charge_tick a
  done;
  Alcotest.(check bool) "not yet expired" false (Sched.quantum_expired a);
  Sched.charge_tick a;
  Alcotest.(check bool) "expired after quantum_ticks" true (Sched.quantum_expired a);
  Sched.reset_quantum a;
  Alcotest.(check bool) "reset" false (Sched.quantum_expired a)

let test_account_redirection () =
  (* The LRP APP thread: charges accrue to the owner and the APP thread's
     priority mirrors the owner's. *)
  let s = mk () in
  let owner = Sched.add_thread s () in
  let app = Sched.add_thread s () in
  Sched.set_account app ~owner;
  for _ = 1 to 120 do
    Sched.charge_tick app
  done;
  Alcotest.(check bool) "owner was charged" true (Sched.p_cpu owner >= 120.);
  Alcotest.(check (float 0.)) "app's own p_cpu unchanged" 0. (Sched.p_cpu app);
  Alcotest.(check int) "app priority mirrors owner" (Sched.priority owner)
    (Sched.priority app);
  Alcotest.(check int) "owner got the tick count" 120 (Sched.ticks_charged owner)

let test_exit_thread () =
  let s = mk () in
  let a = Sched.add_thread s () in
  Sched.make_runnable s a;
  Sched.exit_thread s a;
  Alcotest.(check int) "no runnables" 0 (Sched.runnable_count s);
  Alcotest.(check bool) "pick is none" true (Sched.pick_tid s < 0)

let test_load_average_tracks_runnables () =
  let s = mk () in
  for _ = 1 to 3 do
    Sched.make_runnable s (Sched.add_thread s ())
  done;
  for _ = 1 to 50 do
    Sched.decay s
  done;
  Alcotest.(check bool) "load average converges to 3" true
    (Float.abs (Sched.load_average s -. 3.) < 0.05)

(* Property: decay is monotone — more load means usage is retained longer. *)
let prop_decay_monotone =
  QCheck.Test.make ~count:100 ~name:"sched: higher p_cpu stays higher after decay"
    QCheck.(pair (int_range 0 200) (int_range 0 200))
    (fun (u1, u2) ->
      let s = mk () in
      let a = Sched.add_thread s () in
      let b = Sched.add_thread s () in
      (* Inject usage via ticks. *)
      for _ = 1 to u1 do Sched.charge_tick a done;
      for _ = 1 to u2 do Sched.charge_tick b done;
      Sched.decay s;
      (* weakly monotone: decay (a scale by a common factor) preserves
         ordering, but may collapse it to equality at zero load *)
      (not (u1 >= u2)) || Sched.p_cpu a >= Sched.p_cpu b)

(* About a thousand threads spawned and exited in a seeded random order,
   with wakeups, sleeps, ticks (some through an owner's account),
   round-robins, decays and clock advances between them: after every step
   the pick agrees with the list-based reference (test/sched_ref.ml), and
   every live thread's priority and usage agree after every decay. *)
let test_matches_list_reference () =
  let clock = [| 0. |] in
  let s = Sched.create ~clock and r = Sched_ref.create ~clock in
  let rng = Random.State.make [| 42 |] in
  let live = ref [] in
  let pick () = List.nth !live (Random.State.int rng (List.length !live)) in
  let check_all what =
    List.iter
      (fun (th, rt) ->
        Alcotest.(check int) (what ^ ": priority") rt.Sched_ref.priority
          (Sched.priority th);
        Alcotest.(check (float 0.)) (what ^ ": p_cpu") rt.Sched_ref.p_cpu
          (Sched.p_cpu th))
      !live
  in
  let spawned = ref 0 in
  for step = 1 to 6_000 do
    let n = List.length !live in
    (match Random.State.int rng 10 with
     | 0 | 1 when !spawned < 1_000 ->
         let nice = Random.State.int rng 11 - 5 in
         let th = Sched.add_thread s ~nice () in
         let rt = Sched_ref.add r ~nice in
         if n > 0 && Random.State.bool rng then begin
           let oth, ort = pick () in
           Sched.set_account th ~owner:oth;
           rt.Sched_ref.account <- Some ort
         end;
         incr spawned;
         live := (th, rt) :: !live
     | 2 when n > 0 ->
         let th, rt = pick () in
         Sched.exit_thread s th;
         Sched_ref.exit_thread r rt;
         live := List.filter (fun (t, _) -> t != th) !live
     | 3 | 4 when n > 0 ->
         let th, rt = pick () in
         if Sched.is_sleeping th then begin
           Sched.make_runnable s th;
           Sched_ref.make_runnable r rt
         end
         else begin
           Sched.sleep s th;
           Sched_ref.sleep r rt
         end
     | 5 | 6 when n > 0 ->
         let th, rt = pick () in
         Sched.charge_tick th;
         Sched_ref.charge_tick rt
     | 7 when n > 0 ->
         let th, rt = pick () in
         Sched.requeue s th;
         Sched_ref.requeue r rt
     | 8 ->
         Sched.decay s;
         Sched_ref.decay r;
         check_all (Printf.sprintf "step %d decay" step)
     | _ -> clock.(0) <- clock.(0) +. Random.State.float rng 3_000_000.);
    Alcotest.(check int)
      (Printf.sprintf "step %d: pick_tid" step)
      (Sched_ref.pick_tid r) (Sched.pick_tid s)
  done;
  check_all "end";
  Alcotest.(check bool) "spawned about a thousand" true (!spawned >= 900)

let suite =
  [ Alcotest.test_case "fresh thread priority" `Quick test_new_thread_priority;
    Alcotest.test_case "nice worsens priority" `Quick test_nice_worsens_priority;
    Alcotest.test_case "pick chooses best priority" `Quick test_pick_best_priority;
    Alcotest.test_case "FIFO among equal priorities" `Quick test_fifo_among_equals;
    Alcotest.test_case "ticks worsen priority" `Quick test_charge_tick_worsens_priority;
    Alcotest.test_case "priority clamped at 127" `Quick test_priority_clamped;
    Alcotest.test_case "decay reduces usage" `Quick test_decay_reduces_usage;
    Alcotest.test_case "long sleepers get a wakeup boost" `Quick test_wakeup_boost;
    Alcotest.test_case "should_preempt" `Quick test_should_preempt;
    Alcotest.test_case "quantum expiry" `Quick test_quantum;
    Alcotest.test_case "APP-style account redirection" `Quick test_account_redirection;
    Alcotest.test_case "exit removes thread" `Quick test_exit_thread;
    Alcotest.test_case "load average tracks runnables" `Quick
      test_load_average_tracks_runnables;
    Alcotest.test_case "1,000 spawns and exits match the list reference"
      `Quick test_matches_list_reference ]
  @ [ QCheck_alcotest.to_alcotest prop_decay_monotone ]
