(* Unit and property tests for the discrete-event engine. *)

open Lrp_engine

let check_float = Alcotest.(check (float 1e-9))

let test_time_units () =
  check_float "ms" 1_000. (Time.ms 1.);
  check_float "sec" 1_000_000. (Time.sec 1.);
  check_float "to_sec" 2.5 (Time.to_sec (Time.sec 2.5));
  check_float "to_ms" 42. (Time.to_ms (Time.us 42_000.))

let test_schedule_order () =
  let eng = Engine.create () in
  let log = ref [] in
  let record tag () = log := tag :: !log in
  ignore (Engine.schedule eng ~at:30. (record "c"));
  ignore (Engine.schedule eng ~at:10. (record "a"));
  ignore (Engine.schedule eng ~at:20. (record "b"));
  Engine.run eng ~until:100.;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log);
  check_float "clock advanced to until" 100. (Engine.now eng)

let test_fifo_ties () =
  let eng = Engine.create () in
  let log = ref [] in
  for i = 0 to 9 do
    ignore (Engine.schedule eng ~at:5. (fun () -> log := i :: !log))
  done;
  Engine.run eng ~until:10.;
  Alcotest.(check (list int)) "fifo among equal keys"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !log)

let test_cancel () =
  let eng = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule eng ~at:10. (fun () -> fired := true) in
  Alcotest.(check bool) "pending" true (Engine.is_pending eng h);
  Engine.cancel eng h;
  Alcotest.(check bool) "not pending" false (Engine.is_pending eng h);
  Engine.cancel eng h (* double cancel is a no-op *);
  Engine.run eng ~until:100.;
  Alcotest.(check bool) "cancelled event did not fire" false !fired;
  Alcotest.(check int) "no live events" 0 (Engine.pending_events eng)

let test_schedule_from_event () =
  let eng = Engine.create () in
  let times = ref [] in
  ignore
    (Engine.schedule eng ~at:10. (fun () ->
         times := Engine.now eng :: !times;
         ignore
           (Engine.schedule_after eng ~delay:5. (fun () ->
                times := Engine.now eng :: !times))));
  Engine.run eng ~until:100.;
  Alcotest.(check (list (float 1e-9))) "chained" [ 10.; 15. ] (List.rev !times)

let test_schedule_past_rejected () =
  let eng = Engine.create () in
  ignore (Engine.schedule eng ~at:50. (fun () -> ()));
  Engine.run eng ~until:60.;
  Alcotest.check_raises "past scheduling rejected"
    (Invalid_argument "Engine.schedule: at=10.000 is before now=60.000")
    (fun () -> ignore (Engine.schedule eng ~at:10. (fun () -> ())))

let test_run_while () =
  let eng = Engine.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    ignore (Engine.schedule_after eng ~delay:1. tick)
  in
  ignore (Engine.schedule eng ~at:0. tick);
  Engine.run_while eng (fun () -> !count < 5) ~until:1000.;
  Alcotest.(check int) "stopped by predicate" 5 !count

let test_run_while_clock_on_early_stop () =
  let eng = Engine.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    ignore (Engine.schedule_after eng ~delay:1. tick)
  in
  ignore (Engine.schedule eng ~at:0. tick);
  Engine.run_while eng (fun () -> !count < 5) ~until:1000.;
  (* The predicate stopped the loop at the fifth event (t=4); the clock
     must not have jumped ahead to [until]. *)
  check_float "clock stays at the last fired event" 4. (Engine.now eng);
  (* ... so continuing the simulation before [until] is still legal. *)
  ignore (Engine.schedule eng ~at:10. (fun () -> ()));
  Engine.run eng ~until:20.;
  check_float "resumed run advances normally" 20. (Engine.now eng)

let test_reschedule_periodic () =
  let eng = Engine.create () in
  let count = ref 0 in
  let times = ref [] in
  let handle = ref None in
  let tick () =
    incr count;
    times := Engine.now eng :: !times;
    if !count < 4 then
      match !handle with
      | Some h -> Engine.reschedule_after eng h ~delay:10.
      | None -> ()
  in
  handle := Some (Engine.schedule eng ~at:10. tick);
  Engine.run eng ~until:1000.;
  Alcotest.(check int) "fired four times" 4 !count;
  Alcotest.(check (list (float 1e-9)))
    "periodic timestamps" [ 10.; 20.; 30.; 40. ] (List.rev !times);
  Alcotest.(check int) "nothing left pending" 0 (Engine.pending_events eng)

let test_reschedule_outside_callback () =
  let eng = Engine.create () in
  let h = Engine.schedule eng ~at:10. (fun () -> ()) in
  Alcotest.check_raises "re-arm only valid while firing"
    (Invalid_argument
       "Engine.reschedule: handle is not the currently-firing event")
    (fun () -> Engine.reschedule eng h ~at:20.)

let test_stale_handle_safety () =
  let eng = Engine.create () in
  (* Fire an event; its slot goes back on the free stack. *)
  let h1 = Engine.schedule eng ~at:10. (fun () -> ()) in
  Engine.run eng ~until:20.;
  Alcotest.(check bool) "fired handle no longer pending" false
    (Engine.is_pending eng h1);
  (* The very next schedule recycles that slot; the stale handle must not
     be able to touch the new occupant. *)
  let fired = ref false in
  let h2 = Engine.schedule eng ~at:30. (fun () -> fired := true) in
  Engine.cancel eng h1;
  Alcotest.(check bool) "stale cancel left the new event pending" true
    (Engine.is_pending eng h2);
  Engine.run eng ~until:40.;
  Alcotest.(check bool) "new event fired" true !fired

let test_events_executed () =
  let eng = Engine.create () in
  for i = 1 to 7 do
    ignore (Engine.schedule eng ~at:(float_of_int i) (fun () -> ()))
  done;
  Engine.run eng ~until:100.;
  Alcotest.(check int) "executed" 7 (Engine.events_executed eng)

(* --- one event queue: far re-arms, all-cancelled queues, compaction -- *)

let test_reschedule_far () =
  (* One periodic event re-arms itself 1e9 us ahead and then 10 us ahead;
     the slot and thunk are reused throughout. *)
  let eng = Engine.create () in
  let times = ref [] in
  let h = ref Engine.none in
  let count = ref 0 in
  h :=
    Engine.schedule eng ~at:10. (fun () ->
        times := Engine.now eng :: !times;
        incr count;
        if !count = 1 then Engine.reschedule_after eng !h ~delay:1e9
        else if !count = 2 then Engine.reschedule_after eng !h ~delay:10.);
  Engine.run eng ~until:2e9;
  Alcotest.(check (list (float 1e-9)))
    "near -> far -> near re-arm timestamps"
    [ 10.; 1_000_000_010.; 1_000_000_020. ]
    (List.rev !times);
  Alcotest.(check int) "slot fully retired" 0 (Engine.pending_events eng)

(* Schedule [n] no-op events at [at] and cancel them all: enough cancelled
   entries (more than the live ones plus the engine's slack of 64) that
   the next pop compacts the heap. *)
let bury eng ~at n =
  List.iter (Engine.cancel eng)
    (List.init n (fun _ -> Engine.schedule eng ~at (fun () -> ())))

let test_step_on_all_cancelled_queue () =
  (* [step] pops past cancelled entries and reports [false] only when
     nothing fired — with one cancelled entry, and with enough of them to
     force a compaction in front of a single live event. *)
  let eng = Engine.create () in
  let h = Engine.schedule eng ~at:20. (fun () -> ()) in
  Engine.cancel eng h;
  Alcotest.(check bool) "step sees an (effectively) empty queue" false
    (Engine.step eng);
  bury eng ~at:30. 200;
  let fired = ref 0 in
  ignore (Engine.schedule eng ~at:40. (fun () -> incr fired));
  bury eng ~at:50. 200;
  Alcotest.(check bool) "step fires the one live event" true (Engine.step eng);
  Alcotest.(check int) "fired once" 1 !fired;
  check_float "clock at the live event" 40. (Engine.now eng);
  Alcotest.(check bool) "then reports empty" false (Engine.step eng);
  check_float "cancelled keys never move the clock" 40. (Engine.now eng);
  Alcotest.(check int) "nothing pending" 0 (Engine.pending_events eng)

let test_fifo_ties_with_cancelled () =
  (* Five events share one key with 150 cancelled neighbours interleaved
     at the same key; two of the five are cancelled too.  The compaction
     that sheds the neighbours must keep the survivors in schedule
     order. *)
  let eng = Engine.create () in
  let log = ref [] in
  let hs =
    List.init 5 (fun i ->
        let h =
          Engine.schedule eng ~at:1_000_000. (fun () -> log := i :: !log)
        in
        bury eng ~at:1_000_000. 30;
        h)
  in
  Engine.cancel eng (List.nth hs 1);
  Engine.cancel eng (List.nth hs 3);
  Engine.run eng ~until:2_000_000.;
  Alcotest.(check (list int)) "FIFO among survivors" [ 0; 2; 4 ]
    (List.rev !log)

let test_handle_valid_across_compaction () =
  (* A far event's handle stays pending and cancellable while compactions
     shed cancelled entries around it, and the stale handles of the shed
     entries cannot touch the events that recycle their slots. *)
  let eng = Engine.create () in
  let far = Engine.schedule eng ~at:5_000_000. (fun () -> ()) in
  let observations = ref [] in
  let observe () = observations := Engine.is_pending eng far :: !observations in
  let stale = List.init 100 (fun _ -> Engine.schedule eng ~at:50. observe) in
  List.iter (Engine.cancel eng) stale;
  List.iter
    (fun t -> ignore (Engine.schedule eng ~at:t observe))
    [ 100.; 1_000_000.; 4_900_000. ];
  Engine.run eng ~until:200.;
  let fresh = ref 0 in
  let recycled =
    List.init 100 (fun _ ->
        Engine.schedule eng ~at:300. (fun () -> incr fresh))
  in
  List.iter (Engine.cancel eng) stale;
  Alcotest.(check bool) "stale cancels leave recycled slots pending" true
    (List.for_all (Engine.is_pending eng) recycled);
  Engine.run eng ~until:4_950_000.;
  Alcotest.(check int) "recycled events fired" 100 !fresh;
  Alcotest.(check (list bool)) "far event pending throughout"
    [ true; true; true ] !observations;
  Engine.cancel eng far;
  Engine.run eng ~until:6_000_000.;
  Alcotest.(check int) "cancel after compaction still lands" 0
    (Engine.pending_events eng)

(* --- engine vs a sorted (key, seq) model ----------------------------- *)

(* The model holds the live entries (key, seq, id, re-arms left), at
   most one per id, each fired in lexicographic (key, seq) order.  [seq]
   counts schedules and re-arms, as the engine's FIFO rank does. *)
type entry = { key : float; seq : int; id : int; left : int }

(* Interpret an op script against an engine and the model side by side,
   returning both fire traces and the two [step] result lists.  Scripts
   schedule and cancel in bursts; churn bursts cancel each timer as soon
   as it is set, so cancelled entries pile up past the live ones and the
   engine compacts, and later cancels of those stale handles must not
   touch the events that recycle their slots.  Delays come from a small
   set, so FIFO ties are common; every 4th schedule re-arms twice. *)
let run_model_script ops =
  let eng = Engine.create () in
  let got = ref [] and want = ref [] in
  let steps_got = ref [] and steps_want = ref [] in
  let model = Hashtbl.create 64 and now = ref 0. and seq = ref 0 in
  let handles = Hashtbl.create 64 in
  let add key id left =
    Hashtbl.replace model id { key; seq = !seq; id; left };
    incr seq
  in
  let fire_model e =
    now := e.key;
    want := (e.key, e.id) :: !want;
    Hashtbl.remove model e.id;
    if e.left > 0 then add (e.key +. 25.) e.id (e.left - 1)
  in
  let next_model bound =
    Hashtbl.fold
      (fun _ e acc ->
        if e.key > bound then acc
        else
          match acc with
          | Some m when (m.key, m.seq) < (e.key, e.seq) -> acc
          | _ -> Some e)
      model None
  in
  let rec run_model until =
    match next_model until with
    | Some e ->
        fire_model e;
        run_model until
    | None -> if !now < until then now := until
  in
  let schedule n =
    let id = Hashtbl.length handles in
    let delay = [| 0.; 10.; 20.; 30.; 5000. |].(n mod 5) in
    let left = if id mod 4 = 0 then 2 else 0 in
    let remaining = ref left in
    let h = ref Engine.none in
    h :=
      Engine.schedule_after eng ~delay (fun () ->
          got := (Engine.now eng, id) :: !got;
          if !remaining > 0 then begin
            decr remaining;
            Engine.reschedule_after eng !h ~delay:25.
          end);
    Hashtbl.replace handles id !h;
    add (!now +. delay) id left
  in
  let cancel id =
    Engine.cancel eng (Hashtbl.find handles id);
    Hashtbl.remove model id
  in
  let cancel_recent i =
    let n = Hashtbl.length handles in
    if n > 0 then cancel (n - 1 - (i mod min n 64))
  in
  List.iter
    (fun n ->
      match n mod 8 with
      | 0 | 1 | 2 -> for k = 0 to n mod 9 do schedule (n + k) done
      | 3 | 4 -> for k = 0 to n mod 9 do cancel_recent ((n * 7) + k) done
      | 5 ->
          (* re-arm churn: a burst of timers cancelled as soon as set *)
          for k = 0 to 64 + (n mod 23) do
            schedule (n + k);
            cancel (Hashtbl.length handles - 1)
          done
      | 6 ->
          let until = !now +. (float_of_int (n mod 7) *. 10.) in
          Engine.run eng ~until;
          run_model until
      | _ ->
          steps_got := Engine.step eng :: !steps_got;
          let fired = next_model Float.infinity in
          Option.iter fire_model fired;
          steps_want := Option.is_some fired :: !steps_want)
    ops;
  Engine.run eng ~until:1e9;
  run_model 1e9;
  ((List.rev !got, !steps_got), (List.rev !want, !steps_want))

let prop_engine_model =
  QCheck.Test.make ~count:200
    ~name:"engine fires in the (key, seq) order of a sorted model"
    QCheck.(list_of_size (Gen.int_range 100 400) small_nat)
    (fun ops ->
      let got, want = run_model_script ops in
      got = want)

(* --- property tests ------------------------------------------------- *)

(* The heap's caller-ranked API, driven through a scratch cell. *)
let heap_cell = [| 0.; 0. |]

let heap_add h ~key ~seq v =
  heap_cell.(0) <- key;
  Eheap.add_cell h ~cell:heap_cell ~seq v

let heap_pop h =
  heap_cell.(1) <- Float.infinity;
  let v = Eheap.pop_leq_into h ~cell:heap_cell ~default:(-1) in
  if v < 0 then None else Some (heap_cell.(0), v)

let prop_heap_sorted =
  QCheck.Test.make ~count:300 ~name:"eheap pops keys in nondecreasing order"
    QCheck.(list (float_bound_exclusive 1e6))
    (fun keys ->
      let h = Eheap.create () in
      List.iteri (fun i k -> heap_add h ~key:k ~seq:i i) keys;
      let rec drain acc =
        match heap_pop h with
        | None -> List.rev acc
        | Some (k, _) -> drain (k :: acc)
      in
      let out = drain [] in
      out = List.sort compare keys)

let prop_heap_fifo_on_equal =
  QCheck.Test.make ~count:200 ~name:"eheap is FIFO for equal keys"
    QCheck.(small_nat)
    (fun n ->
      let h = Eheap.create () in
      for i = 0 to n - 1 do
        heap_add h ~key:1. ~seq:i i
      done;
      let rec drain acc =
        match heap_pop h with
        | None -> List.rev acc
        | Some (_, v) -> drain (v :: acc)
      in
      drain [] = List.init n (fun i -> i))

(* Model-based test of the mixed-operation behaviour: a stable sorted
   association list is the reference.  Few distinct keys force FIFO ties;
   long op lists push the heap past its initial 16 slots; occasional
   compactions drop every entry whose value is divisible by a small
   divisor and must keep the rest in order. *)
let prop_heap_model =
  QCheck.Test.make ~count:500 ~name:"eheap agrees with a sorted-list model"
    QCheck.(list small_nat)
    (fun ops ->
      let h = Eheap.create () in
      let model = ref [] in
      let next_id = ref 0 in
      let ok = ref true in
      let stable_insert key id =
        let rec ins = function
          | (k, v) :: tl when k <= key -> (k, v) :: ins tl
          | rest -> (key, id) :: rest
        in
        model := ins !model
      in
      List.iter
        (fun n ->
          if n mod 13 = 12 then begin
            let dead v = v mod (2 + (n mod 3)) = 0 in
            Eheap.compact h dead;
            model := List.filter (fun (_, v) -> not (dead v)) !model;
            if Eheap.length h <> List.length !model then ok := false
          end
          else if n mod 3 = 2 then begin
            let expect =
              match !model with
              | [] -> None
              | x :: tl ->
                  model := tl;
                  Some x
            in
            if heap_pop h <> expect then ok := false
          end
          else begin
            let key = float_of_int (n mod 8) in
            let id = !next_id in
            incr next_id;
            heap_add h ~key ~seq:id id;
            stable_insert key id
          end)
        ops;
      let rec drain () =
        match (heap_pop h, !model) with
        | None, [] -> true
        | Some got, expect :: tl when got = expect ->
            model := tl;
            drain ()
        | _ -> false
      in
      !ok && drain ())

let test_heap_growth () =
  (* Push well past the initial 16-slot capacity and drain in order. *)
  let h = Eheap.create () in
  for i = 199 downto 0 do
    heap_add h ~key:(float_of_int i) ~seq:(199 - i) i
  done;
  Alcotest.(check int) "length" 200 (Eheap.length h);
  for i = 0 to 199 do
    match heap_pop h with
    | Some (k, v) ->
        check_float "key order" (float_of_int i) k;
        Alcotest.(check int) "value order" i v
    | None -> Alcotest.fail "heap drained early"
  done;
  Alcotest.(check bool) "empty at the end" true (heap_pop h = None)

let prop_rng_deterministic =
  QCheck.Test.make ~count:100 ~name:"rng: same seed, same stream"
    QCheck.(small_int)
    (fun seed ->
      let a = Rng.create seed and b = Rng.create seed in
      List.init 20 (fun _ -> Rng.bits64 a) = List.init 20 (fun _ -> Rng.bits64 b))

let prop_rng_int_bounds =
  QCheck.Test.make ~count:200 ~name:"rng: int stays within bound"
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      List.for_all
        (fun _ ->
          let v = Rng.int r bound in
          v >= 0 && v < bound)
        (List.init 50 Fun.id))

let prop_rng_uniform_bounds =
  QCheck.Test.make ~count:200 ~name:"rng: uniform in [0,1)"
    QCheck.small_int
    (fun seed ->
      let r = Rng.create seed in
      List.for_all
        (fun _ ->
          let v = Rng.uniform r in
          v >= 0. && v < 1.)
        (List.init 50 Fun.id))

let prop_rng_exponential_positive =
  QCheck.Test.make ~count:200 ~name:"rng: exponential draws are nonnegative"
    QCheck.small_int
    (fun seed ->
      let r = Rng.create seed in
      List.for_all
        (fun _ -> Rng.exponential r ~mean:100. >= 0.)
        (List.init 50 Fun.id))

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  let xs = List.init 10 (fun _ -> Rng.bits64 a) in
  let ys = List.init 10 (fun _ -> Rng.bits64 b) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_split_seed () =
  let a = Rng.split_seed ~seed:42 ~index:0 in
  let b = Rng.split_seed ~seed:42 ~index:1 in
  Alcotest.(check bool) "different indices differ" true (a <> b);
  Alcotest.(check int) "deterministic" a (Rng.split_seed ~seed:42 ~index:0);
  Alcotest.(check bool) "nonnegative" true (a >= 0 && b >= 0);
  Alcotest.(check bool) "child differs from parent-as-seed" true
    (a <> 42);
  (* Derived streams must actually be distinct. *)
  let ra = Rng.create a and rb = Rng.create b in
  Alcotest.(check bool) "independent streams" true
    (List.init 10 (fun _ -> Rng.bits64 ra)
    <> List.init 10 (fun _ -> Rng.bits64 rb));
  Alcotest.check_raises "negative index rejected"
    (Invalid_argument "Rng.split_seed: index must be nonnegative") (fun () ->
      ignore (Rng.split_seed ~seed:42 ~index:(-1)))

let test_rng_exponential_mean () =
  let r = Rng.create 11 in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:50.
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.2f within 5%% of 50" mean)
    true
    (mean > 47.5 && mean < 52.5)

let qsuite = List.map QCheck_alcotest.to_alcotest
    [ prop_heap_sorted; prop_heap_fifo_on_equal; prop_heap_model;
      prop_engine_model;
      prop_rng_deterministic; prop_rng_int_bounds; prop_rng_uniform_bounds;
      prop_rng_exponential_positive ]

let suite =
  [ Alcotest.test_case "time units" `Quick test_time_units;
    Alcotest.test_case "events run in time order" `Quick test_schedule_order;
    Alcotest.test_case "equal timestamps are FIFO" `Quick test_fifo_ties;
    Alcotest.test_case "cancellation" `Quick test_cancel;
    Alcotest.test_case "events can schedule events" `Quick test_schedule_from_event;
    Alcotest.test_case "scheduling in the past is rejected" `Quick
      test_schedule_past_rejected;
    Alcotest.test_case "run_while stops on predicate" `Quick test_run_while;
    Alcotest.test_case "run_while early stop leaves the clock" `Quick
      test_run_while_clock_on_early_stop;
    Alcotest.test_case "reschedule re-arms a periodic event" `Quick
      test_reschedule_periodic;
    Alcotest.test_case "reschedule outside the callback is rejected" `Quick
      test_reschedule_outside_callback;
    Alcotest.test_case "stale handles cannot touch recycled slots" `Quick
      test_stale_handle_safety;
    Alcotest.test_case "eheap grows past its initial capacity" `Quick
      test_heap_growth;
    Alcotest.test_case "events_executed counts" `Quick test_events_executed;
    Alcotest.test_case "reschedule re-arms far ahead and back" `Quick
      test_reschedule_far;
    Alcotest.test_case "step on an all-cancelled queue reports empty" `Quick
      test_step_on_all_cancelled_queue;
    Alcotest.test_case "FIFO ties survive cancelled neighbours" `Quick
      test_fifo_ties_with_cancelled;
    Alcotest.test_case "handle stays valid across compaction" `Quick
      test_handle_valid_across_compaction;
    Alcotest.test_case "rng split gives a distinct stream" `Quick
      test_rng_split_independent;
    Alcotest.test_case "rng split_seed derives stable child seeds" `Quick
      test_rng_split_seed;
    Alcotest.test_case "rng exponential has the right mean" `Slow
      test_rng_exponential_mean ]
  @ qsuite
