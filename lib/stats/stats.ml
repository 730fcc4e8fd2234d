(** Measurement helpers for the experiment harnesses. *)

(* --- streaming summary ------------------------------------------------ *)

module Summary = struct
  type t = {
    mutable n : int;
    mutable sum : float;
    mutable sumsq : float;
    mutable min : float;
    mutable max : float;
  }

  let create () = { n = 0; sum = 0.; sumsq = 0.; min = infinity; max = neg_infinity }

  let add t x =
    t.n <- t.n + 1;
    t.sum <- t.sum +. x;
    t.sumsq <- t.sumsq +. (x *. x);
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x

  let count t = t.n
  let mean t = if t.n = 0 then 0. else t.sum /. float_of_int t.n
  let minimum t = if t.n = 0 then 0. else t.min
  let maximum t = if t.n = 0 then 0. else t.max

  let stddev t =
    if t.n < 2 then 0.
    else
      let m = mean t in
      let v = (t.sumsq /. float_of_int t.n) -. (m *. m) in
      sqrt (Float.max 0. v)

end

(* --- reservoir for percentiles ---------------------------------------- *)

module Samples = struct
  (* Growable array with a cached sort: [add] appends (amortised O(1),
     invalidating the cache); the first percentile query after a batch of
     adds sorts the filled prefix once, and subsequent queries are O(1).
     Statistical queries on an empty store return [nan] (never raise). *)
  type t = { mutable xs : float array; mutable n : int; mutable sorted : bool }

  let create () = { xs = [||]; n = 0; sorted = true }

  let add t x =
    (if t.n = Array.length t.xs then begin
       let cap = max 16 (2 * t.n) in
       let xs = Array.make cap 0. in
       Array.blit t.xs 0 xs 0 t.n;
       t.xs <- xs
     end);
    t.xs.(t.n) <- x;
    t.n <- t.n + 1;
    t.sorted <- false

  let count t = t.n

  let ensure_sorted t =
    if not t.sorted then begin
      (* Sort only the filled prefix; the spare capacity stays untouched. *)
      let a = Array.sub t.xs 0 t.n in
      Array.sort Float.compare a;
      Array.blit a 0 t.xs 0 t.n;
      t.sorted <- true
    end

  let percentile t p =
    if t.n = 0 then Float.nan
    else if t.n = 1 then t.xs.(0)
    else begin
      ensure_sorted t;
      let idx = int_of_float (Float.round (p /. 100. *. float_of_int (t.n - 1))) in
      t.xs.(max 0 (min (t.n - 1) idx))
    end

  let median t = percentile t 50.

  let mean t =
    if t.n = 0 then Float.nan
    else begin
      let sum = ref 0. in
      for i = 0 to t.n - 1 do
        sum := !sum +. t.xs.(i)
      done;
      !sum /. float_of_int t.n
    end
end

(* --- rate meter: events per second over a window ----------------------- *)

module Rate = struct
  type t = {
    mutable count : int;
    mutable window_start : float;  (* us *)
    mutable last_rate : float;     (* events per second *)
  }

  let create () = { count = 0; window_start = 0.; last_rate = 0. }

  let mark t = t.count <- t.count + 1

  (* [rate t ~now] finishes the current window and returns events/sec. *)
  let rate t ~now =
    let dt = (now -. t.window_start) /. 1e6 in
    if dt > 0. then t.last_rate <- float_of_int t.count /. dt;
    t.count <- 0;
    t.window_start <- now;
    t.last_rate

  let total_since_reset t = t.count
end

(* --- unit helpers ------------------------------------------------------ *)

let mbps ~bytes ~us = if us <= 0. then 0. else float_of_int bytes *. 8. /. us

let pps ~packets ~us = if us <= 0. then 0. else float_of_int packets *. 1e6 /. us
