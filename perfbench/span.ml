(* In-memory span recorder for the traced run.

   A span is (kind, start, end, parent).  Each domain records into its own
   buffer (Domain-local), so the two shards of the cluster run never share
   one.  Spans wrap only calls that return without suspending: the engine
   slice (the root), the source's [Nic.transmit] and the NIC's [deliver],
   [rx_handler] and [rx_kick] fields.  Buffers are folded into per-kind
   totals after every slice, while all domains are parked, and reset; the
   totals are written when the run ends.

   Probes read a nanosecond monotonic clock and the unboxed
   [Gc.minor_words], so a probe itself allocates nothing; its time cost is
   measured by [calibrate] and subtracted when folding. *)

external now_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let clock () = Int64.to_int (now_ns ())

let names =
  [| "slice"; "nic.transmit"; "nic.deliver"; "nic.rx_handler"; "nic.rx_kick" |]

let slice = 0
let tx = 1
let deliver = 2
let rx = 3
let kick = 4

type buf = {
  mutable n : int;
  mutable top : int;  (* innermost open span, -1 when none is open *)
  mutable kind : int array;
  mutable parent : int array;
  mutable t0 : int array;
  mutable t1 : int array;
  mutable w0 : float array;
  mutable w1 : float array;
}

let make_buf cap =
  { n = 0; top = -1; kind = Array.make cap 0; parent = Array.make cap 0;
    t0 = Array.make cap 0; t1 = Array.make cap 0;
    w0 = Array.make cap 0.; w1 = Array.make cap 0. }

let grow b =
  let cap = 2 * Array.length b.kind in
  let g a z = Array.init cap (fun i -> if i < b.n then a.(i) else z) in
  b.kind <- g b.kind 0;
  b.parent <- g b.parent 0;
  b.t0 <- g b.t0 0;
  b.t1 <- g b.t1 0;
  b.w0 <- g b.w0 0.;
  b.w1 <- g b.w1 0.

(* Every buffer ever created, main domain first. *)
let all : buf list ref = ref []
let all_lock = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      let b = make_buf 4096 in
      Mutex.protect all_lock (fun () -> all := !all @ [ b ]);
      b)

let buf () = Domain.DLS.get key

let enter b k =
  let i = b.n in
  if i = Array.length b.kind then grow b;
  b.n <- i + 1;
  b.kind.(i) <- k;
  b.parent.(i) <- b.top;
  b.top <- i;
  b.w0.(i) <- Gc.minor_words ();
  b.t0.(i) <- clock ()

let leave b =
  let t = clock () in
  let i = b.top in
  b.t1.(i) <- t;
  b.w1.(i) <- Gc.minor_words ();
  b.top <- b.parent.(i)

(* --- probe calibration --------------------------------------------------- *)

(* [inner_ns]: what an empty span reads as its own duration.  [outer_ns]:
   what one whole enter/leave pair adds to its parent.  [outer_words]: the
   minor words one pair allocates (0 when the probe is alloc-free). *)
type calib = { inner_ns : float; outer_ns : float; outer_words : float }

let calibrate () =
  let b = make_buf 1024 in
  let batch = 1000 and rounds = 200 in
  let inner = Array.make rounds 0. and outer = Array.make rounds 0. in
  let words = ref 0. in
  for r = 0 to rounds - 1 do
    b.n <- 0;
    let w = Gc.minor_words () in
    let t = clock () in
    for _ = 1 to batch do
      enter b tx;
      leave b
    done;
    let t' = clock () in
    words := !words +. (Gc.minor_words () -. w);
    outer.(r) <- float_of_int (t' - t) /. float_of_int batch;
    let s = ref 0 in
    for i = 0 to batch - 1 do
      s := !s + (b.t1.(i) - b.t0.(i))
    done;
    inner.(r) <- float_of_int !s /. float_of_int batch
  done;
  let median a =
    let a = Array.copy a in
    Array.sort Float.compare a;
    a.(Array.length a / 2)
  in
  { inner_ns = median inner; outer_ns = median outer;
    outer_words = !words /. float_of_int (batch * rounds) }

(* --- folding ------------------------------------------------------------- *)

(* Per-kind totals: calls, corrected inclusive and self nanoseconds, and
   inclusive minor words (same-domain children only, as minor words are
   per domain). *)
type totals = {
  count : int array;
  incl_ns : float array;
  self_ns : float array;
  words : float array;
  mutable unbalanced : int;  (* open spans or children outside parents *)
}

let totals () =
  let k = Array.length names in
  { count = Array.make k 0; incl_ns = Array.make k 0.;
    self_ns = Array.make k 0.; words = Array.make k 0.; unbalanced = 0 }

let child_work = ref [||]
let ndesc = ref [||]

let scratch n =
  if Array.length !child_work < n then begin
    child_work := Array.make (2 * n) 0.;
    ndesc := Array.make (2 * n) 0
  end

(* Fold one buffer.  Children always have higher indices than their
   parent, so one backward pass sees every child before its parent.  A
   span's true work is its raw duration minus the probe time it read
   itself and the probe time of every descendant; its self time is its
   work minus its children's work.  The slice root itself is left to
   [fold_slice].  Returns the work and descendant count of the buffer's
   other root spans (parent -1: spans a worker domain recorded while the
   main domain's slice ran), which belong to that slice. *)
let fold_buf c tot b ~root_t0 ~root_t1 =
  scratch b.n;
  let child_work = !child_work and ndesc = !ndesc in
  Array.fill child_work 0 b.n 0.;
  Array.fill ndesc 0 b.n 0;
  if b.top <> -1 then tot.unbalanced <- tot.unbalanced + 1;
  let roots_work = ref 0. and roots_desc = ref 0 in
  for i = b.n - 1 downto 0 do
    let k = b.kind.(i) and p = b.parent.(i) in
    if k <> slice then begin
      let raw = float_of_int (b.t1.(i) - b.t0.(i)) in
      let wk = raw -. c.inner_ns -. (float_of_int ndesc.(i) *. c.outer_ns) in
      tot.count.(k) <- tot.count.(k) + 1;
      tot.incl_ns.(k) <- tot.incl_ns.(k) +. wk;
      tot.self_ns.(k) <- tot.self_ns.(k) +. (wk -. child_work.(i));
      tot.words.(k) <-
        tot.words.(k) +. (b.w1.(i) -. b.w0.(i))
        -. (float_of_int (ndesc.(i) + 1) *. c.outer_words);
      if p >= 0 then begin
        if b.t0.(i) < b.t0.(p) || b.t1.(i) > b.t1.(p) then
          tot.unbalanced <- tot.unbalanced + 1;
        child_work.(p) <- child_work.(p) +. wk;
        ndesc.(p) <- ndesc.(p) + ndesc.(i) + 1
      end
      else begin
        if b.t0.(i) < root_t0 || b.t1.(i) > root_t1 then
          tot.unbalanced <- tot.unbalanced + 1;
        roots_work := !roots_work +. wk;
        roots_desc := !roots_desc + ndesc.(i) + 1
      end
    end
  done;
  (!roots_work, !roots_desc)

let buffers () = Mutex.protect all_lock (fun () -> !all)

(* Drop everything recorded so far (the warm-up's spans). *)
let reset () =
  List.iter
    (fun b ->
      b.n <- 0;
      b.top <- -1)
    (buffers ())

(* Fold every domain's buffer after one slice and reset them.  The slice
   is span 0 of the main domain's buffer; spans other domains recorded
   during it (the cluster's second shard) are its children too. *)
let fold_slice c tot =
  let bufs = buffers () in
  let main = buf () in
  if main.n = 0 || main.kind.(0) <> slice then begin
    tot.unbalanced <- tot.unbalanced + 1;
    reset ()
  end
  else begin
    let r0 = main.t0.(0) and r1 = main.t1.(0) in
    let child = ref 0. and desc = ref 0 in
    List.iter
      (fun b ->
        let w, d = fold_buf c tot b ~root_t0:r0 ~root_t1:r1 in
        if b == main then begin
          child := !child +. !child_work.(0);
          desc := !desc + !ndesc.(0)
        end;
        child := !child +. w;
        desc := !desc + d;
        b.n <- 0)
      bufs;
    let wk =
      float_of_int (r1 - r0) -. c.inner_ns -. (float_of_int !desc *. c.outer_ns)
    in
    tot.count.(slice) <- tot.count.(slice) + 1;
    tot.incl_ns.(slice) <- tot.incl_ns.(slice) +. wk;
    tot.self_ns.(slice) <- tot.self_ns.(slice) +. (wk -. !child);
    tot.words.(slice) <- tot.words.(slice) +. (main.w1.(0) -. main.w0.(0))
  end
