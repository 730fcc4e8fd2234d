(* Allocation and GC activity of every domain, read from outside the
   program through the runtime's own event ring (stdlib Runtime_events).

   [Gc.minor_words] counts only the calling domain, so the sharded
   cluster would under-report; the runtime's EV_C_MINOR_ALLOCATED counter
   is emitted by each domain at each minor collection.  Minor collections
   are stop-the-world in OCaml 5, so forcing one at both edges of the
   timed window ([mark]) makes the window's sum exact. *)

module R = Runtime_events

type counts = {
  mutable alloc_bytes : int;
  mutable promoted_bytes : int;
  mutable minors : int;
  mutable major_slices : int;
  mutable pauses_ns : int array;  (* minor and major-slice pause lengths *)
  mutable npauses : int;
  mutable lost : int;
  began : (int * R.runtime_phase, int) Hashtbl.t;
}

type t = { cursor : R.cursor; cb : R.Callbacks.t; c : counts }

let push c ns =
  if c.npauses = Array.length c.pauses_ns then begin
    let a = Array.make (2 * c.npauses) 0 in
    Array.blit c.pauses_ns 0 a 0 c.npauses;
    c.pauses_ns <- a
  end;
  c.pauses_ns.(c.npauses) <- ns;
  c.npauses <- c.npauses + 1

let ts x = Int64.to_int (R.Timestamp.to_int64 x)

let create () =
  R.start ();
  let c =
    { alloc_bytes = 0; promoted_bytes = 0; minors = 0; major_slices = 0;
      pauses_ns = Array.make 1024 0; npauses = 0; lost = 0;
      began = Hashtbl.create 8 }
  in
  let timed = function R.EV_MINOR | R.EV_MAJOR_SLICE -> true | _ -> false in
  let cb =
    R.Callbacks.create
      ~runtime_counter:(fun _dom _ts ctr v ->
        match ctr with
        | R.EV_C_MINOR_ALLOCATED -> c.alloc_bytes <- c.alloc_bytes + v
        | R.EV_C_MINOR_PROMOTED -> c.promoted_bytes <- c.promoted_bytes + v
        | _ -> ())
      ~runtime_begin:(fun dom x p ->
        if timed p then begin
          if p = R.EV_MINOR then c.minors <- c.minors + 1
          else c.major_slices <- c.major_slices + 1;
          Hashtbl.replace c.began (dom, p) (ts x)
        end)
      ~runtime_end:(fun dom x p ->
        match Hashtbl.find_opt c.began (dom, p) with
        | Some b ->
            Hashtbl.remove c.began (dom, p);
            push c (ts x - b)
        | None -> ())
      ~lost_events:(fun _ n -> c.lost <- c.lost + n)
      ()
  in
  { cursor = R.create_cursor None; cb; c }

let poll t = ignore (R.read_poll t.cursor t.cb None)

(* Force a stop-the-world minor collection so every domain reports its
   allocation so far, then drain the ring.  With [reset], start counting
   from here. *)
let mark ?(reset = false) t =
  Gc.minor ();
  poll t;
  if reset then begin
    let c = t.c in
    c.alloc_bytes <- 0;
    c.promoted_bytes <- 0;
    c.minors <- 0;
    c.major_slices <- 0;
    c.npauses <- 0;
    c.lost <- 0
  end

let bytes_per_word = float_of_int (Sys.word_size / 8)
let minor_words t = float_of_int t.c.alloc_bytes /. bytes_per_word
let promoted_words t = float_of_int t.c.promoted_bytes /. bytes_per_word

let pause_ms_p99 t =
  let c = t.c in
  if c.npauses = 0 then 0.
  else begin
    let a = Array.sub c.pauses_ns 0 c.npauses in
    Array.sort Int.compare a;
    float_of_int a.(min (c.npauses - 1) (c.npauses * 99 / 100)) /. 1e6
  end
