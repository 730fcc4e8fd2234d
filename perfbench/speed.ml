(* Host speed reference.

   On a shared host the CPU's speed shifts by up to ~1.8x for seconds at a
   time while other tenants run.  A fixed pass of sequential stores over a
   64 KB array — the access pattern of minor-heap allocation — slows in
   step with the simulator: timed after every slice and summed over ~5 ms
   chunks, it cut the run-to-run spread of a fixed udp_overload run's time
   from 13.5% to 1.1% on a 2-core x86_64 host (an integer-only loop left
   4.1%).  The benchmark scales each chunk's slice times by
   [nominal / measured], reporting time on a host running at the nominal
   speed, so runs on a busy and on an idle host compare.  The pass shares
   no code with the simulator and allocates nothing. *)

let words = 8192
let buf = Array.make words 0

(* ns per store of [pass] on an idle host of that kind. *)
let nominal_ns = 0.82

(* One timed pass, in ns. *)
let pass () =
  let a = Span.clock () in
  for i = 0 to words - 1 do
    buf.(i) <- i
  done;
  Span.clock () - a

(* Scale factor from [passes] passes that took [ns] in total. *)
let factor ~passes ~ns =
  nominal_ns *. float_of_int (passes * words) /. float_of_int (max 1 ns)

(* A fresh estimate: 16 passes. *)
let sample () =
  let ns = ref 0 in
  for _ = 1 to 16 do
    ns := !ns + pass ()
  done;
  factor ~passes:16 ~ns:!ns
