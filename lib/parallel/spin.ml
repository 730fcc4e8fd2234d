(* Spin-then-park: the interrupt-versus-polling trade of the paper's
   section 2 (and of NAPI) applied to the simulator's own domains.  A
   wait that ends within a few tens of microseconds costs less polled
   than parked — a futex wake-up plus rescheduling takes about as long as
   a whole simulation epoch — while a long wait must sleep, or it burns a
   core the work it waits for could use.  So a waiter polls for [bound]
   iterations and then parks.

   [Domain.cpu_relax] is the poll's pause: besides the CPU hint it
   services this domain's pending stop-the-world requests, so a spinning
   domain never holds up another domain's minor collection. *)

let bound = 2_000

let cores = Domain.recommended_domain_count ()

let fits n = n <= cores

let rec poll (a : int Atomic.t) v eq n =
  if (Atomic.get a = v) = eq then true
  else if n = 0 then false
  else begin
    Domain.cpu_relax ();
    poll a v eq (n - 1)
  end

let wait ~spin ~lock ~cond (a : int Atomic.t) v eq =
  if not (spin && poll a v eq bound) then begin
    Mutex.lock lock;
    while (Atomic.get a = v) <> eq do
      Condition.wait cond lock
    done;
    Mutex.unlock lock
  end

let until_eq ~spin ~lock ~cond a v = wait ~spin ~lock ~cond a v true
let until_ne ~spin ~lock ~cond a v = wait ~spin ~lock ~cond a v false
