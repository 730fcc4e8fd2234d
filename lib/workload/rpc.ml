(** Synthetic RPC server workload (Table 2).

    Three processes run on the server machine:

    - the {e worker}: performs an 11.5-CPU-second memory-bound computation
      in response to a single RPC; its working set covers a significant
      fraction of the L2 cache (modelled as a cache-reload penalty on every
      context switch onto the CPU);
    - two {e RPC servers}: short per-request computations ("Fast" /
      "Medium" / "Slow" variants).

    A client machine keeps several requests outstanding at each RPC server,
    spread uniformly in time so request arrival is uncorrelated with server
    scheduling (paper section 4.2).  Requests ride on UDP, like the paper's
    RPC facility. *)

open Lrp_engine
open Lrp_sim
open Lrp_net
open Lrp_kernel

type cls = Fast | Medium | Slow

let cls_name = function Fast -> "Fast" | Medium -> "Medium" | Slow -> "Slow"

(* Per-request server computation, us. *)
let service_time = function Fast -> 100. | Medium -> 180. | Slow -> 350.

type result = {
  mutable worker_started : float;
  mutable worker_finished : float option;
  mutable rpcs_completed : int;     (* responses seen by the client *)
  mutable window_rpcs : int;        (* completed while the worker ran *)
  worker_cpu : float;               (* the computation's CPU demand, us *)
}

(* An RPC server process: receive, compute, reply. *)
let start_rpc_server kern ~port ~service =
  ignore
    (Cpu.spawn (Kernel.cpu kern) ~name:(Printf.sprintf "rpcsrv:%d" port)
       ~working_set:30. (fun self ->
        let sock = Api.socket_dgram () in
        Api.bind kern sock ~owner:(Some self) ~port;
        let dg = Api.dgram () in
        let rec loop () =
          Api.recvfrom kern sock dg;
          (Cpu.cost_cell (Kernel.cpu kern)).(0) <- service;
          Cpu.compute (Kernel.cpu kern);
          Api.sendto kern ~self sock ~dst:(dg.Api.dg_src, dg.Api.dg_sport)
            (Payload.synthetic 32);
          loop ()
        in
        try loop () with Api.Socket_closed -> ()))

(* The worker process: one request, 11.5 s of CPU, one reply. *)
let start_worker kern ~port ~cpu_us ~working_set result =
  ignore
    (Cpu.spawn (Kernel.cpu kern) ~name:"worker" ~working_set (fun self ->
         let sock = Api.socket_dgram () in
         Api.bind kern sock ~owner:(Some self) ~port;
         let dg = Api.dgram () in
         Api.recvfrom kern sock dg;
         result.worker_started <- Engine.now (Kernel.engine kern);
         (Cpu.cost_cell (Kernel.cpu kern)).(0) <- cpu_us;
         Cpu.compute (Kernel.cpu kern);
         result.worker_finished <- Some (Engine.now (Kernel.engine kern));
         Api.sendto kern ~self sock ~dst:(dg.Api.dg_src, dg.Api.dg_sport)
           (Payload.synthetic 32)))

(* Client-side response collector for one RPC server. *)
let start_collector kern ~port ~completed result =
  let sock = Api.socket_dgram () in
  ignore
    (Cpu.spawn (Kernel.cpu kern) ~name:(Printf.sprintf "collect:%d" port)
       (fun self ->
        Api.bind kern sock ~owner:(Some self) ~port;
        let dg = Api.dgram () in
        let rec loop () =
          Api.recvfrom kern sock dg;
          incr completed;
          result.rpcs_completed <- result.rpcs_completed + 1;
          (match result.worker_finished with
           | None when result.worker_started > 0. ->
               result.window_rpcs <- result.window_rpcs + 1
           | None | Some _ -> ());
          loop ()
        in
        try loop () with Api.Socket_closed -> ()))

(* The worker's working set (cache footprint, us of refill), and the cap
   on requests outstanding per RPC server. *)
let worker_ws = 300.
let outstanding_limit = 28

(* [run world ~server ~client ~cls ()] wires the full Table-2 scenario and
   runs it to worker completion. *)
let run world ~server ~client ~cls ?(worker_cpu = Time.sec 11.5) () =
  let until = Time.sec 120. in
  let engine = World.engine world in
  let result =
    { worker_started = 0.; worker_finished = None; rpcs_completed = 0;
      window_rpcs = 0; worker_cpu }
  in
  let service = service_time cls in
  (* Give every process time to bind its socket before traffic starts. *)
  let settle = Time.ms 50. in
  (* Server machine: worker on port 6000, RPC servers on 6001/6002. *)
  start_worker server ~port:6000 ~cpu_us:worker_cpu ~working_set:worker_ws
    result;
  start_rpc_server server ~port:6001 ~service;
  start_rpc_server server ~port:6002 ~service;
  (* Client machine: collectors on 7001/7002, worker reply on 7000. *)
  let done1 = ref 0 and done2 = ref 0 in
  let sent1 = ref 0 and sent2 = ref 0 in
  start_collector client ~port:7001 ~completed:done1 result;
  start_collector client ~port:7002 ~completed:done2 result;
  ignore
    (Cpu.spawn (Kernel.cpu client) ~name:"worker-client" (fun self ->
         let sock = Api.socket_dgram () in
         Api.bind client sock ~owner:(Some self) ~port:7000;
         Proc.sleep_for settle;
         Api.sendto client ~self sock
           ~dst:(Kernel.ip_address server, 6000)
           (Payload.synthetic 32);
         Api.recvfrom client sock (Api.dgram ())));
  (* In-kernel request injector: near-uniform in time, alternating between
     the two servers, capped outstanding so the servers never starve but
     arrivals stay uncorrelated with scheduling. *)
  let sip = Kernel.ip_address server and cip = Kernel.ip_address client in
  let request = Payload.synthetic 32 in
  (* The injection grid adapts to the servers' delivered rate so that (1)
     each server always has requests outstanding (slightly over-driven) and
     (2) arrivals stay near-uniform in time, uncorrelated with server
     scheduling — the paper's two conditions.  A hard cap bounds the queues
     if the estimate overshoots. *)
  let interval = ref (service /. 2.) in
  let last_done = ref 0 in
  let rec adapt () =
    if result.worker_finished = None && Engine.now engine < until then begin
      let completed = !done1 + !done2 in
      let delta = completed - !last_done in
      last_done := completed;
      if delta > 10 then begin
        let rate = float_of_int delta /. 0.1 (* per second over 100 ms *) in
        interval := Float.max 20. (1e6 /. (rate *. 1.25))
      end;
      ignore (Engine.schedule_after engine ~delay:(Time.ms 100.) adapt)
    end
  in
  ignore (Engine.schedule engine ~at:(settle +. Time.ms 100.) adapt);
  let jitter = Rng.split (Engine.rng engine) in
  let flip = ref false in
  let rec inject () =
    if result.worker_finished = None && Engine.now engine < until then begin
      let port, sent, completed =
        if !flip then (6001, sent1, done1) else (6002, sent2, done2)
      in
      flip := not !flip;
      if !sent - !completed < outstanding_limit then begin
        let reply_port = if port = 6001 then 7001 else 7002 in
        let nic = Kernel.nic client in
        ignore
          (Nic.transmit_row nic
             (Parena.udp (Nic.pool nic) ~src:cip ~dst:sip ~src_port:reply_port
                ~dst_port:port request));
        incr sent
      end;
      (* Jittered grid: keeps arrivals near-uniform and uncorrelated with
         completions even when the outstanding gate binds. *)
      let delay = !interval *. (0.5 +. Rng.uniform jitter) in
      ignore (Engine.schedule_after engine ~delay inject)
    end
  in
  ignore (Engine.schedule engine ~at:settle inject);
  Lrp_engine.Engine.run_while engine
    (fun () -> result.worker_finished = None)
    ~until;
  result

let worker_elapsed r =
  match r.worker_finished with
  | Some f -> f -. r.worker_started
  | None -> nan

let rpc_rate r =
  let e = worker_elapsed r in
  if Float.is_nan e || e <= 0. then 0.
  else float_of_int r.window_rpcs *. 1e6 /. e

let worker_share r =
  let e = worker_elapsed r in
  if Float.is_nan e || e <= 0. then 0. else r.worker_cpu /. e
