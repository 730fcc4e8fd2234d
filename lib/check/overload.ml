(** Livelock / overload detector (paper sections 2.2 and 6.1).

    Samples a kernel at a fixed virtual-time period and compares, per
    window, the work the network {e offered} (frames reaching the
    receive path) against the work the host {e delivered} (datagrams and
    segments handed to endpoints, plus forwarded packets):

    - {b overload}: offered load is substantial and delivery collapsed
      below a configured fraction of it.  This fires for any
      architecture shedding load — including LRP doing early discard,
      which is the intended behaviour under overload;
    - {b livelock}: an overloaded window in which interrupt-level
      processing also monopolised the CPU.  This is the BSD-specific
      pathology the paper demonstrates (figures 4–6): the host is
      saturated with eager interrupt work while useful throughput drops
      toward zero.  LRP keeps interrupt share small at the same offered
      load, so this alarm separates the architectures;
    - {b starvation}: substantial offered load while the ledger shows
      process-context work (application + receiver protocol) got almost
      no CPU — the user-visible face of livelock.

    Verdicts are emitted into the kernel's flight recorder as
    {!Lrp_trace.Trace.Alarm} events, so a post-mortem dump shows when
    the collapse began; queue high-watermarks (shared IP queue, NI
    channels, socket queues) are tracked for the same forensic use.
    The detector only reads counters the kernel already maintains — it
    never touches packets or scheduling, so it cannot perturb the
    simulation beyond its own (constant, per-window) sampling event. *)

open Lrp_engine
open Lrp_sim
open Lrp_kernel
module Trace = Lrp_trace.Trace

let window = 10_000.        (* sampling period, simulated microseconds *)
let min_offered = 20       (* frames/window below which no verdict is made *)
let collapse_frac = 0.5    (* delivered < frac * offered  =>  overload *)
let livelock_share = 0.8   (* overloaded + intr share >= this => livelock *)
let starve_share = 0.05    (* process-work share <= this => starvation *)

type report = {
  mutable samples : int;           (* windows examined *)
  mutable judged : int;            (* windows with offered >= min_offered *)
  mutable overload_windows : int;
  mutable livelock_windows : int;
  mutable starved_windows : int;
  mutable peak_offered : int;      (* max offered frames in one window *)
  mutable worst_delivery : float;
      (* min delivered/offered across judged windows; 1. if none judged *)
  mutable peak_intr_share : float; (* max interrupt share across judged *)
  mutable peak_poll_share : float;
      (* max NAPI-poll share across judged windows.  The NAPI-vs-BSD
         discriminator: a budgeted NAPI kernel under overload moves its
         poll cycles into ksoftirqd (process context), so its interrupt
         share stays below [livelock_share] while the poll share shows
         where the cycles went; with a pathological budget the poll
         cycles stay at softirq level and the livelock verdict fires,
         exactly as it does for BSD's eager interrupt work. *)
  mutable ipq_hwm : int;
  mutable chan_hwm : int;          (* deepest NI channel occupancy *)
  mutable sock_hwm : int;          (* deepest socket-queue occupancy *)
}

type t = {
  kernel : Kernel.t;
  rep : report;
  mutable ev : Engine.handle;
  (* previous-sample counters, delta'd each window *)
  mutable p_offered : int;
  mutable p_delivered : int;
  mutable p_hard : float;
  mutable p_soft : float;
  mutable p_proc : float;  (* ledger App + Proto *)
  mutable p_poll : float;  (* ledger Poll *)
}

let report t = t.rep

let delivered_count (s : Kernel.kstats) =
  s.Kernel.udp_delivered + s.Kernel.tcp_delivered + s.Kernel.forwarded

(* One sampling window: delta the kernel's counters and classify. *)
let sample t =
  let k = t.kernel in
  let s = Kernel.stats k in
  let cpu = Kernel.cpu k in
  let led = Cpu.ledger cpu in
  let rep = t.rep in
  let offered = s.Kernel.rx_frames in
  let delivered = delivered_count s in
  let hard = Cpu.time_hard cpu and soft = Cpu.time_soft cpu in
  let proc = Ledger.total led Ledger.App +. Ledger.total led Ledger.Proto in
  let poll = Ledger.total led Ledger.Poll in
  let d_off = offered - t.p_offered in
  let d_del = delivered - t.p_delivered in
  let d_intr = hard -. t.p_hard +. (soft -. t.p_soft) in
  let d_proc = proc -. t.p_proc in
  let d_poll = poll -. t.p_poll in
  t.p_offered <- offered;
  t.p_delivered <- delivered;
  t.p_hard <- hard;
  t.p_soft <- soft;
  t.p_proc <- proc;
  t.p_poll <- poll;
  rep.samples <- rep.samples + 1;
  if d_off > rep.peak_offered then rep.peak_offered <- d_off;
  (* Queue high-watermarks (new maxima recorded as alarm events). *)
  let tracer = Kernel.tracer k in
  if s.Kernel.ipq_hwm > rep.ipq_hwm then begin
    rep.ipq_hwm <- s.Kernel.ipq_hwm;
    Trace.alarm tracer ~alarm:Trace.Queue_watermark ~a:0 ~b:rep.ipq_hwm
  end;
  List.iter
    (fun ch ->
      let h = Lrp_core.Channel.high_watermark ch in
      if h > rep.chan_hwm then begin
        rep.chan_hwm <- h;
        Trace.alarm tracer ~alarm:Trace.Queue_watermark ~a:1 ~b:h
      end)
    (Kernel.channels k);
  List.iter
    (fun (ep : Kernel.ep) ->
      (* Bound sockets, in port order; a multicast group's members are not
         watched. *)
      match ep with
      | { Kernel.ep_group = false; ep_socks = sock :: _; _ } ->
          let h = sock.Socket.stats.Socket.rx_hwm in
          if h > rep.sock_hwm then begin
            rep.sock_hwm <- h;
            Trace.alarm tracer ~alarm:Trace.Queue_watermark ~a:2 ~b:h
          end
      | _ -> ())
    (Lrp_core.Chantab.bindings (Kernel.chantab k) Lrp_core.Chantab.Udp_port);
  if d_off >= min_offered then begin
    rep.judged <- rep.judged + 1;
    let ratio = float_of_int d_del /. float_of_int d_off in
    if ratio < rep.worst_delivery then rep.worst_delivery <- ratio;
    let intr_share = d_intr /. window in
    let proc_share = d_proc /. window in
    let poll_share = d_poll /. window in
    if intr_share > rep.peak_intr_share then rep.peak_intr_share <- intr_share;
    if poll_share > rep.peak_poll_share then rep.peak_poll_share <- poll_share;
    if ratio < collapse_frac then begin
      rep.overload_windows <- rep.overload_windows + 1;
      Trace.alarm tracer ~alarm:Trace.Overload ~a:d_off ~b:d_del;
      if intr_share >= livelock_share then begin
        rep.livelock_windows <- rep.livelock_windows + 1;
        Trace.alarm tracer ~alarm:Trace.Livelock ~a:d_off
          ~b:(int_of_float (intr_share *. 100.))
      end
    end;
    if proc_share <= starve_share then begin
      rep.starved_windows <- rep.starved_windows + 1;
      Trace.alarm tracer ~alarm:Trace.Starvation
        ~a:(int_of_float (proc_share *. 100.))
        ~b:(int_of_float (intr_share *. 100.))
    end
  end

let attach k =
  let t =
    { kernel = k;
      rep =
        { samples = 0; judged = 0; overload_windows = 0; livelock_windows = 0;
          starved_windows = 0; peak_offered = 0; worst_delivery = 1.;
          peak_intr_share = 0.; peak_poll_share = 0.; ipq_hwm = 0;
          chan_hwm = 0; sock_hwm = 0 };
      ev = Engine.none;
      p_offered = 0; p_delivered = 0; p_hard = 0.; p_soft = 0.; p_proc = 0.;
      p_poll = 0. }
  in
  let engine = Kernel.engine k in
  t.ev <-
    Engine.schedule_after engine ~delay:window (fun () ->
        sample t;
        Engine.reschedule_after engine t.ev ~delay:window);
  t

let detach t = Engine.cancel (Kernel.engine t.kernel) t.ev

let pp_report fmt (r : report) =
  Fmt.pf fmt
    "windows=%d judged=%d overload=%d livelock=%d starved=%d \
     peak_offered=%d worst_delivery=%.2f peak_intr_share=%.2f \
     peak_poll_share=%.2f hwm(ipq=%d chan=%d sock=%d)"
    r.samples r.judged r.overload_windows r.livelock_windows
    r.starved_windows r.peak_offered r.worst_delivery r.peak_intr_share
    r.peak_poll_share r.ipq_hwm r.chan_hwm r.sock_hwm
