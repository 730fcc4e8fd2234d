(** CPU cost model (microseconds per operation).

    The absolute values are a model of a mid-1990s workstation (the paper's
    60 MHz SuperSPARC SPARCstation-20); the paper reports the two numbers
    that matter most directly:

    - BSD: hardware + software interrupt, including protocol processing,
      ≈ 60 us per packet;
    - SOFT-LRP: hardware interrupt including demultiplexing ≈ 25 us.

    Our defaults reproduce those two aggregates and spread the remainder
    over the operations the simulator charges individually.  Experiments
    compare *shapes* across architectures — every kernel uses the same
    table, so relative results are meaningful even where absolute
    calibration is approximate.

    The [eager_penalty] multiplier models the cache/locality cost of
    processing each packet in a fresh software-interrupt activation;
    [lazy_locality] models the batch-processing locality gain the paper
    credits for part of LRP's throughput advantage (section 4.2 argues the
    gains "must be due in large part to factors such as reduced context
    switching, software interrupt dispatch, and improved memory access
    locality"). *)

type t = {
  (* interrupt path *)
  hard_rx : float;        (* driver hardware-interrupt work per packet *)
  soft_dispatch : float;  (* posting + dispatching a software interrupt *)
  demux : float;          (* early-demux classification (soft demux) *)
  ni_wakeup_intr : float; (* NI-LRP host interrupt, only to wake a receiver *)
  ni_channel_access : float;
      (* NI-LRP only: per-packet cost of reading a packet out of the
         NI-resident channel across the I/O bus.  Soft demux keeps channels
         in host memory and does not pay this. *)
  (* protocol processing *)
  ip_in : float;
  udp_in : float;
  tcp_in : float;         (* per segment, includes typical ACK emission *)
  pcb_lookup : float;     (* BSD's PCB lookup (bypassed under early demux) *)
  reasm_per_frag : float;
  ip_forward : float;     (* forwarding decision + header rewrite *)
  ip_out : float;
  udp_out : float;
  tcp_out : float;        (* per emitted segment *)
  driver_tx : float;      (* handing a packet to the interface *)
  (* socket / syscall *)
  syscall : float;        (* entering + leaving the kernel *)
  sockq : float;          (* one NI-channel queue operation (LRP) *)
  sockbuf_append : float; (* BSD socket-buffer append (softint side) *)
  sockbuf_op : float;     (* BSD socket-buffer dequeue with mbuf chain
                             walking (app side, sbappendaddr and friends) *)
  mbuf_free : float;      (* releasing a packet's mbuf chain *)
  ipq_op : float;         (* shared IP queue enqueue or dequeue *)
  copy_per_byte : float;
  (* process *)
  ctx_switch : float;
  (* locality model *)
  eager_penalty : float;  (* >= 1: protocol work in interrupt context *)
  lazy_locality : float;  (* <= 1: batched protocol work in process context *)
  (* NAPI-era receive path *)
  napi_irq : float;       (* mitigated interrupt: ack + mask + schedule poll;
                             no per-packet work happens here *)
  poll_dequeue : float;   (* pulling one packet off a NIC ring in the poll
                             loop (descriptor read + mbuf setup) *)
  poll_loop : float;      (* fixed overhead of one poll round *)
  gro_merge : float;      (* absorbing one segment into a held GRO train *)
}

(* 4.4BSD / LRP kernels with the paper's custom ATM driver. *)
let default =
  { hard_rx = 15.; soft_dispatch = 10.; demux = 8.; ni_wakeup_intr = 5.;
    ni_channel_access = 7.;
    ip_in = 8.; udp_in = 10.; tcp_in = 35.; pcb_lookup = 7.;
    reasm_per_frag = 6.; ip_forward = 14.; ip_out = 8.; udp_out = 10.;
    tcp_out = 25.;
    driver_tx = 12.;
    syscall = 55.; sockq = 6.; sockbuf_append = 4.; sockbuf_op = 15.;
    mbuf_free = 8.; ipq_op = 2.;
    copy_per_byte = 0.085;
    ctx_switch = 18.;
    eager_penalty = 1.2; lazy_locality = 0.9;
    napi_irq = 6.; poll_dequeue = 9.; poll_loop = 2.; gro_merge = 2. }

(* The vendor SunOS kernel with the Fore ATM driver: same architecture as
   BSD but a slower driver and copy path (Table 1 shows it well behind the
   4.4BSD-Lite-based kernels; the paper attributes this to known Fore driver
   performance problems). *)
let sunos_fore =
  { default with
    hard_rx = 45.; driver_tx = 45.; copy_per_byte = 0.11; syscall = 65. }
