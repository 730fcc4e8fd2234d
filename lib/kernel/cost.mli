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
  hard_rx : float;
  soft_dispatch : float;
  demux : float;
  ni_wakeup_intr : float;
  ni_channel_access : float;
  ip_in : float;
  udp_in : float;
  tcp_in : float;
  pcb_lookup : float;
  reasm_per_frag : float;
  ip_forward : float;
  ip_out : float;
  udp_out : float;
  tcp_out : float;
  driver_tx : float;
  syscall : float;
  sockq : float;
  sockbuf_append : float;
  sockbuf_op : float;
  mbuf_free : float;
  ipq_op : float;
  copy_per_byte : float;
  ctx_switch : float;
  eager_penalty : float;
  lazy_locality : float;
  napi_irq : float;
  poll_dequeue : float;
  poll_loop : float;
  gro_merge : float;
}
val default : t
val sunos_fore : t
