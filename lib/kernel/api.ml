(** Socket system calls.

    Every function here runs in simulated process context (inside a
    {!Lrp_sim.Proc} coroutine) and charges CPU through {!Lrp_sim.Cpu.compute}.
    This is where the architectural difference on the receive path is most
    visible:

    - under BSD / Early-Demux, [recvfrom] finds fully-processed datagrams on
      the socket queue (deposited by software interrupts) and merely copies
      them out;
    - under LRP, [recvfrom] takes {e raw packets} off the socket's NI
      channel and performs IP and UDP processing right here, in the
      receiving process's context, at its priority, charged to it —
      the "lazy receiver processing" the paper is named after
      (section 3.3). *)

open Lrp_sim
open Lrp_net
open Lrp_proto
open Lrp_core

type dgram = {
  mutable dg_payload : Payload.t;
  mutable dg_src : Packet.ip;
  mutable dg_sport : int;
  mutable dg_pkt : int;
}

let dgram () =
  { dg_payload = Packet.empty_payload; dg_src = 0; dg_sport = 0; dg_pkt = 0 }

exception Socket_closed

let c (k : Kernel.t) = Kernel.costs k

(* TCP send and receive buffers, bytes (the testbed's 32 kB). *)
let sock_buf = 32 * 1024

(* Charge [d] microseconds of CPU to the calling process.  Inlined, so a
   computed cost is stored straight into the CPU's staged-cost cell: a
   float passed to a call that is not inlined is boxed, and whether a call
   into another module is inlined is the compiler's choice (never under
   [-opaque]). *)
let[@inline] compute (k : Kernel.t) d =
  (Cpu.cost_cell k.Kernel.cpu).(0) <- d;
  Cpu.compute k.Kernel.cpu

(* Per-segment transmit cost (protocol output + driver), and the cost of
   sending one UDP datagram excluding the per-byte copy.  Computed here
   and inlined, so the float is never returned across a module
   boundary, where it would be boxed. *)
let[@inline] seg_out_cost k =
  let c = c k in
  c.Cost.tcp_out +. c.Cost.ip_out +. c.Cost.driver_tx

let[@inline] udp_send_cost k ~frags =
  let c = c k in
  c.Cost.udp_out +. (float_of_int frags *. (c.Cost.ip_out +. c.Cost.driver_tx))

(* Number of IP fragments a datagram of [bytes] payload needs. *)
let frag_count ~header ~bytes =
  let total = Packet.ip_header_bytes + header + bytes in
  if total <= Kernel.mtu then 1
  else
    let cap = (Kernel.mtu - Packet.ip_header_bytes) / 8 * 8 in
    (header + bytes + cap - 1) / cap

(* ------------------------------------------------------------------ *)
(* Socket lifecycle                                                     *)
(* ------------------------------------------------------------------ *)

let socket_dgram = Socket.dgram

let socket_stream (k : Kernel.t) = Socket.open_stream k.Kernel.socks

(* A stream handle's socket: {!Socket.stale}, which answers as a closed
   socket, once the handle's slot has been freed. *)
let[@inline] stream (k : Kernel.t) h = Socket.lookup k.Kernel.socks h

(* ... which must be open. *)
let open_exn k h =
  let sock = stream k h in
  if sock.Socket.closed then raise Socket_closed;
  sock

(* [bind k sock ~owner ~port] binds a datagram socket to a local port.
   Under LRP this also creates the socket's NI channel (section 3.1). *)
let bind k (sock : Socket.t) ~owner ~port =
  if sock.Socket.kind <> Socket.Dgram then
    invalid_arg "Api.bind: datagram sockets only";
  Kernel.bind k sock ~owner ~port

let bind_ephemeral k sock ~owner =
  let port = Kernel.fresh_port k in
  bind k sock ~owner ~port;
  port

(* [join_group k sock ~owner ~group ~port] subscribes a datagram socket to
   a multicast group.  All members of the group share a single NI channel
   (paper section 3.1); the first joiner creates it. *)
let join_group k (sock : Socket.t) ~owner ~group ~port =
  if not (Packet.is_multicast_addr group) then
    invalid_arg "Api.join_group: not a multicast address";
  if sock.Socket.kind <> Socket.Dgram then
    invalid_arg "Api.join_group: datagram sockets only";
  Kernel.join_group k sock ~owner ~port

let leave_group = Kernel.leave_group

(* ------------------------------------------------------------------ *)
(* UDP send                                                             *)
(* ------------------------------------------------------------------ *)

(* Raised by [sendto] on a stream socket, whose statistics are its
   kernel's shared ones. *)
let not_dgram = Invalid_argument "Api.sendto: datagram sockets only"

let sendto k ~(self : Proc.t) (sock : Socket.t) ~dst:(dip, dport) payload =
  if sock.Socket.closed then raise Socket_closed;
  if sock.Socket.kind <> Socket.Dgram then raise not_dgram;
  let sport =
    if sock.Socket.port >= 0 then sock.Socket.port
    else bind_ephemeral k sock ~owner:(Some self)
  in
  let len = Payload.length payload in
  let frags = frag_count ~header:Packet.udp_header_bytes ~bytes:len in
  compute k
    ((c k).Cost.syscall
     +. ((c k).Cost.copy_per_byte *. float_of_int len)
     +. udp_send_cost k ~frags);
  let row =
    Parena.udp k.Kernel.parena ~src:(Kernel.ip_address k) ~dst:dip
      ~src_port:sport ~dst_port:dport payload
  in
  sock.Socket.stats.Socket.tx_packets <- sock.Socket.stats.Socket.tx_packets + 1;
  Kernel.ip_output_row k row

let udp_connect (sock : Socket.t) ~remote = sock.Socket.remote <- Some remote

(* ------------------------------------------------------------------ *)
(* UDP receive                                                          *)
(* ------------------------------------------------------------------ *)

(* Copy the datagram at the head of the (non-empty) socket queue out to
   the caller's [dg], read off its row.  The payload pointer is stored
   only when it changes (copyout of a synthetic payload usually returns
   the pool's cached one), so the steady loop takes no write barrier. *)
let take_ready k (sock : Socket.t) dg =
  let row = Queue.take sock.Socket.udp_rcv in
  let pool = k.Kernel.parena in
  let len = Parena.payload_len pool row in
  let c = c k in
  (* BSD dequeues from the socket buffer, walking and freeing the mbuf
     chain; LRP's ready queue is a plain channel-style queue. *)
  compute k
    ((match k.Kernel.proto with
      | Kernel.Lazy -> c.Cost.sockq
      | Kernel.Eager -> c.Cost.sockbuf_op +. c.Cost.mbuf_free)
     +. (c.Cost.copy_per_byte *. float_of_int len));
  let payload = Parena.payload pool row in
  if dg.dg_payload != payload then dg.dg_payload <- payload;
  dg.dg_src <- Parena.src pool row;
  dg.dg_sport <- Parena.sport pool row;
  dg.dg_pkt <- Parena.ident pool row;
  (* The copyout releases the datagram's row, and with it the mbufs
     charged to it at admission. *)
  Kernel.free_rx_pkt k row;
  sock.Socket.stats.Socket.rx_delivered <-
    sock.Socket.stats.Socket.rx_delivered + 1;
  Lrp_trace.Trace.syscall_copyout (Kernel.tracer k)
    ~pkt:dg.dg_pkt ~sock:sock.Socket.id ~bytes:len

let ready (sock : Socket.t) = not (Queue.is_empty sock.Socket.udp_rcv)

(* Nothing is ready on the socket queue.  Under LRP, take a raw packet off
   the socket's NI channel and process it now, in our own context; with
   the channel empty too, ask for an interrupt and block. *)
let await_ready k (sock : Socket.t) =
  match sock.Socket.chan with
  | Some ch ->
      if not (Kernel.lrp_recv_one k ch) then begin
        Channel.request_interrupt ch;
        Proc.block sock.Socket.recv_wait
      end
  | None -> Proc.block sock.Socket.recv_wait

let rec recv_blocking k (sock : Socket.t) dg =
  if sock.Socket.closed then raise Socket_closed
  else if ready sock then take_ready k sock dg
  else begin
    await_ready k sock;
    recv_blocking k sock dg
  end

(* [recvfrom k sock dg] blocks until a datagram is available and copies
   it out into [dg].  Under LRP, performs the protocol processing lazily
   here. *)
let recvfrom k (sock : Socket.t) dg =
  if sock.Socket.kind <> Socket.Dgram then
    (* alloc: cold — misuse error *)
    invalid_arg "Api.recvfrom: datagram sockets only";
  compute k (c k).Cost.syscall;
  recv_blocking k sock dg

let rec recv_until k (sock : Socket.t) dg expired =
  if sock.Socket.closed then false
  else if ready sock then begin
    take_ready k sock dg;
    true
  end
  else if !expired then false
  else begin
    await_ready k sock;
    recv_until k sock dg expired
  end

(* [recvfrom_timeout k sock dg ~timeout] is [recvfrom] with a deadline:
   [false] if no datagram arrived in time. *)
let recvfrom_timeout k (sock : Socket.t) dg ~timeout =
  compute k (c k).Cost.syscall;
  let engine = Kernel.engine k in
  let deadline = Lrp_engine.Engine.now engine +. timeout in
  let expired = ref false in
  (* Typed fast path: the expiry event carries (sock, expired) to a
     per-kernel dispatcher instead of capturing them in a closure. *)
  let timer =
    Lrp_engine.Engine.schedule_to engine ~at:deadline
      (Kernel.recv_timeout_target k) (sock, expired)
  in
  let got = recv_until k sock dg expired in
  Lrp_engine.Engine.cancel engine timer;
  got

let rec try_take k (sock : Socket.t) dg =
  if ready sock then begin
    take_ready k sock dg;
    true
  end
  else
    match sock.Socket.chan with
    | Some ch when Kernel.lrp_recv_one k ch -> try_take k sock dg
    | Some _ | None -> false

(* Non-blocking variant: [false] when nothing is available right now. *)
let try_recvfrom k (sock : Socket.t) dg =
  compute k (c k).Cost.syscall;
  try_take k sock dg

(* ------------------------------------------------------------------ *)
(* TCP                                                                  *)
(* ------------------------------------------------------------------ *)

let tcp_listen k ~(self : Proc.t) h ~port ~backlog =
  compute k (c k).Cost.syscall;
  let sock = open_exn k h in
  sock.Socket.accept_wait <- Proc.waitq "accept";
  let listener =
    Tcp.create_listener (Kernel.tcp_env_exn k) ~local_ip:(Kernel.ip_address k)
      ~local_port:port ~sndq_limit:sock_buf
      ~rcv_buf_limit:sock_buf ~backlog ()
  in
  Kernel.open_conn k sock listener ~owner:self

(* A socket with no connection holds [Tcp.null_conn], which is [Closed]. *)
let listener_exn (sock : Socket.t) =
  let l = Socket.conn sock in
  if Tcp.state l <> Tcp.Listen then invalid_arg "not a listening socket";
  l

(* A stale handle's socket has no connection, and answers as a closed
   socket whose connection was recycled. *)
let conn_exn (sock : Socket.t) =
  if sock.Socket.tcp == Tcp.null_conn && sock != Socket.stale then
    invalid_arg "not a connected stream socket";
  Socket.conn sock

(* A listener is recycled only after its socket closes, which the loop
   checks first.  The child popped is held by nobody until it is
   attached: if it is reset, or aborted by its listener's close, during
   the charge, it goes back to the pool, and the accept takes the next
   child (or fails, the listener being closed). *)
let rec accept_wait k ~(self : Proc.t) h listener =
  let sock = open_exn k h in
  let conn = Tcp.accept_pop listener in
  if conn != Tcp.null_conn then begin
    let id = conn.Tcp.id in
    Kernel.update_listen_gate k listener;
    compute k (c k).Cost.sockq;
    if conn.Tcp.id <> id then accept_wait k ~self h listener
    else begin
      let ns = socket_stream k in
      Kernel.attach k (stream k ns) conn ~owner:self;
      ns
    end
  end
  else begin
    Proc.block sock.Socket.accept_wait;
    accept_wait k ~self h listener
  end

(* [tcp_accept k ~self h] blocks until an established connection is
   available and returns a fresh socket for it, owned by [self]. *)
let tcp_accept k ~(self : Proc.t) h =
  let listener = listener_exn (stream k h) in
  compute k (c k).Cost.syscall;
  accept_wait k ~self h listener

(* The blocking loops below look the handle up, and read the connection
   through [Socket.conn], after every wait: another process may close
   the socket meanwhile, its connection be recycled, and its slot serve
   another socket. *)
let rec connect_wait k h =
  let sock = stream k h in
  match Tcp.state (Socket.conn sock) with
  | Tcp.Established -> `Ok
  | Tcp.Closed -> `Refused
  | Tcp.Syn_sent | Tcp.Syn_received | Tcp.Listen | Tcp.Fin_wait_1
  | Tcp.Fin_wait_2 | Tcp.Close_wait | Tcp.Last_ack | Tcp.Closing
  | Tcp.Time_wait ->
      Proc.block sock.Socket.send_wait;
      connect_wait k h

(* [tcp_connect k ~self h ~remote] performs an active open and blocks
   until established or failed. *)
let tcp_connect k ~(self : Proc.t) h ~remote =
  let local_port = Kernel.fresh_port k in
  compute k ((c k).Cost.syscall +. seg_out_cost k);
  let sock = open_exn k h in
  let conn =
    Tcp.create_active (Kernel.tcp_env_exn k) ~local_ip:(Kernel.ip_address k)
      ~local_port ~remote ~sndq_limit:sock_buf
      ~rcv_buf_limit:sock_buf ()
  in
  Kernel.open_conn k sock conn ~owner:self;
  connect_wait k h

(* Queue [payload] on [conn], charging the copy and every segment the
   send emitted, and block while the send buffer is full. *)
let rec send_all k h payload =
  let sock = stream k h in
  let conn = Socket.conn sock in
  let before = Tcp.segs_sent conn in
  let n = Tcp.send conn payload in
  if n > 0 then begin
    let emitted = Tcp.segs_sent conn - before in
    compute k
      (((c k).Cost.copy_per_byte *. float_of_int n)
       +. (float_of_int emitted *. seg_out_cost k));
    let len = Payload.length payload in
    if n < len then send_all k h (Payload.sub payload n (len - n))
    else `Ok
  end
  else if n = 0 then begin
    Proc.block sock.Socket.send_wait;
    send_all k h payload
  end
  else `Closed

(* [tcp_send k h payload] queues the whole payload, blocking as the
   send buffer fills.  Returns [`Closed] if the connection dies first. *)
let tcp_send k h payload =
  ignore (conn_exn (stream k h) : Tcp.conn);
  compute k (c k).Cost.syscall;
  send_all k h payload

(* Take up to [max] bytes from [conn], charging the copy and any window
   update the read emitted, and block while nothing is buffered. *)
let rec recv_wait k h ~max =
  let sock = stream k h in
  let conn = Socket.conn sock in
  let before = Tcp.segs_sent conn in
  let payload = Tcp.recv conn ~max in
  if payload != Tcp.no_data then begin
    let emitted = Tcp.segs_sent conn - before in
    compute k
      ((c k).Cost.sockq
       +. ((c k).Cost.copy_per_byte *. float_of_int (Payload.length payload))
       +. (float_of_int emitted *. seg_out_cost k));
    `Data payload
  end
  else if Tcp.at_eof conn then `Eof
  else begin
    Proc.block sock.Socket.recv_wait;
    recv_wait k h ~max
  end

(* [tcp_recv k h ~max] blocks for data; [`Eof] at end of stream. *)
let tcp_recv k h ~max =
  ignore (conn_exn (stream k h) : Tcp.conn);
  compute k (c k).Cost.syscall;
  recv_wait k h ~max

(* Hand a connected socket to another process (e.g. an HTTP server child
   after fork): future APP work is charged to the new owner. *)
let set_owner k h ~(owner : Proc.t) =
  let sock = stream k h in
  let conn = Socket.conn sock in
  if conn != Tcp.null_conn then Kernel.attach k sock conn ~owner

(* ------------------------------------------------------------------ *)
(* Close                                                                *)
(* ------------------------------------------------------------------ *)

(* A connection's or listener's endpoint is released when TCP reports it
   gone, and the connection recycled once nothing holds it; the socket's
   slot is freed once its endpoint no longer names it. *)
let close k h =
  if not (stream k h).Socket.closed then begin
    compute k (c k).Cost.syscall;
    let sock = stream k h in
    if not sock.Socket.closed then begin
      let emitted = Kernel.shut_stream k sock in
      if emitted > 0 then compute k (float_of_int emitted *. seg_out_cost k);
      Kernel.finish_close k sock
    end
  end

(* A datagram socket's endpoint is released right here. *)
let close_dgram k (sock : Socket.t) =
  if not sock.Socket.closed then begin
    compute k (c k).Cost.syscall;
    sock.Socket.closed <- true;
    Kernel.close_dgram k sock;
    Kernel.wake_all k sock.Socket.recv_wait;
    Kernel.wake_all k sock.Socket.send_wait;
    Kernel.wake_all k sock.Socket.accept_wait
  end
