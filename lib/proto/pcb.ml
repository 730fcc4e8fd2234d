(** Protocol control block tables.

    The classic BSD lookup structures, generic in what they map to (the BSD
    kernel maps to sockets; the LRP channel table maps to NI channels):

    - UDP: by local port (connected UDP sockets also match on the remote
      address first),
    - TCP: exact four-tuple match first, then a listening-socket match on
      the local port.

    [lookup_cost_cells] reports how many table cells a lookup touched, which
    feeds the cost model: the paper notes BSD's PCB lookup is linear and was
    a known performance problem for HTTP servers (it cites Mogul [16] and
    shortens TIME_WAIT in the Figure-5 experiment for exactly this
    reason).

    The tuple-keyed tables here are D4-exempt (see {!Lrp_lint.Config}):
    this module models the {e BSD} lookup whose cost the paper
    criticises — it is not on any LRP fast path (the NI demultiplexer
    uses the packed-key {!Lrp_core.Chantab}/[Flowtab] instead), and its
    generic value type cannot reuse [Flowtab] without inverting the
    layer DAG. *)

open Lrp_net

type addr = Packet.ip * int (* host, port *)

type 'a t = {
  udp_bound : (int, 'a) Hashtbl.t;           (* local port -> v *)
  udp_connected : (addr * int, 'a) Hashtbl.t; (* (remote, local port) -> v *)
  tcp_exact : (addr * int, 'a) Hashtbl.t;    (* (remote, local port) -> v *)
  tcp_listen : (int, 'a) Hashtbl.t;          (* local port -> v *)
  mutable cells_touched : int;
}

let create () =
  { udp_bound = Hashtbl.create 64; udp_connected = Hashtbl.create 64;
    tcp_exact = Hashtbl.create 256; tcp_listen = Hashtbl.create 16;
    cells_touched = 0 }

let bind_udp t ~port v =
  if Hashtbl.mem t.udp_bound port then invalid_arg "Pcb.bind_udp: port in use";
  Hashtbl.replace t.udp_bound port v

let connect_udp t ~remote ~port v = Hashtbl.replace t.udp_connected (remote, port) v

let insert_tcp t ~remote ~port v =
  if Hashtbl.mem t.tcp_exact (remote, port) then
    invalid_arg "Pcb.insert_tcp: four-tuple in use";
  Hashtbl.replace t.tcp_exact (remote, port) v

let remove_tcp t ~remote ~port = Hashtbl.remove t.tcp_exact (remote, port)

let listen_tcp t ~port v =
  if Hashtbl.mem t.tcp_listen port then invalid_arg "Pcb.listen_tcp: port in use";
  Hashtbl.replace t.tcp_listen port v

let touch t n = t.cells_touched <- t.cells_touched + n

let lookup_udp t ~remote ~port =
  touch t 1;
  match Hashtbl.find_opt t.udp_connected (remote, port) with
  | Some v -> Some v
  | None ->
      touch t 1;
      Hashtbl.find_opt t.udp_bound port

let lookup_tcp t ~remote ~port =
  touch t 1;
  match Hashtbl.find_opt t.tcp_exact (remote, port) with
  | Some v -> Some v
  | None ->
      touch t 1;
      Hashtbl.find_opt t.tcp_listen port

let tcp_count t = Hashtbl.length t.tcp_exact
let lookup_cost_cells t = t.cells_touched
