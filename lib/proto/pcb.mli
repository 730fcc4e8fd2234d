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
    reason). *)

type addr = Lrp_net.Packet.ip * int
type 'a t = {
  udp_bound : (int, 'a) Hashtbl.t;
  udp_connected : (addr * int, 'a) Hashtbl.t;
  tcp_exact : (addr * int, 'a) Hashtbl.t;
  tcp_listen : (int, 'a) Hashtbl.t;
  mutable cells_touched : int;
}
val create : unit -> 'a t
val bind_udp : 'a t -> port:int -> 'a -> unit
val connect_udp : 'a t -> remote:addr -> port:int -> 'a -> unit
val insert_tcp : 'a t -> remote:addr -> port:int -> 'a -> unit
val remove_tcp : 'a t -> remote:addr -> port:int -> unit
val listen_tcp : 'a t -> port:int -> 'a -> unit
val touch : 'a t -> int -> unit
(** Connected-socket match first, then the wildcard bind. *)

val lookup_udp : 'a t -> remote:addr -> port:int -> 'a option
(** Exact four-tuple match first, then a listener on the local port. *)

val lookup_tcp : 'a t -> remote:addr -> port:int -> 'a option
val tcp_count : 'a t -> int
val lookup_cost_cells : 'a t -> int
(** Total table cells touched by lookups — the feed for the cost model
    (BSD's PCB lookup was a known hot spot for HTTP servers). *)
