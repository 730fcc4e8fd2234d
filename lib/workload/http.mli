(** HTTP server and closed-loop clients (Figure 5).

    Models NCSA httpd 1.5.1's process-per-request structure: the master
    accepts a connection, forks a child, and the child reads the request,
    does the filesystem/formatting work, writes the ~1300-byte document and
    closes.  Eight closed-loop clients saturate the server, as in the
    paper. *)

type server_stats = { mutable accepted : int; mutable served : int; }
val start_server :
  Lrp_kernel.Kernel.t ->
  ?port:int -> unit -> server_stats
(** The httpd master on [port] (default 80, backlog 5): 900 us to fork a
    child per connection, 4 ms of service time per request, a 1300-byte
    document. *)

type client_stats = {
  mutable completed : int;
  mutable failed : int;
  mutable bytes : int;
}
val start_clients :
  Lrp_kernel.Kernel.t ->
  dst:Lrp_net.Packet.ip * int -> ?n:int -> unit -> client_stats
