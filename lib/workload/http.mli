(** HTTP server and closed-loop clients (Figure 5).

    Models NCSA httpd 1.5.1's process-per-request structure: the master
    accepts a connection, forks a child, and the child reads the request,
    does the filesystem/formatting work, writes the ~1300-byte document and
    closes.  Eight closed-loop clients saturate the server, as in the
    paper. *)

type server_stats = { mutable accepted : int; mutable served : int; }
val start_server :
  Lrp_kernel.Kernel.t ->
  ?port:int ->
  ?backlog:int ->
  ?doc_bytes:int ->
  ?service_us:float -> ?fork_us:float -> unit -> server_stats
type client_stats = {
  mutable completed : int;
  mutable failed : int;
  mutable bytes : int;
}
val start_clients :
  Lrp_kernel.Kernel.t ->
  dst:Lrp_net.Packet.ip * int -> ?n:int -> unit -> client_stats
