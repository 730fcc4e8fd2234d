(** HTTP server and closed-loop clients (Figure 5).

    Models NCSA httpd 1.5.1's process-per-request structure: the master
    accepts a connection, forks a child, and the child reads the request,
    does the filesystem/formatting work, writes the ~1300-byte document and
    closes.  Eight closed-loop clients saturate the server, as in the
    paper. *)

open Lrp_engine
open Lrp_sim
open Lrp_net
open Lrp_kernel

type server_stats = {
  mutable accepted : int;
  mutable served : int;
}

(* The workload's constants: the document's size, and the CPU time of the
   master's fork() and of a child's filesystem/formatting work, us. *)
let doc_bytes = 1300
let fork_us = 900.
let service_us = 4_000.
let request_bytes = 100

(* [start_server kern ~port ()] spawns the httpd master process. *)
let start_server kern ?(port = 80) () =
  let backlog = 5 in
  let st = { accepted = 0; served = 0 } in
  ignore
    (Cpu.spawn (Kernel.cpu kern) ~name:"httpd" (fun self ->
         let lsock = Api.socket_stream kern in
         Api.tcp_listen kern ~self lsock ~port ~backlog;
         let rec accept_loop () =
           let conn = Api.tcp_accept kern ~self lsock in
           st.accepted <- st.accepted + 1;
           (* fork() a child to serve the request. *)
           (Cpu.cost_cell (Kernel.cpu kern)).(0) <- fork_us;
           Cpu.compute (Kernel.cpu kern);
           let child =
             Cpu.spawn (Kernel.cpu kern)
               ~name:("httpd-child" ^ string_of_int st.accepted)
               ~working_set:50.
               (fun _ ->
                 (match Api.tcp_recv kern conn ~max:4096 with
                  | `Data _request ->
                      (Cpu.cost_cell (Kernel.cpu kern)).(0) <- service_us;
                      Cpu.compute (Kernel.cpu kern);
                      (match
                         Api.tcp_send kern conn
                           (Payload.synthetic doc_bytes)
                       with
                       | `Ok -> st.served <- st.served + 1
                       | `Closed -> ())
                  | `Eof -> ());
                 Api.close kern conn)
           in
           Api.set_owner kern conn ~owner:child;
           accept_loop ()
         in
         try accept_loop () with Api.Socket_closed -> ()));
  st

type client_stats = {
  mutable completed : int;
  mutable failed : int;
  mutable bytes : int;
}

(* One closed-loop HTTP client: connect, request, read the document,
   close, repeat. *)
let start_client kern ~dst ~id stats =
  ignore
    (Cpu.spawn (Kernel.cpu kern) ~name:("http-client" ^ string_of_int id)
       (fun self ->
        let rec session () =
          let sock = Api.socket_stream kern in
          (match Api.tcp_connect kern ~self sock ~remote:dst with
           | `Refused ->
               stats.failed <- stats.failed + 1;
               Api.close kern sock;
               (* Back off briefly before retrying, like a browser would. *)
               Proc.sleep_for (Time.ms 100.)
           | `Ok ->
               (match
                  Api.tcp_send kern sock (Payload.synthetic request_bytes)
                with
                | `Closed -> stats.failed <- stats.failed + 1
                | `Ok ->
                    let rec read_doc got =
                      if got >= doc_bytes then begin
                        stats.completed <- stats.completed + 1;
                        stats.bytes <- stats.bytes + got
                      end
                      else
                        match Api.tcp_recv kern sock ~max:65_536 with
                        | `Data p -> read_doc (got + Payload.length p)
                        | `Eof -> stats.failed <- stats.failed + 1
                    in
                    read_doc 0);
               Api.close kern sock);
          session ()
        in
        session ()))

(* [start_clients kern ~dst ~n ()] returns aggregate stats for [n]
   closed-loop clients. *)
let start_clients kern ~dst ?(n = 8) () =
  let stats = { completed = 0; failed = 0; bytes = 0 } in
  for i = 1 to n do
    start_client kern ~dst ~id:i stats
  done;
  stats
