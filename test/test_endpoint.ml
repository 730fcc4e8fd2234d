(* Endpoint lifecycle: every socket, group, listener and connection has one
   kernel endpoint record, and closing it releases everything it held. *)

open Lrp_engine
open Lrp_sim
open Lrp_net
open Lrp_kernel
open Lrp_workload

let archs =
  [ Kernel.Bsd; Kernel.Soft_lrp; Kernel.Ni_lrp; Kernel.Early_demux;
    Kernel.Napi; Kernel.Napi_gro; Kernel.Rss ]

(* A stream handle's socket record. *)
let sk (k : Kernel.t) h = Socket.lookup k.Kernel.socks h

(* Every frame the kernel received for the socket ends in exactly one
   state: delivered, dropped at the socket queue (or freed there on
   close), discarded early, or dropped on the receive path. *)
let accounted (k : Kernel.t) (sock : Socket.t) =
  let s = Kernel.stats k in
  let ss = sock.Socket.stats in
  ss.Socket.rx_delivered + ss.Socket.rx_sockq_drops + Kernel.early_discards k
  + s.Kernel.ipq_drops + s.Kernel.mbuf_drops + s.Kernel.no_port_drops
  + s.Kernel.demux_drops + s.Kernel.edemux_early_drops

(* 2,000 datagrams/s of 14 bytes for 40 ms at a socket whose owner sleeps
   and then closes it at 50 ms: the socket queue and (under LRP) the
   channel are full when it closes. *)
let test_udp_close_frees () =
  List.iter
    (fun arch ->
      let name = Kernel.arch_name arch in
      let cfg = Kernel.default_config arch in
      let w, client, server = World.pair ~cfg () in
      let sock = Api.socket_dgram () in
      ignore
        (Cpu.spawn (Kernel.cpu server) ~name:"sleeper" (fun self ->
             Api.bind server sock ~owner:(Some self) ~port:5000;
             Proc.sleep_for (Time.ms 50.);
             Api.close_dgram server sock));
      let sent = 80 in
      for i = 0 to sent - 1 do
        ignore
          (Engine.schedule (World.engine w)
             ~at:(Time.ms (0.5 *. float_of_int i))
             (fun () ->
               ignore
                 (Nic.transmit (Kernel.nic client)
                    (Packet.udp ~src:(Kernel.ip_address client)
                       ~dst:(Kernel.ip_address server) ~src_port:9
                       ~dst_port:5000 (Payload.synthetic 14)))))
      done;
      World.run w ~until:(Time.ms 45.);
      let discards_open = Kernel.early_discards server in
      World.run w ~until:(Time.ms 100.);
      let check what = Alcotest.(check int) (name ^ ": " ^ what) in
      check "every datagram ends in one state" sent (accounted server sock);
      check "no descriptor left in the arena" 0
        (Parena.live server.Kernel.parena);
      check "no mbuf left in use" 0 (Mbuf.in_use (Kernel.mbufs server));
      Alcotest.(check bool)
        (Printf.sprintf "%s: early discards do not shrink on close (%d -> %d)"
           name discards_open (Kernel.early_discards server))
        true (Kernel.early_discards server >= discards_open))
    archs

(* The size of every endpoint table: each namespace of the demux table,
   all its entries and those with a channel, the endpoints by conn id,
   the helper's list and the live channel list. *)
let tables (k : Kernel.t) =
  let ct = Kernel.chantab k in
  let space name sp =
    let eps = Lrp_core.Chantab.bindings ct sp in
    [ ("chantab " ^ name, List.length eps);
      ( "chantab " ^ name ^ " with a channel",
        List.length
          (List.filter
             (fun (ep : Kernel.ep) -> Option.is_some ep.Kernel.ep_chan)
             eps) ) ]
  in
  space "udp" Lrp_core.Chantab.Udp_port
  @ space "listen" Lrp_core.Chantab.Listen_port
  @ space "tcp" Lrp_core.Chantab.Tcp_flow
  @ [ ("eps", Lrp_det.Itab.length k.Kernel.eps);
      ("udp_eps", List.length k.Kernel.udp_eps);
      ("channels", List.length (Kernel.channels k)) ]

(* Each pool's live and spare records: the TCP env's connections, the
   kernel's connection endpoints, channels, APP records and stream
   sockets, the CPU's processes and its ledger's pid rows. *)
let census (k : Kernel.t) =
  let sp = (Kernel.tcp_env_exn k).Lrp_proto.Tcp.spare in
  let pair name (live, free) = [ (name ^ " live", live); (name ^ " free", free) ] in
  let pool name p = pair name (Lrp_det.Pool.live p, Lrp_det.Pool.spare p) in
  [ ("conns live", sp.Lrp_proto.Tcp.live); ("conns free", sp.Lrp_proto.Tcp.nfree) ]
  @ pool "conn eps" k.Kernel.ep_pool
  @ pool "conn chans" k.Kernel.chan_pool
  @ pool "apps" k.Kernel.app_pool
  @ pair "socks" (Socket.census k.Kernel.socks)
  @ pair "procs" (Cpu.proc_pool (Kernel.cpu k))
  @ pair "pid rows" (Ledger.pid_rows (Cpu.ledger (Kernel.cpu k)))

(* The live rows of a census. *)
let live k =
  List.filter (fun (name, _) -> Filename.check_suffix name " live") (census k)

(* ... of the pools that hold connections and their sockets. *)
let conn_live k =
  List.filter
    (fun (name, _) ->
      not (List.mem name [ "apps live"; "procs live"; "pid rows live" ]))
    (live k)

(* The processes a fresh kernel of [arch] runs: its daemons. *)
let daemons arch =
  let _, _, k = World.pair ~cfg:(Kernel.default_config arch) () in
  Cpu.proc_count (Kernel.cpu k)

(* What a kernel has live in its pools when it holds [conns] connections
   and listeners, [chans] of them with a channel, and [socks] stream
   sockets (open, or closed but still named by their connection's
   endpoint), and when beside its daemons [running] processes run (APP
   threads included, [apps] of them) and [procs] records are live: the
   running ones and the reaped owners an APP thread still charges.  A
   pid row is kept for each running process and the idle context. *)
let live_expected arch ~conns ~chans ~socks ~procs ~running ~apps =
  let d = daemons arch in
  [ ("conns live", conns); ("conn eps live", conns);
    ("conn chans live", if Kernel.is_lrp arch then chans else 0);
    ("apps live", apps); ("socks live", socks); ("procs live", d + procs);
    ("pid rows live", 1 + d + running) ]

(* The tables of a kernel holding [udp] bound sockets, [groups] groups,
   [listeners] listeners and [conns] connections, [conn_chans] of which
   still have a channel (NI-LRP frees it on entry to TIME_WAIT).  Every
   architecture holds its endpoints in the demux table; only the lazy
   ones give them channels. *)
let expected arch ~udp ~groups ~listeners ~conns ~conn_chans =
  let ch n = if Kernel.is_lrp arch then n else 0 in
  [ ("chantab udp", udp + groups);
    ("chantab udp with a channel", ch (udp + groups));
    ("chantab listen", listeners);
    ("chantab listen with a channel", ch listeners);
    ("chantab tcp", conns); ("chantab tcp with a channel", ch conn_chans);
    ("eps", listeners + conns); ("udp_eps", ch udp);
    ("channels", ch (udp + groups + listeners + conn_chans) + 3) ]

(* UDP bind/close, group join/leave, a listener, an accepted connection
   handed to a child with [set_owner] and closed through TIME_WAIT, and an
   active open on the client. *)
let test_lifecycle () =
  List.iter
    (fun arch ->
      let name = Kernel.arch_name arch in
      let cfg =
        { (Kernel.default_config arch) with Kernel.time_wait = Time.ms 50. }
      in
      let w, client, server = World.pair ~cfg () in
      let group = Packet.ip_of_quad 224 1 1 1 in
      let owner_handed = ref false in
      let served = ref false and fetched = ref false in
      ignore
        (Cpu.spawn (Kernel.cpu server) ~name:"srv" (fun self ->
             let u = Api.socket_dgram () in
             Api.bind server u ~owner:(Some self) ~port:5000;
             let m1 = Api.socket_dgram () in
             let m2 = Api.socket_dgram () in
             Api.join_group server m1 ~owner:(Some self) ~group ~port:6000;
             Api.join_group server m2 ~owner:(Some self) ~group ~port:6000;
             let l = Api.socket_stream server in
             Api.tcp_listen server ~self l ~port:80 ~backlog:4;
             let conn = Api.tcp_accept server ~self l in
             let child =
               Cpu.spawn (Kernel.cpu server) ~name:"child" (fun _ ->
                   (match Api.tcp_recv server conn ~max:4096 with
                    | `Data _ ->
                        let doc = Payload.synthetic 200 in
                        served := Api.tcp_send server conn doc = `Ok
                    | `Eof -> ());
                   Api.close server conn)
             in
             Api.set_owner server conn ~owner:child;
             (let c = (sk server conn).Socket.tcp in
              let ep =
                Lrp_det.Itab.find_opt server.Kernel.eps c.Lrp_proto.Tcp.id
              in
              owner_handed :=
                match ep with
                | Some { Kernel.ep_owner = p; _ } -> p == child
                | None -> false);
             Proc.sleep_for (Time.ms 30.);
             Api.close_dgram server u;
             Api.leave_group server m1 ~port:6000;
             Api.close_dgram server m1;
             Api.close_dgram server m2;
             Proc.sleep_for (Time.ms 90.);
             Api.close server l));
      ignore
        (Cpu.spawn (Kernel.cpu client) ~name:"cli" (fun self ->
             Proc.sleep_for (Time.ms 1.);
             let s = Api.socket_stream client in
             let remote = (Kernel.ip_address server, 80) in
             (match Api.tcp_connect client ~self s ~remote with
              | `Ok ->
                  ignore (Api.tcp_send client s (Payload.synthetic 100));
                  let rec drain () =
                    match Api.tcp_recv client s ~max:65_536 with
                    | `Data _ ->
                        fetched := true;
                        drain ()
                    | `Eof -> ()
                  in
                  drain ()
              | `Refused -> ());
             Api.close client s));
      let check_at ms k what exp ~pools =
        World.run w ~until:(Time.ms ms);
        let what =
          Printf.sprintf "%s %s at %.0f ms: %s" name (Kernel.name k) ms what
        in
        Alcotest.(check (list (pair string int))) what exp (tables k);
        Alcotest.(check (list (pair string int))) (what ^ " (pools)") pools (live k)
      in
      let tw = if arch = Kernel.Ni_lrp then 0 else 1 in
      (* Under LRP a process's TCP work runs in its APP thread.  One
         blocked when its owner exits is never woken: it stays, and
         keeps its owner's record (here the server's and the client's,
         the child's having exited with work queued). *)
      let lrp a b = if Kernel.is_lrp arch then a else b in
      check_at 20. server "server connection in TIME_WAIT"
        (expected arch ~udp:1 ~groups:1 ~listeners:1 ~conns:1 ~conn_chans:tw)
        ~pools:
          (live_expected arch ~conns:2 ~chans:(1 + tw) ~socks:2
             ~procs:(lrp 2 1) ~running:(lrp 2 1) ~apps:(lrp 1 0));
      check_at 20. client "client closed"
        (expected arch ~udp:0 ~groups:0 ~listeners:0 ~conns:0 ~conn_chans:0)
        ~pools:
          (live_expected arch ~conns:0 ~chans:0 ~socks:0 ~procs:(lrp 2 0)
             ~running:(lrp 1 0) ~apps:(lrp 1 0));
      check_at 100. server "only the listener left"
        (expected arch ~udp:0 ~groups:0 ~listeners:1 ~conns:0 ~conn_chans:0)
        ~pools:
          (live_expected arch ~conns:1 ~chans:1 ~socks:1 ~procs:(lrp 2 1)
             ~running:(lrp 2 1) ~apps:(lrp 1 0));
      check_at 200. server "everything closed"
        (expected arch ~udp:0 ~groups:0 ~listeners:0 ~conns:0 ~conn_chans:0)
        ~pools:
          (live_expected arch ~conns:0 ~chans:0 ~socks:0 ~procs:(lrp 2 0)
             ~running:(lrp 1 0) ~apps:(lrp 1 0));
      (* Every record came back: each pool holds what it made (the
         server's and the child's processes, or the child and its APP
         thread). *)
      Alcotest.(check (list (pair string int)))
        (name ^ ": the server's records are all spare")
        [ ("conns free", 2); ("conn eps free", 2);
          ("conn chans free", lrp 2 0); ("apps free", lrp 1 0);
          ("socks free", 2); ("procs free", 2) ]
        (List.filter
           (fun (n, _) ->
             Filename.check_suffix n " free" && n <> "pid rows free")
           (census server));
      Alcotest.(check bool) (name ^ ": request served and fetched") true
        (!served && !fetched);
      Alcotest.(check bool) (name ^ ": set_owner hands the endpoint over") true
        !owner_handed;
      List.iter
        (fun k ->
          Alcotest.(check int) (name ^ ": no descriptor left") 0
            (Parena.live k.Kernel.parena);
          Alcotest.(check int) (name ^ ": no mbuf left") 0
            (Mbuf.in_use (Kernel.mbufs k)))
        [ server; client ])
    archs

(* A backlog-4 listener with two established connections on its accept
   queue and one embryonic child (a SYN from an unroutable source, whose
   SYN-ACK is lost) is closed at 20 ms: every unaccepted connection is
   aborted with an RST, in ascending connection id, and past TIME_WAIT
   both kernels hold exactly what a fresh kernel holds. *)
let test_listener_close_aborts () =
  List.iter
    (fun arch ->
      let name = Kernel.arch_name arch in
      let cfg =
        { (Kernel.default_config arch) with Kernel.time_wait = Time.ms 50. }
      in
      let fresh, fresh_live =
        let _, _, k = World.pair ~cfg () in
        (tables k, conn_live k)
      in
      let scenario () =
        let w, client, server = World.pair ~cfg () in
        ignore
          (Cpu.spawn (Kernel.cpu server) ~name:"srv" (fun self ->
               let l = Api.socket_stream server in
               Api.tcp_listen server ~self l ~port:80 ~backlog:4;
               Proc.sleep_for (Time.ms 20.);
               Api.close server l));
        let connected = ref 0 in
        for i = 1 to 2 do
          ignore
            (Cpu.spawn (Kernel.cpu client) ~name:(Printf.sprintf "cli%d" i)
               (fun self ->
                 Proc.sleep_for (Time.ms (float_of_int i));
                 let s = Api.socket_stream client in
                 (match
                    Api.tcp_connect client ~self s
                      ~remote:(Kernel.ip_address server, 80)
                  with
                 | `Ok ->
                     incr connected;
                     ignore (Api.tcp_recv client s ~max:4096)
                 | `Refused -> ());
                 Api.close client s))
        done;
        ignore
          (Engine.schedule (World.engine w) ~at:(Time.ms 5.) (fun () ->
               let nic = Kernel.nic client in
               ignore
                 (Nic.transmit_row nic
                    (Parena.tcp (Nic.pool nic) ~src:(Packet.ip_of_quad 10 9 9 9)
                       ~dst:(Kernel.ip_address server) ~src_port:4000
                       ~dst_port:80 ~seq:0 ~ack_no:0
                       ~flags:(Packet.flags ~syn:true ()) ~window:8192
                       (Payload.synthetic 0)))));
        (w, client, server, connected)
      in
      let w, client, server, connected = scenario () in
      World.run w ~until:(Time.ms 15.);
      Alcotest.(check int) (name ^ ": the listener holds three children") 3
        (Lrp_det.Itab.length server.Kernel.eps - 1);
      World.run w ~until:(Time.ms 200.);
      Alcotest.(check int) (name ^ ": both clients connected") 2 !connected;
      List.iter
        (fun k ->
          Alcotest.(check (list (pair string int)))
            (Printf.sprintf "%s %s: tables of a fresh kernel" name
               (Kernel.name k))
            fresh (tables k);
          Alcotest.(check (list (pair string int)))
            (Printf.sprintf "%s %s: pools of a fresh kernel" name (Kernel.name k))
            fresh_live (conn_live k);
          Alcotest.(check int) (name ^ ": no descriptor left") 0
            (Parena.live k.Kernel.parena);
          Alcotest.(check int) (name ^ ": no mbuf left") 0
            (Mbuf.in_use (Kernel.mbufs k)))
        [ server; client ];
      (* The same world again, its server's wire tapped from 15 ms: the
         RSTs leave in ascending connection id. *)
      let w, _, server, _ = scenario () in
      World.run w ~until:(Time.ms 15.);
      let children =
        List.rev
          (Lrp_det.Det.fold_sorted_int
             (fun _ (ep : Kernel.ep) acc ->
               let c = ep.Kernel.ep_conn in
               if Lrp_proto.Tcp.state c = Lrp_proto.Tcp.Listen then acc
               else (c.Lrp_proto.Tcp.rip, c.Lrp_proto.Tcp.rport) :: acc)
             server.Kernel.eps [])
      in
      let pool = server.Kernel.parena and rsts = ref [] in
      Nic.set_deliver (Kernel.nic server) (fun row ->
          if Parena.flags pool row land Packet.rst <> 0 then
            rsts := (Parena.dst pool row, Parena.dport pool row) :: !rsts;
          Parena.release pool row);
      World.run w ~until:(Time.ms 25.);
      Alcotest.(check (list (pair int int)))
        (name ^ ": children aborted in ascending connection id") children
        (List.rev !rsts))
    archs

(* A connection id is registered once: opening the same connection a
   second time raises rather than replacing its endpoint in [eps]. *)
let test_duplicate_conn_id () =
  let _w, client, server = World.pair () in
  let conn =
    Lrp_proto.Tcp.create_active (Kernel.tcp_env_exn client)
      ~local_ip:(Kernel.ip_address client) ~local_port:4242
      ~remote:(Kernel.ip_address server, 80) ()
  in
  Kernel.open_conn client (sk client (Api.socket_stream client)) conn
    ~owner:Proc.none;
  Alcotest.check_raises "second open of one connection"
    (Invalid_argument "Kernel.register: duplicate connection id") (fun () ->
      Kernel.open_conn client (sk client (Api.socket_stream client)) conn
        ~owner:Proc.none);
  Alcotest.(check int) "one endpoint in eps" 1
    (Lrp_det.Itab.length client.Kernel.eps)

(* An active open from a chosen local port, waited on until it is
   established ([false] if it failed). *)
let connect_from k ~self ~port ~remote =
  let h = Api.socket_stream k in
  let sock = sk k h in
  let conn =
    Lrp_proto.Tcp.create_active (Kernel.tcp_env_exn k)
      ~local_ip:(Kernel.ip_address k) ~local_port:port ~remote ()
  in
  Kernel.open_conn k sock conn ~owner:self;
  let rec wait () =
    match Lrp_proto.Tcp.state conn with
    | Lrp_proto.Tcp.Established -> true
    | Lrp_proto.Tcp.Closed -> false
    | _ ->
        Proc.block sock.Socket.send_wait;
        wait ()
  in
  (h, wait ())

(* A client reconnects from the same port while the server's first
   connection on that four-tuple is still in TIME_WAIT (500 ms), and
   sends 100 bytes once that connection has expired: the old
   connection's teardown must not unbind the new one, so the server
   receives every byte and no segment misses the demux table. *)
let test_time_wait_reuse () =
  List.iter
    (fun arch ->
      let name = Kernel.arch_name arch in
      let cfg =
        { (Kernel.default_config arch) with Kernel.time_wait = Time.ms 500. }
      in
      let w, client, server = World.pair ~cfg () in
      let received = ref 0 and unmatched_before = ref (-1) in
      let unmatched () = Lrp_core.Chantab.unmatched (Kernel.chantab server) in
      ignore
        (Cpu.spawn (Kernel.cpu server) ~name:"srv" (fun self ->
             let l = Api.socket_stream server in
             Api.tcp_listen server ~self l ~port:80 ~backlog:4;
             (* The server closes first, so its side enters TIME_WAIT. *)
             Api.close server (Api.tcp_accept server ~self l);
             let s = Api.tcp_accept server ~self l in
             let rec drain () =
               match Api.tcp_recv server s ~max:4096 with
               | `Data p ->
                   received := !received + Payload.length p;
                   drain ()
               | `Eof -> ()
             in
             drain ();
             Api.close server s));
      ignore
        (Cpu.spawn (Kernel.cpu client) ~name:"cli" (fun self ->
             Proc.sleep_for (Time.ms 1.);
             let remote = (Kernel.ip_address server, 80) in
             let s, _ = connect_from client ~self ~port:4242 ~remote in
             ignore (Api.tcp_recv client s ~max:4096);
             Api.close client s;
             Proc.sleep_for (Time.ms 5.);
             unmatched_before := unmatched ();
             let s, ok = connect_from client ~self ~port:4242 ~remote in
             if ok then begin
               let now = Engine.now (World.engine w) in
               Proc.sleep_for (Float.max 0. (Time.ms 860. -. now));
               ignore (Api.tcp_send client s (Payload.synthetic 100))
             end;
             Api.close client s));
      World.run w ~until:(Time.sec 4.);
      Alcotest.(check int) (name ^ ": the server receives every byte") 100
        !received;
      Alcotest.(check int) (name ^ ": no segment misses the demux table")
        !unmatched_before (unmatched ()))
    archs

(* --- use after recycling ----------------------------------------------- *)

(* A client connects, sends 100 bytes and closes; once its connection is
   past TIME_WAIT and recycled, it connects again and the new connection
   takes the same record.  The old, closed socket must still answer as a
   closed connection does — [`Closed] to a send, [`Eof] to a receive —
   and handing it to another process must not move the new connection's
   endpoint. *)
let test_recycled_conn () =
  List.iter
    (fun arch ->
      let name = Kernel.arch_name arch in
      let cfg =
        { (Kernel.default_config arch) with Kernel.time_wait = Time.ms 50. }
      in
      let w, client, server = World.pair ~cfg () in
      ignore
        (Cpu.spawn (Kernel.cpu server) ~name:"srv" (fun self ->
             let l = Api.socket_stream server in
             Api.tcp_listen server ~self l ~port:80 ~backlog:4;
             let rec serve () =
               let s = Api.tcp_accept server ~self l in
               let rec drain () =
                 match Api.tcp_recv server s ~max:4096 with
                 | `Data _ -> drain ()
                 | `Eof -> ()
               in
               drain ();
               Api.close server s;
               serve ()
             in
             serve ()));
      let other = Cpu.spawn (Kernel.cpu client) ~name:"other" (fun _ ->
          Proc.block (Proc.waitq "other")) in
      let reused = ref false and answers = ref [] and owner_kept = ref false in
      let conn_b = ref Lrp_proto.Tcp.null_conn in
      ignore
        (Cpu.spawn (Kernel.cpu client) ~name:"cli" (fun self ->
             let remote = (Kernel.ip_address server, 80) in
             let a = Api.socket_stream client in
             assert (Api.tcp_connect client ~self a ~remote = `Ok);
             let conn_a = (sk client a).Socket.tcp in
             ignore (Api.tcp_send client a (Payload.synthetic 100));
             Api.close client a;
             Proc.sleep_for (Time.ms 100.);
             let b = Api.socket_stream client in
             assert (Api.tcp_connect client ~self b ~remote = `Ok);
             reused := (sk client b).Socket.tcp == conn_a;
             conn_b := (sk client b).Socket.tcp;
             let send = Api.tcp_send client a (Payload.synthetic 10) in
             let recv =
               match Api.tcp_recv client a ~max:4096 with
               | `Data _ -> "data"
               | `Eof -> "eof"
             in
             answers := [ (match send with `Ok -> "ok" | `Closed -> "closed"); recv ];
             Api.set_owner client a ~owner:other;
             owner_kept :=
               (match
                  Lrp_det.Itab.find_opt client.Kernel.eps
                    !conn_b.Lrp_proto.Tcp.id
                with
                | Some ep -> ep.Kernel.ep_owner == self
                | None -> false);
             Api.close client b));
      World.run w ~until:(Time.ms 300.);
      Alcotest.(check bool) (name ^ ": the new connection reuses the record")
        true !reused;
      Alcotest.(check (list string))
        (name ^ ": the old socket answers as a closed connection")
        [ "closed"; "eof" ] !answers;
      Alcotest.(check bool)
        (name ^ ": the old socket cannot hand the new connection over")
        true !owner_kept;
      Alcotest.(check int) (name ^ ": the second connection is recycled too") (-1)
        !conn_b.Lrp_proto.Tcp.id;
      Alcotest.check_raises (name ^ ": recycling it again raises")
        Lrp_proto.Tcp.stale (fun () -> Lrp_proto.Tcp.recycle !conn_b))
    archs

(* An APP thread is draining connection A's channel (a client still in
   SYN_SENT, eight SYN-ACKs queued from its unroutable peer) and is
   inside the charge for the first, when a better-priority process
   closes A's socket and opens connection B, which takes A's connection
   record, endpoint and channel from the pools.  When the APP thread
   resumes, the frame it holds is A's, and the endpoint is not the one
   it was: the frame must not reach B, which stays in SYN_SENT. *)
let test_recycled_endpoint () =
  List.iter
    (fun arch ->
      let name = Kernel.arch_name arch in
      let w, k, peer = World.pair ~cfg:(Kernel.default_config arch) () in
      let nowhere = Packet.ip_of_quad 10 9 9 9 in
      let a = Api.socket_stream k and b = Api.socket_stream k in
      let qwq = Proc.waitq "q" and result = ref "none" in
      ignore
        (Cpu.spawn (Kernel.cpu k) ~nice:20 ~name:"p" (fun self ->
             ignore (Api.tcp_connect k ~self a ~remote:(nowhere, 80))));
      ignore
        (Cpu.spawn (Kernel.cpu k) ~name:"q" (fun self ->
             Proc.block qwq;
             Api.close k a;
             result :=
               match Api.tcp_connect k ~self b ~remote:(nowhere, 80) with
               | `Ok -> "established"
               | `Refused -> "refused"));
      (* A's first SYN retransmission (1.5 s) starts P's APP thread, and
         the next scheduler tick gives it P's nice-20 priority. *)
      World.run w ~until:(Time.ms 1600.);
      let conn_a = (sk k a).Socket.tcp in
      let ep_a = Lrp_det.Itab.find_opt k.Kernel.eps conn_a.Lrp_proto.Tcp.id in
      let ch =
        match ep_a with
        | Some { Kernel.ep_chan = Some ch; _ } -> ch
        | _ -> Alcotest.fail "A has no channel"
      in
      let pool = Nic.pool (Kernel.nic peer) in
      for _ = 1 to 8 do
        ignore
          (Nic.transmit_row (Kernel.nic peer)
             (Parena.tcp pool ~src:nowhere ~dst:(Kernel.ip_address k)
                ~src_port:80 ~dst_port:(sk k a).Socket.port ~seq:0 ~ack_no:1
                ~flags:Packet.flags_syn_ack ~window:8192 (Payload.synthetic 0)))
      done;
      let eng = World.engine w in
      while Lrp_core.Channel.enqueued ch - Lrp_core.Channel.length ch < 1 do
        ignore (Engine.step eng)
      done;
      assert (Cpu.wakeup_one (Kernel.cpu k) qwq);
      World.run w ~until:(Time.ms 1700.);
      let conn_b = (sk k b).Socket.tcp in
      let ep_b = Lrp_det.Itab.find_opt k.Kernel.eps conn_b.Lrp_proto.Tcp.id in
      Alcotest.(check bool) (name ^ ": B took A's connection, endpoint and channel")
        true
        (conn_b == conn_a
         && (match ep_a, ep_b with Some x, Some y -> x == y | _ -> false)
         && match ep_b with
            | Some { Kernel.ep_chan = Some c; _ } -> c == ch
            | _ -> false);
      Alcotest.(check string) (name ^ ": A's frame did not reach B") "none" !result;
      Alcotest.(check bool) (name ^ ": B is still opening") true
        (Lrp_proto.Tcp.state conn_b = Lrp_proto.Tcp.Syn_sent))
    [ Kernel.Soft_lrp; Kernel.Ni_lrp ]

(* --- records from the process and socket pools ------------------------ *)

(* A client reads none of the 500 bytes the server sends, and exits
   with its socket open.  As 4.4BSD's [exit] closes every descriptor,
   the exit closes the socket: the server reads end of stream, the
   socket's slot goes back to the table, and its connection, with the
   unread rows it held, back to the env's pool. *)
let test_exit_closes () =
  List.iter
    (fun arch ->
      let name = Kernel.arch_name arch in
      let cfg =
        { (Kernel.default_config arch) with Kernel.time_wait = Time.ms 50. }
      in
      let w, client, server = World.pair ~cfg () in
      let eof = ref false in
      ignore
        (Cpu.spawn (Kernel.cpu server) ~name:"srv" (fun self ->
             let l = Api.socket_stream server in
             Api.tcp_listen server ~self l ~port:80 ~backlog:4;
             let s = Api.tcp_accept server ~self l in
             ignore (Api.tcp_send server s (Payload.synthetic 500));
             eof := Api.tcp_recv server s ~max:4096 = `Eof;
             Api.close server s;
             Proc.block (Proc.waitq "srv")));
      let unread = ref 0 in
      ignore
        (Cpu.spawn (Kernel.cpu client) ~name:"cli" (fun self ->
             let s = Api.socket_stream client in
             let remote = (Kernel.ip_address server, 80) in
             assert (Api.tcp_connect client ~self s ~remote = `Ok);
             Proc.sleep_for (Time.ms 10.);
             unread := (Socket.conn (sk client s)).Lrp_proto.Tcp.rcvq_bytes));
      World.run w ~until:(Time.ms 200.);
      Alcotest.(check int) (name ^ ": the client left the data unread") 500
        !unread;
      Alcotest.(check bool) (name ^ ": the server read end of stream") true !eof;
      Alcotest.(check (list (pair string int)))
        (name ^ ": the exit closed the socket and freed its connection")
        [ ("conns live", 0); ("socks live", 0) ]
        (List.filter
           (fun (n, _) -> n = "conns live" || n = "socks live")
           (census client)))
    archs

(* A child exits and the next process spawned takes its record, under a
   new pid; joining the child by its pid returns at once, where joining
   the record would wait for the new process. *)
let test_join_recycled () =
  List.iter
    (fun arch ->
      let name = Kernel.arch_name arch in
      let w, _, k = World.pair ~cfg:(Kernel.default_config arch) () in
      let cpu = Kernel.cpu k in
      let child =
        Cpu.spawn cpu ~name:"child" (fun _ -> Proc.sleep_for (Time.ms 0.5))
      in
      let pid = child.Proc.pid in
      let reused = ref false and joined_at = ref (-1.) in
      ignore
        (Cpu.spawn cpu ~name:"parent" (fun _ ->
             Proc.sleep_for (Time.ms 1.);
             let next =
               Cpu.spawn cpu ~name:"next" (fun _ -> Proc.block (Proc.waitq "next"))
             in
             reused := next == child && next.Proc.pid <> pid;
             Cpu.join child ~pid;
             joined_at := Engine.now (World.engine w)));
      World.run w ~until:(Time.ms 10.);
      Alcotest.(check bool) (name ^ ": the next process took the record") true
        !reused;
      Alcotest.(check (float 1e-9)) (name ^ ": the join returned at once")
        (Time.ms 1.) !joined_at)
    archs

(* Processes spawned on [cpu] until one takes [p]'s record (at most
   [n]); each blocks for good.  The record, or [Proc.none]. *)
let rec spawn_into cpu (p : Proc.t) n =
  if n = 0 then Proc.none
  else
    let q = Cpu.spawn cpu ~name:"next" (fun _ -> Proc.block (Proc.waitq "next")) in
    if q == p then q else spawn_into cpu p (n - 1)

(* A client sends a request, closes and exits while the server holds its
   answer for 20 ms; without APP accounting (the ablation) nothing holds
   the client's record, and a process spawned 5 ms in takes it.  The
   server's data and FIN then reach the client's closed connection,
   whose endpoint still names the record: its protocol work must not
   start an APP thread for the new process. *)
let test_owner_recycled () =
  List.iter
    (fun arch ->
      let name = Kernel.arch_name arch in
      let cfg =
        { (Kernel.default_config arch) with Kernel.fair_app_accounting = false }
      in
      let w, client, server = World.pair ~cfg () in
      ignore
        (Cpu.spawn (Kernel.cpu server) ~name:"srv" (fun self ->
             let l = Api.socket_stream server in
             Api.tcp_listen server ~self l ~port:80 ~backlog:4;
             let s = Api.tcp_accept server ~self l in
             ignore (Api.tcp_recv server s ~max:4096);
             Proc.sleep_for (Time.ms 20.);
             ignore (Api.tcp_send server s (Payload.synthetic 500));
             Api.close server s));
      let cpu = Kernel.cpu client in
      let cli =
        Cpu.spawn cpu ~name:"cli" (fun self ->
            let s = Api.socket_stream client in
            let remote = (Kernel.ip_address server, 80) in
            assert (Api.tcp_connect client ~self s ~remote = `Ok);
            ignore (Api.tcp_send client s (Payload.synthetic 100));
            Api.close client s)
      in
      let pid = cli.Proc.pid in
      let next = ref Proc.none in
      ignore
        (Cpu.spawn cpu ~name:"spawner" (fun _ ->
             Proc.sleep_for (Time.ms 5.);
             assert cli.Proc.exited;
             next := spawn_into cpu cli 4));
      World.run w ~until:(Time.ms 200.);
      let next = !next in
      Alcotest.(check bool) (name ^ ": a new process took the record") true
        (next == cli && next.Proc.pid <> pid);
      Alcotest.(check bool) (name ^ ": no APP thread works for it") false
        (Lrp_det.Itab.mem client.Kernel.apps next.Proc.pid))
    archs

(* Without APP accounting (the ablation), an exited owner's record is
   free at once.  The owner computes for 20 ms; a process that woke at
   1 ms waits behind it, and the server's data, sent at 5 ms, wakes the
   owner's APP thread behind that one.  The owner exits, and the waiting
   process runs first and spawns one that takes the owner's record.
   When the APP thread runs, it must see that its owner is gone and
   exit, its record back in the pool. *)
let test_app_owner_recycled () =
  List.iter
    (fun arch ->
      let name = Kernel.arch_name arch in
      let cfg =
        { (Kernel.default_config arch) with Kernel.fair_app_accounting = false }
      in
      let w, client, server = World.pair ~cfg () in
      ignore
        (Cpu.spawn (Kernel.cpu server) ~name:"srv" (fun self ->
             let l = Api.socket_stream server in
             Api.tcp_listen server ~self l ~port:80 ~backlog:4;
             let s = Api.tcp_accept server ~self l in
             Proc.sleep_for (Time.ms 5.);
             ignore (Api.tcp_send server s (Payload.synthetic 500));
             Proc.block (Proc.waitq "srv")));
      let cpu = Kernel.cpu client in
      let owner =
        Cpu.spawn cpu ~name:"owner" (fun self ->
            let s = Api.socket_stream client in
            let remote = (Kernel.ip_address server, 80) in
            assert (Api.tcp_connect client ~self s ~remote = `Ok);
            (Cpu.cost_cell cpu).(0) <- Time.ms 20.;
            Cpu.compute cpu)
      in
      let pid = owner.Proc.pid in
      let next = ref Proc.none in
      ignore
        (Cpu.spawn cpu ~name:"spawner" (fun _ ->
             Proc.sleep_for (Time.ms 1.);
             Cpu.join owner ~pid;
             next := spawn_into cpu owner 1));
      World.run w ~until:(Time.ms 200.);
      Alcotest.(check bool) (name ^ ": the next process took the record") true
        (!next == owner);
      Alcotest.(check bool) (name ^ ": the APP thread is gone") false
        (Lrp_det.Itab.mem client.Kernel.apps pid);
      Alcotest.(check int) (name ^ ": its record is back in the pool") 0
        (Lrp_det.Pool.live client.Kernel.app_pool))
    archs

(* A socket is closed, its connection recycled past TIME_WAIT, and the
   next socket takes its slot.  Every call on the old handle answers as
   on a closed socket, and none reaches the new one. *)
let test_stale_handle () =
  List.iter
    (fun arch ->
      let name = Kernel.arch_name arch in
      let cfg =
        { (Kernel.default_config arch) with Kernel.time_wait = Time.ms 50. }
      in
      let w, client, server = World.pair ~cfg () in
      let received = ref 0 in
      ignore
        (Cpu.spawn (Kernel.cpu server) ~name:"srv" (fun self ->
             let l = Api.socket_stream server in
             Api.tcp_listen server ~self l ~port:80 ~backlog:4;
             let rec serve () =
               let s = Api.tcp_accept server ~self l in
               let rec drain () =
                 match Api.tcp_recv server s ~max:4096 with
                 | `Data p ->
                     received := !received + Payload.length p;
                     drain ()
                 | `Eof -> ()
               in
               drain ();
               Api.close server s;
               serve ()
             in
             serve ()));
      let same_slot = ref false and answers = ref [] in
      ignore
        (Cpu.spawn (Kernel.cpu client) ~name:"cli" (fun self ->
             let remote = (Kernel.ip_address server, 80) in
             let a = Api.socket_stream client in
             let rec_a = sk client a in
             assert (Api.tcp_connect client ~self a ~remote = `Ok);
             Api.close client a;
             Proc.sleep_for (Time.ms 100.);
             let b = Api.socket_stream client in
             assert (Api.tcp_connect client ~self b ~remote = `Ok);
             same_slot := sk client b == rec_a && sk client a == Socket.stale;
             let send =
               match Api.tcp_send client a (Payload.synthetic 10) with
               | `Ok -> "ok"
               | `Closed -> "closed"
             in
             let recv =
               match Api.tcp_recv client a ~max:4096 with
               | `Data _ -> "data"
               | `Eof -> "eof"
             in
             let connect =
               match Api.tcp_connect client ~self a ~remote with
               | `Ok | `Refused -> "connected"
               | exception Api.Socket_closed -> "closed"
             in
             Api.set_owner client a ~owner:Proc.none;
             Api.close client a;
             answers := [ send; recv; connect ];
             ignore (Api.tcp_send client b (Payload.synthetic 100));
             Api.close client b));
      World.run w ~until:(Time.ms 400.);
      Alcotest.(check bool) (name ^ ": the new socket took the old slot") true
        !same_slot;
      Alcotest.(check (list string))
        (name ^ ": the old handle answers as a closed socket")
        [ "closed"; "eof"; "closed" ] !answers;
      Alcotest.(check int) (name ^ ": the new socket was left alone") 100
        !received)
    archs

(* --- the frame pool's conservation ------------------------------------ *)

(* Frames a world still holds, counted where they sit: the frame each NIC
   is serialising and its interface queue, its receive rings, frames in
   flight on each fabric (arrivals scheduled but not yet received) and in
   its fault holds and uplink outbox, each kernel's IP queue, NI channels
   and pending reassemblies, and the socket queues.  After a run has
   settled, the cell's frame pool holds exactly these. *)
let held ~fabrics ~kernels ~socks =
  let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l in
  let nic (n : Nic.t) =
    Nic.ifq_length n
    + (if n.Nic.tx_busy then 1 else 0)
    + sum (Nic.rxq_len n) (List.init (Nic.rx_queues n) Fun.id)
  in
  let fabric (f : Fabric.t) =
    let in_flight =
      Lrp_det.Det.fold_sorted_int
        (fun _ (p : Fabric.port) acc ->
          acc + p.Fabric.rx_frames - (Nic.stats p.Fabric.nic).Nic.rx_packets)
        f.Fabric.ports 0
    in
    in_flight + (Fabric.fault_stats f).Fabric.held_now
    + (Fabric.uplink_stats f).Fabric.up_backlog
  in
  let kernel (k : Kernel.t) =
    sum (fun (_, _, n) -> nic n) k.Kernel.interfaces
    + k.Kernel.ipq_len
    + sum Lrp_core.Channel.length (Kernel.channels k)
    + Lrp_proto.Ip.Reasm.pending_count k.Kernel.reasm
  in
  sum fabric fabrics + sum kernel kernels
  + sum (fun (s : Socket.t) -> Queue.length s.Socket.udp_rcv) socks

let check_conserved name ~fabrics ~kernels ~socks =
  let pool = (List.hd kernels).Kernel.parena in
  let h = held ~fabrics ~kernels ~socks in
  Alcotest.(check bool) (name ^ ": frames are still held") true (h > 0);
  Alcotest.(check int) (name ^ ": the pool holds exactly the held frames") h
    (Parena.live pool)

(* A socket bound on [k] that nobody reads: its queue (and under LRP its
   channel) fills and stays full. *)
let unread k ~port =
  let sock = Api.socket_dgram () in
  Api.bind k sock ~owner:None ~port;
  sock

(* 20k datagrams/s for 100 ms at an unread socket, settled until 200 ms. *)
let test_pool_blast () =
  List.iter
    (fun arch ->
      let w, client, server = World.pair ~cfg:(Kernel.default_config arch) () in
      let sock = unread server ~port:9000 in
      ignore
        (Blast.start_source (World.engine w) (Kernel.nic client)
           ~src:(Kernel.ip_address client)
           ~dst:(Kernel.ip_address server, 9000)
           ~rate:20_000. ~size:14 ~until:(Time.ms 100.) ());
      World.run w ~until:(Time.ms 200.);
      check_conserved (Kernel.arch_name arch) ~fabrics:[ World.fabric w ]
        ~kernels:[ client; server ] ~socks:[ sock ])
    archs

(* 20 kB datagrams (three fragments each) through the forwarding gateway
   to an unread socket; the two networks share the cell's pool.  Settled,
   nothing is in flight: the fabrics hold nothing. *)
let test_pool_fragmenting_gateway () =
  List.iter
    (fun arch ->
      let engine, client, gw, server =
        World.gateway (Kernel.default_config arch)
      in
      let sock = unread server ~port:7000 in
      ignore
        (Cpu.spawn (Kernel.cpu client) ~name:"sender" (fun self ->
             let s = Api.socket_dgram () in
             for _ = 1 to 60 do
               Api.sendto client ~self s ~dst:(Kernel.ip_address server, 7000)
                 (Payload.synthetic 20_000);
               Proc.sleep_for (Time.ms 2.)
             done));
      Engine.run engine ~until:(Time.ms 400.);
      check_conserved (Kernel.arch_name arch ^ " gateway") ~fabrics:[]
        ~kernels:[ client; gw; server ] ~socks:[ sock ])
    archs

(* A group datagram stream to two hosts with two unread members each:
   the fabric replicates each frame, and each member's copy is a row of
   its own. *)
let test_pool_multicast () =
  List.iter
    (fun arch ->
      let cfg = Kernel.default_config arch in
      let w = World.make () in
      let sender = World.add_host w ~name:"sender" cfg in
      let hosts = [ World.add_host w ~name:"a" cfg; World.add_host w ~name:"b" cfg ] in
      let group = Packet.ip_of_quad 224 0 0 9 in
      let socks =
        List.concat_map
          (fun k ->
            List.init 2 (fun _ ->
                let sock = Api.socket_dgram () in
                Api.join_group k sock ~owner:None ~group ~port:6666;
                sock))
          hosts
      in
      ignore
        (Blast.start_source (World.engine w) (Kernel.nic sender)
           ~src:(Kernel.ip_address sender) ~dst:(group, 6666) ~rate:5_000.
           ~size:14 ~until:(Time.ms 50.) ());
      World.run w ~until:(Time.ms 150.);
      check_conserved (Kernel.arch_name arch ^ " multicast")
        ~fabrics:[ World.fabric w ] ~kernels:(sender :: hosts) ~socks)
    archs

(* Link weather that duplicates and reorders frames: every copy is a row,
   and the pool still holds exactly what the world holds. *)
let test_pool_fault_dup () =
  List.iter
    (fun arch ->
      let w, client, server = World.pair ~cfg:(Kernel.default_config arch) () in
      Fabric.set_faults (World.fabric w)
        (Fabric.Faults.make ~dup:0.5 ~reorder:0.2 ~corrupt:0.05 ());
      let sock = unread server ~port:9000 in
      ignore
        (Blast.start_source (World.engine w) (Kernel.nic client)
           ~src:(Kernel.ip_address client)
           ~dst:(Kernel.ip_address server, 9000)
           ~rate:5_000. ~size:14 ~until:(Time.ms 100.) ());
      World.run w ~until:(Time.ms 200.);
      check_conserved (Kernel.arch_name arch ^ " fault-dup")
        ~fabrics:[ World.fabric w ] ~kernels:[ client; server ] ~socks:[ sock ])
    archs

let suite =
  [ Alcotest.test_case "closing a UDP socket frees what it holds" `Quick
      test_udp_close_frees;
    Alcotest.test_case "endpoint tables follow the live population" `Quick
      test_lifecycle;
    Alcotest.test_case "closing a listener aborts its unaccepted connections"
      `Quick test_listener_close_aborts;
    Alcotest.test_case "a connection id is registered once" `Quick
      test_duplicate_conn_id;
    Alcotest.test_case "a reused four-tuple survives the old TIME_WAIT"
      `Quick test_time_wait_reuse;
    Alcotest.test_case "a closed socket's recycled connection answers closed"
      `Quick test_recycled_conn;
    Alcotest.test_case "a drain that yields skips a recycled endpoint" `Quick
      test_recycled_endpoint;
    Alcotest.test_case "frame pool conserves frames: UDP blast" `Quick
      test_pool_blast;
    Alcotest.test_case "frame pool conserves frames: fragmenting gateway"
      `Quick test_pool_fragmenting_gateway;
    Alcotest.test_case "frame pool conserves frames: multicast" `Quick
      test_pool_multicast;
    Alcotest.test_case "frame pool conserves frames: duplicating links"
      `Quick test_pool_fault_dup;
    Alcotest.test_case "a process that exits closes its stream sockets" `Quick
      test_exit_closes;
    Alcotest.test_case "a join by pid returns once the record is reused" `Quick
      test_join_recycled;
    Alcotest.test_case "a recycled owner is charged nothing" `Quick
      test_owner_recycled;
    Alcotest.test_case "an APP thread exits once its owner is recycled" `Quick
      test_app_owner_recycled;
    Alcotest.test_case "a stale stream handle answers closed" `Quick
      test_stale_handle ]

