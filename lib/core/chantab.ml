(** Channel table: maps a packet's flow to the NI channel that should
    receive it.

    Resolution rules (mirroring the PCB rules, executed by the NI / the
    interrupt handler):

    - UDP: the channel of the socket bound to the destination port;
    - TCP: the connection's own channel (created when the connection —
      even an embryonic one — comes into existence), falling back to the
      listening socket's channel for connection-establishment requests;
    - non-first IP fragments: a dedicated fragment channel that the IP
      reassembly code checks when it is missing pieces (section 3.2);
    - ICMP and other non-endpoint protocols: the proxy daemon's channel
      (section 3.5). *)

open Lrp_net

(* All endpoint mappings live in ONE packed-key {!Flowtab} instead of
   three polymorphic Hashtbls.  A flow key packs into two ints:

     hi = (namespace lsl 32) lor source-ip
     lo = (source-port lsl 16) lor destination-port

   The namespace tag keeps the three historic tables (UDP-by-port, TCP
   exact, TCP listen) disjoint inside the shared array; fields a rule
   does not match on are zero (UDP and listen entries carry no source).
   IPs are 32-bit and ports 16-bit, so both words are immediate ints and
   a demux probe is a single integer-keyed lookup — no tuple allocation,
   no structural hashing of a boxed [Packet.ip * int * int]. *)
let ns_udp = 0
let ns_tcp = 1
let ns_listen = 2

let[@inline] hi_of ~ns ~src = (ns lsl 32) lor src
let[@inline] lo_of ~src_port ~dst_port = (src_port lsl 16) lor dst_port

type t = {
  tab : Channel.t Flowtab.t;
  frag : Channel.t;
  icmp : Channel.t;
  fwd : Channel.t; (* IP-forwarding daemon's channel (section 3.5) *)
  mutable udp_count : int;
  mutable tcp_count : int;
  mutable unmatched : int;
}

let create ?arena ?(frag_limit = 64) ?(icmp_limit = 32) ?(fwd_limit = 64) () =
  let frag = Channel.create ?arena ~limit:frag_limit () in
  let icmp = Channel.create ?arena ~limit:icmp_limit () in
  let fwd = Channel.create ?arena ~limit:fwd_limit () in
  { tab = Flowtab.create ~dummy:fwd ();
    frag; icmp; fwd;
    udp_count = 0; tcp_count = 0; unmatched = 0 }

let frag_channel t = t.frag
let icmp_channel t = t.icmp
let fwd_channel t = t.fwd

let add_udp t ~port ch =
  let hi = hi_of ~ns:ns_udp ~src:0 and lo = lo_of ~src_port:0 ~dst_port:port in
  if Flowtab.mem t.tab ~hi ~lo then invalid_arg "Chantab.add_udp: port in use";
  Flowtab.add_new t.tab ~hi ~lo ch;
  t.udp_count <- t.udp_count + 1

let remove_udp t ~port =
  if
    Flowtab.remove t.tab ~hi:(hi_of ~ns:ns_udp ~src:0)
      ~lo:(lo_of ~src_port:0 ~dst_port:port)
  then t.udp_count <- t.udp_count - 1

let add_tcp t ~src ~src_port ~dst_port ch =
  let hi = hi_of ~ns:ns_tcp ~src and lo = lo_of ~src_port ~dst_port in
  if not (Flowtab.mem t.tab ~hi ~lo) then t.tcp_count <- t.tcp_count + 1;
  Flowtab.add t.tab ~hi ~lo ch

let remove_tcp t ~src ~src_port ~dst_port =
  if
    Flowtab.remove t.tab ~hi:(hi_of ~ns:ns_tcp ~src)
      ~lo:(lo_of ~src_port ~dst_port)
  then t.tcp_count <- t.tcp_count - 1

let add_tcp_listen t ~port ch =
  let hi = hi_of ~ns:ns_listen ~src:0
  and lo = lo_of ~src_port:0 ~dst_port:port in
  if Flowtab.mem t.tab ~hi ~lo then
    invalid_arg "Chantab.add_tcp_listen: port in use";
  Flowtab.add_new t.tab ~hi ~lo ch

let remove_tcp_listen t ~port =
  ignore
    (Flowtab.remove t.tab ~hi:(hi_of ~ns:ns_listen ~src:0)
       ~lo:(lo_of ~src_port:0 ~dst_port:port))

(* Slot codes: the alloc-free twin of [Channel.t option].  Non-negative
   values are {!Flowtab} slots (valid until the next table mutation);
   the dedicated channels, which live outside the Flowtab, get their own
   negative codes so a probe can name them without boxing. *)
let slot_none = -1
let slot_frag = -2
let slot_icmp = -3

(* The TCP probe order: exact four-tuple first, then — for
   connection-establishment requests only — the listening socket. *)
let[@inline] resolve_tcp_slot t ~src ~src_port ~dst_port ~syn_only =
  let slot =
    Flowtab.find t.tab ~hi:(hi_of ~ns:ns_tcp ~src)
      ~lo:(lo_of ~src_port ~dst_port)
  in
  if slot >= 0 || not syn_only then slot
  else
    Flowtab.find t.tab ~hi:(hi_of ~ns:ns_listen ~src:0)
      ~lo:(lo_of ~src_port:0 ~dst_port)

let[@inline] resolve_udp_slot t ~dst_port =
  Flowtab.find t.tab ~hi:(hi_of ~ns:ns_udp ~src:0)
    ~lo:(lo_of ~src_port:0 ~dst_port)

(* Packet-direct resolution: classify and probe in one pass, without
   materialising a flow value — or anything else: the result is a slot
   code, so the NI demux probe is allocation-free end to end.  The demux
   reference-model property test compares it with a structural
   classifier and a PCB-rule resolver kept in the test suite. *)
let resolve_slot t (pkt : Packet.t) =
  let slot =
    match pkt.Packet.body with
    | Packet.Udp (u, _) -> resolve_udp_slot t ~dst_port:u.Packet.udst_port
    | Packet.Tcp (h, _) ->
        resolve_tcp_slot t ~src:pkt.Packet.ip.Packet.src
          ~src_port:h.Packet.tsrc_port ~dst_port:h.Packet.tdst_port
          ~syn_only:
            (h.Packet.flags.Packet.syn && not h.Packet.flags.Packet.ack)
    | Packet.Icmp _ -> slot_icmp
    | Packet.Fragment f ->
        if f.Packet.foff <> 0 then slot_frag
        else begin
          (* First fragment: the transport header is present, demultiplex
             as the whole datagram would. *)
          match f.Packet.whole.Packet.body with
          | Packet.Udp (u, _) ->
              resolve_udp_slot t ~dst_port:u.Packet.udst_port
          | Packet.Tcp (h, _) ->
              resolve_tcp_slot t ~src:pkt.Packet.ip.Packet.src
                ~src_port:h.Packet.tsrc_port ~dst_port:h.Packet.tdst_port
                ~syn_only:
                  (h.Packet.flags.Packet.syn && not h.Packet.flags.Packet.ack)
          | Packet.Icmp _ -> slot_icmp
          | Packet.Fragment _ ->
              (* degenerate nesting: classified as a fragment flow *)
              slot_frag
        end
  in
  if slot = slot_none then t.unmatched <- t.unmatched + 1;
  slot

let channel_of_slot t slot =
  if slot >= 0 then Flowtab.value t.tab slot
  else if slot = slot_frag then t.frag
  else if slot = slot_icmp then t.icmp
  else
    (* alloc: cold — error path *)
    invalid_arg "Chantab.channel_of_slot: no channel for slot_none"

let resolve_packet t pkt =
  let slot = resolve_slot t pkt in
  if slot = slot_none then None else Some (channel_of_slot t slot)

let unmatched t = t.unmatched

let udp_channel_count t = t.udp_count
let tcp_channel_count t = t.tcp_count
