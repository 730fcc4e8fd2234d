(** Demux table: maps a packet's flow to its endpoint.

    One table for every receive architecture.  Each demux point reads it
    with its own probe policy: the LRP kernels classify a packet onto an
    endpoint's NI channel ({!resolve_slot}, run by the NI or the interrupt
    handler), the eager kernels look up the PCB after IP processing
    ({!find_udp}, {!find_tcp}).  The rules are the PCB rules:

    - UDP: the socket (or group) bound to the destination port;
    - TCP: the connection's own entry (made when the connection — even an
      embryonic one — comes into existence), falling back to the listening
      socket;
    - non-first IP fragments and ICMP: no endpoint; the LRP probe names
      the dedicated fragment and proxy-daemon channels (sections 3.2 and
      3.5), which the kernel owns. *)

open Lrp_net

(* All endpoints live in ONE packed-key {!Flowtab}.  A flow key packs
   into two ints:

     hi = (namespace lsl 32) lor source-ip
     lo = (source-port lsl 16) lor destination-port

   The namespace tag keeps UDP ports, TCP four-tuples and listen ports
   disjoint inside the shared array; fields a rule does not match on are
   zero (UDP and listen entries carry no source).  IPs are 32-bit and
   ports 16-bit, so both words are immediate ints and a probe is a single
   integer-keyed lookup — no tuple allocation, no structural hashing. *)
let ns_udp = 0
let ns_tcp = 1
let ns_listen = 2

let[@inline] hi_of ~ns ~src = (ns lsl 32) lor src
let[@inline] lo_of ~src_port ~dst_port = (src_port lsl 16) lor dst_port

type space = Udp_port | Tcp_flow | Listen_port

type 'a t = {
  tab : 'a Flowtab.t;
  dummy : 'a;
  has_chan : 'a -> bool;
  mutable unmatched : int;
}

let create ~dummy ~has_chan () =
  { tab = Flowtab.create ~dummy (); dummy; has_chan; unmatched = 0 }

(* The slot of a port entry, or -1. *)
let[@inline] port_slot t ~ns ~port =
  Flowtab.find t.tab ~hi:(hi_of ~ns ~src:0) ~lo:(lo_of ~src_port:0 ~dst_port:port)

let[@inline] flow_slot t ~src ~src_port ~dst_port =
  Flowtab.find t.tab ~hi:(hi_of ~ns:ns_tcp ~src) ~lo:(lo_of ~src_port ~dst_port)

let[@inline] value_or_dummy t slot =
  if slot >= 0 then Flowtab.value t.tab slot else t.dummy

let add_port t ~ns ~port v =
  Flowtab.add_new t.tab ~hi:(hi_of ~ns ~src:0)
    ~lo:(lo_of ~src_port:0 ~dst_port:port) v

let remove_port t ~ns ~port =
  ignore
    (Flowtab.remove t.tab ~hi:(hi_of ~ns ~src:0)
       ~lo:(lo_of ~src_port:0 ~dst_port:port))

let add_udp t ~port v = add_port t ~ns:ns_udp ~port v
let remove_udp t ~port = remove_port t ~ns:ns_udp ~port
let add_listen t ~port v = add_port t ~ns:ns_listen ~port v
let remove_listen t ~port = remove_port t ~ns:ns_listen ~port

let add_tcp t ~src ~src_port ~dst_port v =
  Flowtab.add t.tab ~hi:(hi_of ~ns:ns_tcp ~src) ~lo:(lo_of ~src_port ~dst_port) v

(* A newer connection on the same four-tuple may have taken the entry
   over; then it is not this endpoint's to remove. *)
let remove_tcp t ~src ~src_port ~dst_port v =
  let slot = flow_slot t ~src ~src_port ~dst_port in
  if slot >= 0 && Flowtab.value t.tab slot == v then
    ignore
      (Flowtab.remove t.tab ~hi:(hi_of ~ns:ns_tcp ~src)
         ~lo:(lo_of ~src_port ~dst_port))

(* --- the eager probes: the PCB lookup after IP processing ------------ *)

let find_udp t ~port = value_or_dummy t (port_slot t ~ns:ns_udp ~port)
let find_listen t ~port = value_or_dummy t (port_slot t ~ns:ns_listen ~port)

(* The exact four-tuple, else the port's listener, for any segment. *)
let find_tcp t ~src ~src_port ~dst_port =
  let slot = flow_slot t ~src ~src_port ~dst_port in
  value_or_dummy t
    (if slot >= 0 then slot else port_slot t ~ns:ns_listen ~port:dst_port)

(* --- the LRP probe: classification onto a channel -------------------- *)

(* Slot codes: the alloc-free twin of an option.  Non-negative values are
   {!Flowtab} slots (valid until the next table mutation); the dedicated
   channels get their own negative codes. *)
let slot_none = -1
let slot_frag = -2
let slot_icmp = -3

(* The TCP probe order: an exact four-tuple that still has a channel
   (NI-LRP frees a connection's channel on entry to TIME_WAIT), then — for
   connection-establishment requests only — the listening socket. *)
let[@inline] resolve_tcp_slot t ~src ~src_port ~dst_port ~syn_only =
  let slot = flow_slot t ~src ~src_port ~dst_port in
  if slot >= 0 && t.has_chan (Flowtab.value t.tab slot) then slot
  else if syn_only then port_slot t ~ns:ns_listen ~port:dst_port
  else slot_none

(* Row-direct resolution: classify and probe in one pass, reading the
   frame's columns in the pool, without materialising a flow value — or
   anything else: the result is a slot code, so the NI demux probe is
   allocation-free end to end.  A first fragment carries the transport
   header and demultiplexes as its whole datagram; a later one goes to
   the fragment channel.  The demux reference-model property test
   compares it with a structural classifier and a PCB-rule resolver kept
   in the test suite. *)
let resolve_slot t pool row =
  let slot =
    if Parena.foff pool row <> 0 then slot_frag
    else
      match Parena.proto pool row with
      | Parena.Udp -> port_slot t ~ns:ns_udp ~port:(Parena.dport pool row)
      | Parena.Tcp ->
          let fl = Parena.flags pool row in
          resolve_tcp_slot t ~src:(Parena.src pool row)
            ~src_port:(Parena.sport pool row) ~dst_port:(Parena.dport pool row)
            ~syn_only:(fl land (Packet.syn lor Packet.ack) = Packet.syn)
      | Parena.Icmp -> slot_icmp
  in
  if slot = slot_none then t.unmatched <- t.unmatched + 1;
  slot

let value t slot = Flowtab.value t.tab slot

let unmatched t = t.unmatched

(* A namespace's entries in key order: port order for UDP and listen
   entries, (source, ports) order for four-tuples. *)
let bindings t space =
  let ns =
    match space with
    | Udp_port -> ns_udp
    | Tcp_flow -> ns_tcp
    | Listen_port -> ns_listen
  in
  let acc = ref [] in
  Flowtab.iter
    (fun ~hi ~lo v -> if hi lsr 32 = ns then acc := (hi, lo, v) :: !acc)
    t.tab;
  List.map
    (fun (_, _, v) -> v)
    (List.sort
       (fun (h1, l1, _) (h2, l2, _) ->
         let c = Int.compare h1 h2 in
         if c <> 0 then c else Int.compare l1 l2)
       !acc)
