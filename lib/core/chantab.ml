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

(* All endpoints live in ONE open-addressing table over packed integer
   keys.  A flow key packs into two ints:

     hi = (namespace lsl 32) lor source-ip
     lo = (source-port lsl 16) lor destination-port

   The namespace tag keeps UDP ports, TCP four-tuples and listen ports
   disjoint inside the shared array; fields a rule does not match on are
   zero (UDP and listen entries carry no source).  IPs are 32-bit and
   ports 16-bit, so both words are immediate ints and a probe is an
   integer mix, a masked index and a linear scan through adjacent cache
   lines — no tuple allocation, no structural hashing, no bucket list.

   Collision policy is robin-hood linear probing: an inserted entry
   displaces a resident that sits closer to its home slot, so probe
   distances stay tightly clustered around the mean even at high load —
   the worst-case probe at a million flows stays short, where plain
   linear probing grows long tenured runs.  Deletion is backward-shift
   (not tombstones): the following cluster slides back one slot.  The
   layout, and so every slot code, is a pure function of the insert and
   remove sequence.

   [meta.(i)] holds the entry's probe distance + 1, with 0 marking an
   empty slot; the robin-hood invariant lets both [find] and [remove]
   stop as soon as the resident's distance drops below the probe's. *)
let ns_udp = 0
let ns_tcp = 1
let ns_listen = 2

let[@inline] hi_of ~ns ~src = (ns lsl 32) lor src
let[@inline] lo_of ~src_port ~dst_port = (src_port lsl 16) lor dst_port

type space = Udp_port | Tcp_flow | Listen_port

type 'a t = {
  mutable hi : int array;
  mutable lo : int array;
  mutable meta : int array; (* probe distance + 1; 0 = empty slot *)
  mutable vals : 'a array;
  mutable mask : int; (* capacity - 1; capacity is a power of two *)
  mutable count : int;
  mutable limit : int; (* grow when [count] reaches this (7/8 load) *)
  dummy : 'a; (* the eager probes' miss; fills empty value slots *)
  has_chan : 'a -> bool;
  mutable unmatched : int;
}

(* 64-bit integer mix (xor-shift-multiply finalizer).  Both words of the
   key feed the state before each multiply, so flows differing only in
   the low port bits or only in the address word still spread across the
   table.  Constants fit in OCaml's 63-bit immediate ints. *)
let[@inline] mix ~hi ~lo =
  let h = hi lxor (lo * 0x100000001b3) in
  let h = (h lxor (h lsr 29)) * 0x21ae7c7e6534cc25 in
  let h = h lxor (h lsr 32) in
  h land max_int

let create ~dummy ~has_chan () =
  let cap = 16 in
  { hi = Array.make cap 0; lo = Array.make cap 0; meta = Array.make cap 0;
    vals = Array.make cap dummy; mask = cap - 1; count = 0;
    limit = cap - (cap lsr 3); dummy; has_chan; unmatched = 0 }

(* Core robin-hood insertion into the current arrays.  [replace] decides
   what an existing equal key means: [true] overwrites its value;
   [false] raises — a port is bound at most once, and rehashing never
   sees a duplicate.  Once the carried entry has displaced a resident,
   the keys still being carried are by construction distinct from
   everything ahead, so the equality check only runs while the original
   key is carried. *)
let rec insert t ~hi ~lo ~replace v =
  let mask = t.mask in
  let i = ref (mix ~hi ~lo land mask) in
  let d = ref 1 in
  let chi = ref hi and clo = ref lo and cv = ref v in
  let original = ref true in
  let placed = ref false in
  while not !placed do
    let m = Array.unsafe_get t.meta !i in
    if m = 0 then begin
      Array.unsafe_set t.hi !i !chi;
      Array.unsafe_set t.lo !i !clo;
      Array.unsafe_set t.meta !i !d;
      t.vals.(!i) <- !cv;
      t.count <- t.count + 1;
      placed := true
    end
    else if
      !original
      && Array.unsafe_get t.hi !i = !chi
      && Array.unsafe_get t.lo !i = !clo
    then begin
      if not replace then invalid_arg "Chantab: duplicate key"; (* alloc: cold — error path *)
      t.vals.(!i) <- !cv;
      placed := true
    end
    else begin
      if m < !d then begin
        (* resident is closer to home: displace it, carry it onward *)
        let rhi = Array.unsafe_get t.hi !i
        and rlo = Array.unsafe_get t.lo !i
        and rv = t.vals.(!i) in
        Array.unsafe_set t.hi !i !chi;
        Array.unsafe_set t.lo !i !clo;
        Array.unsafe_set t.meta !i !d;
        t.vals.(!i) <- !cv;
        chi := rhi;
        clo := rlo;
        cv := rv;
        d := m;
        original := false
      end;
      i := (!i + 1) land mask;
      incr d
    end
  done

and grow t =
  let ohi = t.hi and olo = t.lo and ometa = t.meta and ovals = t.vals in
  let ocap = t.mask + 1 in
  let cap = 2 * ocap in
  t.hi <- Array.make cap 0; (* alloc: cold — amortized growth *)
  t.lo <- Array.make cap 0; (* alloc: cold — amortized growth *)
  t.meta <- Array.make cap 0; (* alloc: cold — amortized growth *)
  t.vals <- Array.make cap t.dummy; (* alloc: cold — amortized growth *)
  t.mask <- cap - 1;
  t.limit <- cap - (cap lsr 3);
  t.count <- 0;
  for i = 0 to ocap - 1 do
    if ometa.(i) > 0 then
      insert t ~hi:ohi.(i) ~lo:olo.(i) ~replace:false ovals.(i)
  done

let add t ~hi ~lo ~replace v =
  if t.count >= t.limit then grow t;
  insert t ~hi ~lo ~replace v

(* The slot of a key, or -1.  The robin-hood invariant bounds the scan:
   a resident with a probe distance shorter than ours proves our key was
   never inserted past it. *)
let[@inline] find t ~hi ~lo =
  let mask = t.mask in
  let i = ref (mix ~hi ~lo land mask) in
  let d = ref 1 in
  let res = ref (-1) in
  let scanning = ref true in
  while !scanning do
    let m = Array.unsafe_get t.meta !i in
    if m < !d then scanning := false (* empty, or closer-to-home resident *)
    else if Array.unsafe_get t.hi !i = hi && Array.unsafe_get t.lo !i = lo
    then begin
      res := !i;
      scanning := false
    end
    else begin
      i := (!i + 1) land mask;
      incr d
    end
  done;
  !res

(* Backward-shift deletion of the entry in [slot]: slide the following
   cluster back one slot (each mover's distance drops by one) until an
   empty slot or a distance-1 resident — someone already at home — ends
   the cluster. *)
let remove_slot t slot =
  let mask = t.mask in
  let i = ref slot in
  let shifting = ref true in
  while !shifting do
    let j = (!i + 1) land mask in
    let m = Array.unsafe_get t.meta j in
    if m <= 1 then begin
      Array.unsafe_set t.meta !i 0;
      t.vals.(!i) <- t.dummy;
      shifting := false
    end
    else begin
      Array.unsafe_set t.hi !i (Array.unsafe_get t.hi j);
      Array.unsafe_set t.lo !i (Array.unsafe_get t.lo j);
      Array.unsafe_set t.meta !i (m - 1);
      t.vals.(!i) <- t.vals.(j);
      i := j
    end
  done;
  t.count <- t.count - 1

(* The slot of a port entry, or -1. *)
let[@inline] port_slot t ~ns ~port =
  find t ~hi:(hi_of ~ns ~src:0) ~lo:(lo_of ~src_port:0 ~dst_port:port)

let[@inline] flow_slot t ~src ~src_port ~dst_port =
  find t ~hi:(hi_of ~ns:ns_tcp ~src) ~lo:(lo_of ~src_port ~dst_port)

let[@inline] value t slot = t.vals.(slot)

let[@inline] value_or_dummy t slot = if slot >= 0 then t.vals.(slot) else t.dummy

let add_port t ~ns ~port v =
  add t ~hi:(hi_of ~ns ~src:0) ~lo:(lo_of ~src_port:0 ~dst_port:port)
    ~replace:false v

let remove_port t ~ns ~port =
  let slot = port_slot t ~ns ~port in
  if slot >= 0 then remove_slot t slot

let add_udp t ~port v = add_port t ~ns:ns_udp ~port v
let remove_udp t ~port = remove_port t ~ns:ns_udp ~port
let add_listen t ~port v = add_port t ~ns:ns_listen ~port v
let remove_listen t ~port = remove_port t ~ns:ns_listen ~port

let add_tcp t ~src ~src_port ~dst_port v =
  add t ~hi:(hi_of ~ns:ns_tcp ~src) ~lo:(lo_of ~src_port ~dst_port)
    ~replace:true v

(* A newer connection on the same four-tuple may have taken the entry
   over; then it is not this endpoint's to remove. *)
let remove_tcp t ~src ~src_port ~dst_port v =
  let slot = flow_slot t ~src ~src_port ~dst_port in
  if slot >= 0 && t.vals.(slot) == v then remove_slot t slot

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
   table slots (valid until the next table mutation); the dedicated
   channels get their own negative codes. *)
let slot_none = -1
let slot_frag = -2
let slot_icmp = -3

(* The TCP probe order: an exact four-tuple that still has a channel
   (NI-LRP frees a connection's channel on entry to TIME_WAIT), then — for
   connection-establishment requests only — the listening socket. *)
let[@inline] resolve_tcp_slot t ~src ~src_port ~dst_port ~syn_only =
  let slot = flow_slot t ~src ~src_port ~dst_port in
  if slot >= 0 && t.has_chan t.vals.(slot) then slot
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
  for i = 0 to t.mask do
    if t.meta.(i) > 0 && t.hi.(i) lsr 32 = ns then
      acc := (t.hi.(i), t.lo.(i), t.vals.(i)) :: !acc
  done;
  List.map
    (fun (_, _, v) -> v)
    (List.sort
       (fun (h1, l1, _) (h2, l2, _) ->
         let c = Int.compare h1 h2 in
         if c <> 0 then c else Int.compare l1 l2)
       !acc)

(* Largest probe distance in the table (1 = at home; 0 = empty). *)
let max_probe t =
  let m = ref 0 in
  for i = 0 to t.mask do
    if t.meta.(i) > !m then m := t.meta.(i)
  done;
  !m
