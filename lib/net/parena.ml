(* The frame pool: one per engine cell, holding every frame from its
   sender's row writer to its one release.

   A frame is a row of [w] ints in one flat array — its header fields,
   its fragment slice and its mbuf charge — so copying it in, reading it
   and handing it from queue to queue touch one cache-line pair and store
   no pointer.  Only a byte payload writes the pointer column [pbytes].
   A fragment's row holds its whole datagram's fields and payload plus
   the slice it carries: reassembly clears the fragment mark and the
   pending row is the datagram.  This is the model of a descriptor pool
   in NI or channel buffer memory (section 3.1), passed from queue to
   queue by handle.

   Handles pack (generation, slot) like {!Lrp_engine.Engine}'s event
   handles: the generation is bumped when a row is released, so a stale
   handle held after release can never reach the slot's next occupant —
   double-release and use-after-release raise instead of corrupting
   another frame.  Slots are recycled through a free stack; the arrays
   only ever grow, so the steady state allocates nothing per frame. *)

let slot_bits = 20
let slot_mask = (1 lsl slot_bits) - 1

type handle = int

let none = -1

(* Row layout: field offsets within a row of [w] ints.  The row's own
   current handle is a field too, so validating a handle is one compare
   on the cache line the field read that follows needs anyway. *)
let w = 16
let f_meta = 0     (* protocol, ICMP kind, fragment bits, TCP flags *)
let f_src = 1
let f_dst = 2
let f_ident = 3
let f_handle = 4   (* the row's handle: its generation bumps at release *)
let f_csum = 5
let f_sport = 6
let f_dport = 7
let f_seq = 8
let f_ack = 9
let f_window = 10
let f_plen = 11    (* the whole datagram's payload length *)
let f_ptag = 12    (* synthetic payload tag *)
let f_foff = 13
let f_flen = 14
let f_charge = 15  (* mbufs the frame holds *)

(* [f_meta] bits: protocol in bits 0-1, ICMP kind in 2-3, then the
   fragment marks and the byte-payload mark; TCP flags from bit 8. *)
let m_proto = 3
let m_frag = 16
let m_last = 32
let m_bytes = 64
let flags_shift = 8

type proto = Udp | Tcp | Icmp

type t = {
  mutable rows : int array;
  mutable mask : int;  (* slots - 1: the slot count is a power of two *)
  mutable pbytes : Bytes.t array;  (* byte payloads only *)
  mutable free : int array;  (* stack of free slots; the others are live *)
  mutable free_top : int;
  mutable last_synth : Payload.t;
      (* the synthetic payload {!payload} built last: immutable, so a row
         with the same length and tag shares it *)
}

let grow t =
  let cap = Array.length t.free in
  let cap' = Int.max 16 (2 * cap) in
  if cap' > slot_mask then failwith "Parena: too many live frames"; (* alloc: cold — error path *)
  let rows = Array.make (cap' * w) 0 in (* alloc: cold — amortized growth *)
  let pbytes = Array.make cap' Bytes.empty in (* alloc: cold — amortized growth *)
  let free = Array.make cap' 0 in (* alloc: cold — amortized growth *)
  Array.blit t.rows 0 rows 0 (cap * w);
  Array.blit t.pbytes 0 pbytes 0 cap;
  for slot = cap to cap' - 1 do
    rows.((slot * w) + f_handle) <- slot
  done;
  t.rows <- rows;
  t.mask <- cap' - 1;
  t.pbytes <- pbytes;
  t.free <- free;
  t.free_top <- 0;
  for slot = cap' - 1 downto cap do
    t.free.(t.free_top) <- slot;
    t.free_top <- t.free_top + 1
  done

(* Made with its first 16 rows, so a handle's masked slot always indexes
   a row. *)
let create () =
  let t =
    { rows = [||]; mask = 0; pbytes = [||]; free = [||]; free_top = 0;
      last_synth = Payload.synthetic 0 }
  in
  grow t;
  t

(* A fresh row's slot; the caller fills every field. *)
let[@inline] acquire t =
  if t.free_top = 0 then grow t;
  t.free_top <- t.free_top - 1;
  Array.unsafe_get t.free t.free_top

let[@inline] handle_of t slot = Array.unsafe_get t.rows ((slot * w) + f_handle)

(* Raised directly rather than through a function call, which would make
   every value live across a field read spill around it. *)
let stale = Invalid_argument "Parena: stale or invalid handle"

(* The row's base index in [rows]; raises on a stale handle.  Masked to
   the slot count, any int indexes a row, and only a row's own current
   handle matches it: a released row's handle ({!none} too) does not. *)
let[@inline] base t h =
  let b = (h land t.mask) * w in
  if Array.unsafe_get t.rows (b + f_handle) <> h then raise stale;
  b

let[@inline] get t h f = Array.unsafe_get t.rows (base t h + f)
let[@inline] set t h f v = Array.unsafe_set t.rows (base t h + f) v
let[@inline] meta t h = get t h f_meta

let release t h =
  let b = base t h in
  let slot = h land slot_mask in
  Array.unsafe_set t.rows (b + f_handle) (h + (1 lsl slot_bits));
  if Array.unsafe_get t.rows (b + f_meta) land m_bytes <> 0 then
    t.pbytes.(slot) <- Bytes.empty (* do not pin the released payload *);
  Array.unsafe_set t.free t.free_top slot;
  t.free_top <- t.free_top + 1

let live t = Array.length t.free - t.free_top

(* --- copy-in ---------------------------------------------------------- *)

(* The payload's columns: a synthetic payload is two ints, a byte payload
   the pointer column.  Returns the [f_meta] mark. *)
let[@inline] put_payload t slot b (p : Payload.t) =
  match p with
  | Payload.Synthetic { len; tag } ->
      Array.unsafe_set t.rows (b + f_plen) len;
      Array.unsafe_set t.rows (b + f_ptag) tag;
      0
  | Payload.Bytes by ->
      Array.unsafe_set t.rows (b + f_plen) (Bytes.length by);
      Array.unsafe_set t.rows (b + f_ptag) 0;
      t.pbytes.(slot) <- by;
      m_bytes

(* A fresh row holding a frame's IP, port and payload columns and its
   [f_meta] word (bar the payload mark); a TCP row's own columns are the
   caller's.  Returns the slot. *)
let[@inline] fill t ~meta ~src ~dst ~ident ~csum ~sport ~dport payload =
  let slot = acquire t in
  let b = slot * w in
  let r = t.rows in
  Array.unsafe_set r (b + f_src) src;
  Array.unsafe_set r (b + f_dst) dst;
  Array.unsafe_set r (b + f_ident) ident;
  Array.unsafe_set r (b + f_csum) csum;
  Array.unsafe_set r (b + f_sport) sport;
  Array.unsafe_set r (b + f_dport) dport;
  Array.unsafe_set r (b + f_foff) 0;
  Array.unsafe_set r (b + f_flen) 0;
  Array.unsafe_set r (b + f_charge) 0;
  Array.unsafe_set r (b + f_meta) (meta lor put_payload t slot b payload);
  slot

let copy_in t (p : Packet.t) =
  handle_of t
    (fill t ~meta:0 ~src:p.src ~dst:p.dst ~ident:p.ident
       ~csum:p.csum ~sport:p.sport ~dport:p.dport p.payload)

(* --- row writers -------------------------------------------------------- *)

(* A sender's frame, written straight into a fresh row: the content
   checksum first, then the cell's next ident, as every sender has always
   drawn them. *)

let udp t ~src ~dst ~src_port ~dst_port payload =
  let csum =
    Packet.udp_sum ~src ~dst ~sport:src_port ~dport:dst_port
      ~len:(Payload.length payload) ~bsum:(Payload.byte_sum payload)
  in
  let ident = Packet.next_ident () in
  handle_of t
    (fill t ~meta:0 ~src ~dst ~ident ~csum ~sport:src_port ~dport:dst_port
       payload)

let tcp t ~src ~dst ~src_port ~dst_port ~seq ~ack_no ~flags ~window payload =
  let csum =
    Packet.tcp_sum ~src ~dst ~sport:src_port ~dport:dst_port ~seq ~ack_no
      ~flags ~window ~len:(Payload.length payload)
      ~bsum:(Payload.byte_sum payload)
  in
  let ident = Packet.next_ident () in
  let slot =
    fill t
      ~meta:(1 lor (flags lsl flags_shift)) ~src ~dst ~ident ~csum ~sport:src_port ~dport:dst_port payload
  in
  let b = slot * w and r = t.rows in
  Array.unsafe_set r (b + f_seq) seq;
  Array.unsafe_set r (b + f_ack) ack_no;
  Array.unsafe_set r (b + f_window) window;
  handle_of t slot

let icmp t ~src ~dst kind payload =
  let kind = Packet.icmp_kind_index kind in
  let csum =
    Packet.icmp_sum ~src ~dst ~kind ~len:(Payload.length payload)
      ~bsum:(Payload.byte_sum payload)
  in
  let ident = Packet.next_ident () in
  handle_of t
    (fill t ~meta:(2 lor (kind lsl 2)) ~src ~dst ~ident ~csum ~sport:0
       ~dport:0 payload)

let copy t h ~into =
  let b = base t h in
  let slot = acquire into in
  let b' = slot * w in
  let own = into.rows.(b' + f_handle) in
  Array.blit t.rows b into.rows b' w;
  into.rows.(b' + f_handle) <- own;
  into.rows.(b' + f_charge) <- 0;
  if t.rows.(b + f_meta) land m_bytes <> 0 then
    into.pbytes.(slot) <- t.pbytes.(h land slot_mask);
  handle_of into slot

(* --- fields ----------------------------------------------------------- *)

let proto t h =
  match meta t h land m_proto with 0 -> Udp | 1 -> Tcp | _ -> Icmp

let src t h = get t h f_src
let dst t h = get t h f_dst
let ident t h = get t h f_ident
let sport t h = get t h f_sport
let dport t h = get t h f_dport
let seq t h = get t h f_seq
let ack_no t h = get t h f_ack
let flags t h = (meta t h lsr flags_shift) land 0xff
let window t h = get t h f_window
let payload_len t h = get t h f_plen
let is_fragment t h = meta t h land m_frag <> 0
let foff t h = get t h f_foff
let flen t h = get t h f_flen
let last t h = meta t h land m_last <> 0

let csum t h = get t h f_csum
let icmp_kind t h = Packet.icmp_kind_of_index ((meta t h lsr 2) land 3)

(* ICMP kind 0 is an echo request. *)
let is_echo_request t h = meta t h land (m_proto lor 12) = 2

let payload t h =
  let b = base t h in
  if t.rows.(b + f_meta) land m_bytes <> 0 then
    (* alloc: cold — byte payloads are the integrity tests' *)
    Payload.Bytes t.pbytes.(h land slot_mask)
  else
    let len = t.rows.(b + f_plen) and tag = t.rows.(b + f_ptag) in
    match t.last_synth with
    | Payload.Synthetic s when s.len = len && s.tag = tag -> t.last_synth
    | Payload.Synthetic _ | Payload.Bytes _ ->
        (* A flow's datagrams repeat the cached payload. *)
        (* alloc: cold — a size or tag other than the last one read *)
        let p = Payload.Synthetic { len; tag } in
        t.last_synth <- p;
        p

let[@inline] transport_header_bytes m =
  if m land m_proto = 1 then Packet.tcp_header_bytes else Packet.udp_header_bytes

let wire_bytes t h =
  let b = base t h in
  let m = Array.unsafe_get t.rows (b + f_meta) in
  if m land m_frag = 0 then
    Packet.ip_header_bytes + transport_header_bytes m
    + Array.unsafe_get t.rows (b + f_plen)
  else
    Packet.ip_header_bytes
    + (if Array.unsafe_get t.rows (b + f_foff) = 0 then transport_header_bytes m
       else 0)
    + Array.unsafe_get t.rows (b + f_flen)

(* The content checksum over the row's columns: the packet's own sum
   (a fragment's is its whole datagram's, checked after reassembly). *)
let content_sum t h =
  let b = base t h in
  let r = t.rows in
  let m = r.(b + f_meta) and len = r.(b + f_plen) in
  let bsum =
    if m land m_bytes <> 0 then Payload.bytes_sum t.pbytes.(h land slot_mask)
    else Payload.synthetic_sum ~len ~tag:r.(b + f_ptag)
  in
  let src = r.(b + f_src) and dst = r.(b + f_dst) in
  let sum =
    match m land m_proto with
    | 0 ->
        Packet.udp_sum ~src ~dst ~sport:r.(b + f_sport) ~dport:r.(b + f_dport)
          ~len ~bsum
    | 1 ->
        Packet.tcp_sum ~src ~dst ~sport:r.(b + f_sport) ~dport:r.(b + f_dport)
          ~seq:r.(b + f_seq) ~ack_no:r.(b + f_ack)
          ~flags:((m lsr flags_shift) land 0xff)
          ~window:r.(b + f_window) ~len ~bsum
    | _ -> Packet.icmp_sum ~src ~dst ~kind:((m lsr 2) land 3) ~len ~bsum
  in
  sum

let verify t h = content_sum t h = csum t h

(* --- receive offload ---------------------------------------------------- *)

(* Merge a TCP train, [train.(0)] to [train.(n-1)], into its head's row:
   the payloads glued in order, the last segment's acknowledgment, window
   and PSH bit, and a resealed checksum, so the merged segment still
   verifies.  Slices of one synthetic payload glue by {!Payload.glues},
   the rule {!Payload.concat} glues by, checked in one pass; anything
   else is concatenated once, as bytes.  The other rows stay the caller's. *)
let tcp_merge t train n =
  let into = Array.unsafe_get train 0 in
  let bi = base t into in
  let r = t.rows in
  let tag = r.(bi + f_ptag) in
  let len = ref r.(bi + f_plen) in
  let glued = ref (r.(bi + f_meta) land m_bytes = 0) in
  let i = ref 1 in
  while !glued && !i < n do
    let bh = base t train.(!i) in
    if r.(bh + f_meta) land m_bytes = 0
       && Payload.glues ~len:!len ~tag r.(bh + f_ptag)
    then len := !len + r.(bh + f_plen)
    else glued := false;
    incr i
  done;
  let mi = r.(bi + f_meta) land lnot m_bytes in
  let mi =
    if !glued then begin
      r.(bi + f_plen) <- !len;
      mi
    end
    else begin
      let parts =
        (* alloc: cold — byte payloads and unglued slices: integrity tests *)
        List.init n (fun i -> Payload.to_bytes (payload t train.(i)))
      in
      let by = Bytes.concat Bytes.empty parts in
      r.(bi + f_plen) <- Bytes.length by;
      r.(bi + f_ptag) <- 0;
      t.pbytes.(into land slot_mask) <- by;
      mi lor m_bytes
    end
  in
  let bl = base t train.(n - 1) in
  let psh = Packet.psh lsl flags_shift in
  r.(bi + f_meta) <- mi land lnot psh lor (r.(bl + f_meta) land psh);
  r.(bi + f_ack) <- r.(bl + f_ack);
  r.(bi + f_window) <- r.(bl + f_window);
  r.(bi + f_csum) <- content_sum t into

(* --- fragments ---------------------------------------------------------- *)

let set_fragment t h ~foff ~flen ~last =
  let b = base t h in
  let m = t.rows.(b + f_meta) land lnot m_last in
  t.rows.(b + f_meta) <- m lor m_frag lor (if last then m_last else 0);
  t.rows.(b + f_foff) <- foff;
  t.rows.(b + f_flen) <- flen

let set_whole t h =
  let b = base t h in
  t.rows.(b + f_meta) <- t.rows.(b + f_meta) land lnot (m_frag lor m_last);
  t.rows.(b + f_foff) <- 0;
  t.rows.(b + f_flen) <- 0

(* --- mbuf charge -------------------------------------------------------- *)

let charge t h = get t h f_charge
let set_charge t h c = set t h f_charge c

(* Fold row [h] into row [into]: its charge moves over, the row goes. *)
let absorb t ~into h =
  let c = charge t h in
  set t into f_charge (get t into f_charge + c);
  release t h

(* --- fault injection: payload corruption ------------------------------ *)

(* Flip the byte at [off] of the row's (whole) payload in a copy: a byte
   payload may be shared with the sender's retransmit queue or another
   row.  The carried checksum is kept, which is exactly what the
   receiver-side verify-and-drop path must detect. *)
let flip_byte t h ~off ~xor =
  let b = Bytes.copy (Payload.to_bytes (payload t h)) in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor xor));
  let i = base t h + f_meta in
  t.rows.(i) <- t.rows.(i) lor m_bytes;
  t.pbytes.(h land slot_mask) <- b;
  true

let corrupt t h ~at ~xor =
  let at = abs at in
  let xor =
    let x = xor land 0xff in
    if x = 0 then 0x55 else x
  in
  let len = payload_len t h in
  if is_fragment t h then
    (* A byte inside this fragment's slice of the whole datagram's
       payload, so reassembly reconstitutes a corrupted whole. *)
    let fl = flen t h in
    fl > 0
    &&
    let off = foff t h + (at mod fl) in
    off < len && flip_byte t h ~off ~xor
  else if len > 0 then flip_byte t h ~off:(at mod len) ~xor
  else
    match proto t h with
    | Tcp ->
        (* Pure ACK/SYN/FIN: corrupt the acknowledgment number instead. *)
        set t h f_ack (ack_no t h lxor xor);
        true
    | Udp | Icmp -> false
