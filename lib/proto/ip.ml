(** IP fragmentation and reassembly. *)

open Lrp_net

(* [fragment pkt ~mtu] splits a datagram whose wire size exceeds [mtu] into
   fragments.  Offsets are chosen so every on-the-wire fragment offset is a
   multiple of 8, as IPv4 requires.  Returns [pkt] unchanged when it fits. *)
let fragment (pkt : Packet.t) ~mtu =
  if Packet.wire_bytes pkt <= mtu then [ pkt ]
  else
    match pkt.Packet.body with
    | Packet.Fragment _ -> invalid_arg "Ip.fragment: already a fragment"
    | Packet.Udp _ | Packet.Tcp _ | Packet.Icmp _ ->
        let th = Packet.transport_header_bytes pkt in
        let total = Packet.payload_length pkt in
        (* Capacity of a fragment's IP payload, 8-byte aligned. *)
        let cap = (mtu - Packet.ip_header_bytes) / 8 * 8 in
        if cap <= th then invalid_arg "Ip.fragment: mtu too small";
        (* First fragment carries the transport header. *)
        let first_len = Int.min total (cap - th) in
        let rec rest off acc =
          if off >= total then List.rev acc
          else
            let len = Int.min cap (total - off) in
            let last = off + len >= total in
            let frag =
              { Packet.ip = pkt.Packet.ip;
                body = Packet.Fragment { whole = pkt; foff = off; flen = len; last } }
            in
            rest (off + len) (frag :: acc)
        in
        let first =
          { Packet.ip = pkt.Packet.ip;
            body =
              Packet.Fragment
                { whole = pkt; foff = 0; flen = first_len;
                  last = first_len >= total } }
        in
        first :: rest first_len []

(* --- reassembly ------------------------------------------------------- *)

module Reasm = struct
  (* A pending datagram is one {!Parena} row: the first fragment's row,
     into which every later fragment's row is folded, so the row's charge
     is the sum of its pieces' charges.  [whole] is the first fragment's
     datagram, which the row holds on completion. *)
  type pending = {
    row : Parena.handle;
    whole : Packet.t;
    mutable have : (int * int) list;  (* received (off, len) ranges *)
    mutable total : int option;       (* payload length, once the last fragment is seen *)
    first_seen : float;               (* for timeout pruning *)
  }

  type t = {
    arena : Parena.t;
    table : pending Lrp_det.Itab.t;  (* by [key] *)
    timeout : float;
    mutable completed : int;
  }

  (* (src, ident) packed into one int: the 16-bit ident below a 32-bit
     address, so ascending keys are ascending (src, ident) pairs. *)
  let[@inline] key (ip : Packet.ip_header) =
    (ip.Packet.src lsl 16) lor ip.Packet.ident

  let create ?(timeout = 30_000_000. (* 30 s, BSD default *)) arena =
    { arena; table = Lrp_det.Itab.create 32; timeout; completed = 0 }

  (* Sorted by offset (how equal offsets order cannot change the answer). *)
  let ranges_cover have total =
    let sorted = List.sort (fun (a, _) (b, _) -> Int.compare a b) have in
    let rec go expect = function
      | [] -> expect >= total
      | (off, len) :: rest ->
          if off > expect then false else go (Int.max expect (off + len)) rest
    in
    go 0 sorted

  (* [insert t ~now h] records the fragment held in row [h].  Returns the
     datagram's row, now holding the whole datagram, when it is complete
     (and forgets it); [Parena.none] otherwise. *)
  let insert t ~now h =
    let pkt = Parena.pkt t.arena h in
    match pkt.Packet.body with
    | Packet.Udp _ | Packet.Tcp _ | Packet.Icmp _ -> h
    | Packet.Fragment f ->
        let key = key pkt.Packet.ip in
        let slot = Lrp_det.Itab.find t.table key in
        let p =
          if slot >= 0 then begin
            let p = Lrp_det.Itab.value t.table slot in
            Parena.absorb t.arena ~into:p.row h;
            p
          end
          else begin
            let p =
              { row = h; whole = f.Packet.whole; have = []; total = None;
                first_seen = now }
            in
            Lrp_det.Itab.replace t.table key p;
            p
          end
        in
        p.have <- (f.Packet.foff, f.Packet.flen) :: p.have;
        if f.Packet.last then p.total <- Some (f.Packet.foff + f.Packet.flen);
        (match p.total with
         | Some total when ranges_cover p.have total ->
             Lrp_det.Itab.remove t.table key;
             t.completed <- t.completed + 1;
             Parena.set_pkt t.arena p.row p.whole;
             p.row
         | Some _ | None -> Parena.none)

  (* Drop incomplete datagrams older than the timeout, handing each one's
     row to [release], in descending (src, ident) order. *)
  let prune t ~now ~release =
    let stale =
      Lrp_det.Det.fold_sorted_int
        (fun key p acc ->
          if now -. p.first_seen > t.timeout then (key, p.row) :: acc else acc)
        t.table []
    in
    List.iter
      (fun (key, row) ->
        Lrp_det.Itab.remove t.table key;
        release row)
      stale;
    List.length stale

  let pending_count t = Lrp_det.Itab.length t.table
  let completed t = t.completed
end
