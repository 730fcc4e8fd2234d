(** IP fragmentation and reassembly. *)

open Lrp_net

(* [fragment pool row ~mtu] splits the datagram in [row], whose wire size
   exceeds [mtu], into fragment rows, each a copy of the datagram's row
   marked with the slice it carries, and releases [row].  Offsets are
   chosen so every on-the-wire fragment offset is a multiple of 8, as
   IPv4 requires.  Returns [[row]] unchanged when it fits. *)
let fragment pool row ~mtu =
  if Parena.wire_bytes pool row <= mtu then [ row ]
  else if Parena.is_fragment pool row then
    invalid_arg "Ip.fragment: already a fragment"
  else begin
    let th =
      match Parena.proto pool row with
      | Parena.Tcp -> Packet.tcp_header_bytes
      | Parena.Udp -> Packet.udp_header_bytes
      | Parena.Icmp -> Packet.icmp_header_bytes
    in
    let total = Parena.payload_len pool row in
    (* Capacity of a fragment's IP payload, 8-byte aligned. *)
    let cap = (mtu - Packet.ip_header_bytes) / 8 * 8 in
    if cap <= th then invalid_arg "Ip.fragment: mtu too small";
    let piece ~foff ~flen =
      let f = Parena.copy pool row ~into:pool in
      Parena.set_fragment pool f ~foff ~flen ~last:(foff + flen >= total);
      f
    in
    (* First fragment carries the transport header. *)
    let first_len = Int.min total (cap - th) in
    let rec rest off acc =
      if off >= total then List.rev acc
      else
        let len = Int.min cap (total - off) in
        rest (off + len) (piece ~foff:off ~flen:len :: acc)
    in
    let first = piece ~foff:0 ~flen:first_len in
    let frags = first :: rest first_len [] in
    Parena.release pool row;
    frags
  end

(* --- reassembly ------------------------------------------------------- *)

module Reasm = struct
  (* A pending datagram is one {!Parena} row: the first fragment's row,
     into which every later fragment's row is folded, so the row's charge
     is the sum of its pieces' charges.  A fragment's row already holds
     its whole datagram, so completion only clears its fragment mark. *)
  type pending = {
    row : Parena.handle;
    mutable have : (int * int) list;  (* received (off, len) ranges *)
    mutable total : int option;       (* payload length, once the last fragment is seen *)
    first_seen : float;               (* for timeout pruning *)
  }

  type t = {
    pool : Parena.t;
    table : pending Lrp_det.Itab.t;  (* by [key] *)
    timeout : float;
    mutable completed : int;
  }

  let create ?(timeout = 30_000_000. (* 30 s, BSD default *)) pool =
    { pool; table = Lrp_det.Itab.create 32; timeout; completed = 0 }

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
    let pool = t.pool in
    if not (Parena.is_fragment pool h) then h
    else begin
      (* (src, ident) packed into one int: the 16-bit ident below a 32-bit
         address, so ascending keys are ascending (src, ident) pairs. *)
      let key = (Parena.src pool h lsl 16) lor Parena.ident pool h in
      let foff = Parena.foff pool h and flen = Parena.flen pool h
      and last = Parena.last pool h in
      let slot = Lrp_det.Itab.find t.table key in
      let p =
        if slot >= 0 then begin
          let p = Lrp_det.Itab.value t.table slot in
          Parena.absorb pool ~into:p.row h;
          p
        end
        else begin
          let p = { row = h; have = []; total = None; first_seen = now } in
          Lrp_det.Itab.replace t.table key p;
          p
        end
      in
      p.have <- (foff, flen) :: p.have;
      if last then p.total <- Some (foff + flen);
      match p.total with
      | Some total when ranges_cover p.have total ->
          Lrp_det.Itab.remove t.table key;
          t.completed <- t.completed + 1;
          Parena.set_whole pool p.row;
          p.row
      | Some _ | None -> Parena.none
    end

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
