(** Packet payloads.

    Most simulated traffic only needs a length, but integrity tests (and the
    TCP stream reassembly tests) want real bytes.  A payload is therefore
    either synthetic (length + tag) or concrete bytes. *)

type t =
  | Synthetic of { len : int; tag : int }
  | Bytes of Bytes.t

let synthetic ?(tag = 0) len =
  if len < 0 then invalid_arg "Payload.synthetic: negative length";
  Synthetic { len; tag }

let of_string s = Bytes (Bytes.of_string s)

let of_bytes b = Bytes b

let length = function
  | Synthetic { len; _ } -> len
  | Bytes b -> Bytes.length b

let tag = function Synthetic { tag; _ } -> Some tag | Bytes _ -> None

let to_bytes = function
  | Synthetic { len; tag } ->
      (* Deterministic fill so encode/decode round-trips are checkable. *)
      (* alloc: cold — materialising a payload is for byte-level paths *)
      Bytes.init len (fun i -> Char.chr ((tag + i) land 0xff))
  | Bytes b -> b

(* [byte_sum t] is the sum of the payload's byte values.  Synthetic
   payloads have a closed form (the fill cycles through 0..255), so the
   hot path never materialises them; a single flipped byte always changes
   the sum, which is what checksum-based corruption detection needs. *)
let bytes_sum b = Bytes.fold_left (fun acc c -> acc + Char.code c) 0 b

let synthetic_sum ~len ~tag =
  let b0 = ((tag mod 256) + 256) mod 256 in
  let cycles = len / 256 and rem = len mod 256 in
  let rem_sum =
    let first = Int.min rem (256 - b0) in
    (* [first] values b0..b0+first-1, then [rem-first] values 0.. *)
    let s1 = first * b0 + (first * (first - 1) / 2) in
    let m = rem - first in
    s1 + (m * (m - 1) / 2)
  in
  (cycles * 32640) + rem_sum

let byte_sum = function
  | Bytes b -> bytes_sum b
  | Synthetic { len; tag } -> synthetic_sum ~len ~tag

(* [sub t off len] is the slice used by IP fragmentation. *)
let sub t off len =
  match t with
  | Synthetic { tag; len = total } ->
      if off < 0 || len < 0 || off + len > total then
        invalid_arg "Payload.sub: out of range";
      Synthetic { len; tag = tag + off }
  | Bytes b -> Bytes (Bytes.sub b off len)

let equal a b =
  match (a, b) with
  | Synthetic x, Synthetic y -> x.len = y.len && x.tag = y.tag
  | Bytes x, Bytes y -> Bytes.equal x y
  | Synthetic _, Bytes _ | Bytes _, Synthetic _ ->
      Bytes.equal (to_bytes a) (to_bytes b)

let glues ~len ~tag next_tag = next_tag = tag + len

let concat parts =
  match parts with
  | [ p ] -> p
  | _ ->
      (* Fragments of a synthetic payload with consecutive tags glue back
         into a synthetic payload; anything else goes through bytes. *)
      let rec synth_glue = function
        | Synthetic { len; tag } :: (Synthetic { tag = tag'; _ } :: _ as rest)
          when glues ~len ~tag tag' ->
            (match synth_glue rest with
             | Some total -> Some (len + total)
             | None -> None)
        | [ Synthetic { len; _ } ] -> Some len
        | [] -> Some 0
        | _ -> None
      in
      (match (parts, synth_glue parts) with
       | Synthetic { tag; _ } :: _, Some total -> Synthetic { len = total; tag }
       | _, _ -> Bytes (Bytes.concat Bytes.empty (List.map to_bytes parts)))

