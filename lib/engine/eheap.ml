(* Array-backed binary min-heap ordered by (key, seq): each entry carries
   a caller-assigned sequence number so that equal keys compare FIFO.

   Entries are stored in three parallel arrays (keys / seqs / values)
   instead of an array of entry records: no per-insertion allocation, and
   the float keys live in a flat unboxed array.  Sift-up and sift-down move
   a hole through the tree and write the moved entry exactly once,
   instead of swapping triples at every level. *)

type t = {
  mutable keys : float array;
  mutable seqs : int array;
  mutable vals : int array;
  mutable size : int;
}

let initial_capacity = 16

let create () = { keys = [||]; seqs = [||]; vals = [||]; size = 0 }

let length t = t.size

(* Ensure room for one more entry. *)
let reserve t =
  let cap = Array.length t.seqs in
  if t.size = cap then begin
    let cap' = Int.max initial_capacity (2 * cap) in
    let keys = Array.make cap' 0. in (* alloc: cold — amortized growth *)
    let seqs = Array.make cap' 0 in (* alloc: cold — amortized growth *)
    let vals = Array.make cap' 0 in (* alloc: cold — amortized growth *)
    Array.blit t.keys 0 keys 0 t.size;
    Array.blit t.seqs 0 seqs 0 t.size;
    Array.blit t.vals 0 vals 0 t.size;
    t.keys <- keys;
    t.seqs <- seqs;
    t.vals <- vals
  end

(* Move the entry at index [i] up towards [top] until its parent is
   smaller, pulling each larger parent down into the hole.  Unsafe
   accesses here and in [sift_down]: every index is below [size], or is
   the slot an insert just reserved or a pop just vacated, so it is
   always below the arrays' common length. *)
let[@inline] sift_up t ~top i =
  let keys = t.keys and seqs = t.seqs and vals = t.vals in
  let key = Array.unsafe_get keys i
  and seq = Array.unsafe_get seqs i
  and v = Array.unsafe_get vals i in
  let i = ref i in
  let stop = ref false in
  while (not !stop) && !i > top do
    let p = (!i - 1) / 2 in
    let pk = Array.unsafe_get keys p in
    if key < pk || (key = pk && seq < Array.unsafe_get seqs p) then begin
      Array.unsafe_set keys !i pk;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs p);
      Array.unsafe_set vals !i (Array.unsafe_get vals p);
      i := p
    end
    else stop := true
  done;
  Array.unsafe_set keys !i key;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set vals !i v

(* The key is read out of [cell.(0)]: a float array load stays unboxed,
   where a float argument would be boxed at every call. *)
let add_cell t ~cell ~seq value =
  if t.size = Array.length t.seqs then reserve t;
  let i = t.size in
  t.size <- i + 1;
  t.keys.(i) <- cell.(0);
  t.seqs.(i) <- seq;
  t.vals.(i) <- value;
  sift_up t ~top:0 i

let[@inline] min_into t ~cell ~default =
  if t.size = 0 then default
  else begin
    cell.(0) <- t.keys.(0);
    t.vals.(0)
  end

(* Place the entry stored at index [src] into the subtree rooted at
   [hole].  [src] may be the hole itself (re-heapify) or the slot just
   past the end (removing the root).  Bottom-up: the hole first walks
   down to a leaf along the smaller child, one comparison per level, and
   the entry then climbs back up from there — rarely far, because a
   displaced last entry is usually a late timer.  A top-down sift pays
   two comparisons per level on the same path. *)
let sift_down t ~hole ~src =
  let n = t.size and keys = t.keys and seqs = t.seqs and vals = t.vals in
  let key = Array.unsafe_get keys src
  and seq = Array.unsafe_get seqs src
  and v = Array.unsafe_get vals src in
  let i = ref hole in
  while (2 * !i) + 1 < n do
    let l = (2 * !i) + 1 in
    let r = l + 1 in
    let c =
      if r < n then begin
        let kr = Array.unsafe_get keys r and kl = Array.unsafe_get keys l in
        if kr < kl || (kr = kl && Array.unsafe_get seqs r < Array.unsafe_get seqs l)
        then r
        else l
      end
      else l
    in
    Array.unsafe_set keys !i (Array.unsafe_get keys c);
    Array.unsafe_set seqs !i (Array.unsafe_get seqs c);
    Array.unsafe_set vals !i (Array.unsafe_get vals c);
    i := c
  done;
  Array.unsafe_set keys !i key;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set vals !i v;
  sift_up t ~top:hole !i

let[@inline] top t ~default = if t.size = 0 then default else t.vals.(0)

let[@inline] top_after t ~cell = t.size = 0 || t.keys.(0) > cell.(0)

let[@inline] drop_top t =
  t.size <- t.size - 1;
  if t.size > 0 then sift_down t ~hole:0 ~src:t.size

(* The bound is read out of [cell.(1)] rather than passed as a float
   argument: the event loop pops once per event, and a float argument to
   a non-inlined call is boxed at every call site.  One root access fuses
   the min-compare and the pop. *)
let[@inline] pop_leq_into t ~cell ~default =
  if t.size = 0 || t.keys.(0) > cell.(1) then default
  else begin
    cell.(0) <- t.keys.(0);
    let top_val = t.vals.(0) in
    drop_top t;
    top_val
  end

(* Drop every entry [dead] accepts in one left-to-right pass, packing the
   survivors to the front, then rebuild the heap bottom-up (Floyd): O(n)
   in total, where popping the dropped entries one by one would pay a
   sift each. *)
let compact t dead =
  let n = t.size in
  let j = ref 0 in
  for i = 0 to n - 1 do
    let v = t.vals.(i) in
    if not (dead v) then begin
      t.keys.(!j) <- t.keys.(i);
      t.seqs.(!j) <- t.seqs.(i);
      t.vals.(!j) <- v;
      incr j
    end
  done;
  t.size <- !j;
  for i = (!j / 2) - 1 downto 0 do
    sift_down t ~hole:i ~src:i
  done
