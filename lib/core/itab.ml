(* Open-addressing table over int keys.

   Keys live in one int column, values in a parallel column, collisions
   are resolved by linear probing and deletion shifts the rest of the
   cluster back (no tombstones).  The table is at most half full, so a
   probe always meets an empty slot.  A probe is a multiply, a shift and
   a short scan of int compares the compiler emits inline: no closure
   call for hash or equality, no [caml_hash], no bucket chasing.

   Values are stored through [Obj.repr] in an [Obj.t] column, filled
   with an immediate where a slot is empty, so a removed binding does not
   pin its last value and no dummy value is needed per table.  Storing
   [Obj.repr v] and reading it back with [Obj.obj] at the table's one
   type parameter is the identity. *)

type 'a t = {
  mutable keys : int array;  (* [empty] marks a free slot *)
  mutable vals : Obj.t array;
  mutable size : int;
  mutable shift : int;  (* [Sys.int_size - log2 capacity] *)
}

let empty = min_int
let no_val = Obj.repr 0

(* Fibonacci hashing: the top bits of the key times an odd constant. *)
let[@inline] home t k = (k * 0x1E3779B97F4A7C15) lsr t.shift

let log2 n =
  let rec go b = if 1 lsl b >= n then b else go (b + 1) in
  go 0

let create n =
  let bits = log2 (Int.max 8 n) in
  { keys = Array.make (1 lsl bits) empty; vals = Array.make (1 lsl bits) no_val;
    size = 0; shift = Sys.int_size - bits }

let length t = t.size

(* The slot holding [k], or -1. *)
let find t k =
  let keys = t.keys in
  let mask = Array.length keys - 1 in
  let i = ref (home t k) in
  let res = ref (-2) in
  while !res = -2 do
    let k' = Array.unsafe_get keys !i in
    if k' = k then res := !i
    else if k' = empty then res := -1
    else i := (!i + 1) land mask
  done;
  !res

let[@inline] value (t : 'a t) slot : 'a = Obj.obj t.vals.(slot)

let mem t k = find t k >= 0

let find_opt t k =
  let slot = find t k in
  if slot < 0 then None else Some (value t slot)

(* Insert into a table known to have room and not to hold [k]. *)
let insert t k v =
  let keys = t.keys in
  let mask = Array.length keys - 1 in
  let i = ref (home t k) in
  while Array.unsafe_get keys !i <> empty do
    i := (!i + 1) land mask
  done;
  keys.(!i) <- k;
  t.vals.(!i) <- v;
  t.size <- t.size + 1

let grow t =
  let keys = t.keys and vals = t.vals in
  let cap = 2 * Array.length keys in
  t.keys <- Array.make cap empty; (* alloc: cold — amortized growth *)
  t.vals <- Array.make cap no_val; (* alloc: cold — amortized growth *)
  t.shift <- t.shift - 1;
  t.size <- 0;
  (* alloc: cold — amortized growth *)
  Array.iteri (fun i k -> if k <> empty then insert t k vals.(i)) keys

let replace t k (v : 'a) =
  (* alloc: cold — error path *)
  if k = empty then invalid_arg "Itab.replace: reserved key";
  let slot = find t k in
  if slot >= 0 then t.vals.(slot) <- Obj.repr v
  else begin
    if 2 * (t.size + 1) > Array.length t.keys then grow t;
    insert t k (Obj.repr v)
  end

(* Backward-shift deletion: walk the cluster after the hole and move
   back every entry whose home does not lie strictly between the hole
   and its slot, so every remaining key stays reachable from its home. *)
let remove t k =
  let slot = find t k in
  if slot >= 0 then begin
    let keys = t.keys and vals = t.vals in
    let mask = Array.length keys - 1 in
    let hole = ref slot in
    let j = ref ((slot + 1) land mask) in
    while keys.(!j) <> empty do
      let h = home t keys.(!j) in
      (* distance from home to [j] versus from the hole to [j] *)
      if (!j - h) land mask >= (!j - !hole) land mask then begin
        keys.(!hole) <- keys.(!j);
        vals.(!hole) <- vals.(!j);
        hole := !j
      end;
      j := (!j + 1) land mask
    done;
    keys.(!hole) <- empty;
    vals.(!hole) <- no_val;
    t.size <- t.size - 1
  end

(* Slot order: a function of the table's insert/remove history.  Outside
   [Lrp_det] only the sorted helpers of {!Det} may iterate (rule D2). *)
let fold f t init =
  let acc = ref init in
  Array.iteri
    (fun i k -> if k <> empty then acc := f k (value t i) !acc)
    t.keys;
  !acc
