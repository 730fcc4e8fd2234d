(* Open-addressing flow table over packed integer keys.

   The demultiplexer's lookup structure.  Polymorphic [Hashtbl] with a
   tuple key — what this replaces — allocates the tuple at every probe,
   hashes it by structural traversal, and chases a bucket list whose
   nodes were allocated all over the heap.  Here a flow key is packed
   into two immediate ints ([hi]/[lo], see {!Chantab} for the packing)
   and the table is four parallel arrays indexed by slot: a probe is an
   integer mix, a masked index, and a linear scan through adjacent
   cache lines, allocating nothing.

   Collision policy is robin-hood linear probing: an inserted entry
   displaces a resident that sits closer to its home slot, so probe
   distances stay tightly clustered around the mean even at high load —
   the worst-case probe at a million flows stays short, where plain
   linear probing grows long tenured runs.  Deletion is backward-shift
   (not tombstones): the following cluster slides back one slot, so the
   table's layout — and therefore [iter]'s slot order — is a pure
   function of the live key set's insertion history, never of how many
   deletions happened in between.

   [meta.(i)] holds the entry's probe distance + 1, with 0 marking an
   empty slot; the robin-hood invariant lets both [find] and [remove]
   stop as soon as the resident's distance drops below the probe's.

   Iteration is in slot order — deterministic for a deterministic
   insert/remove sequence, which is what the replay-equivalence harness
   needs (stdlib [Hashtbl] iteration order depends on the structural
   hash of boxed keys and is banned by lint rule D2). *)

type 'a t = {
  mutable hi : int array;
  mutable lo : int array;
  mutable meta : int array; (* probe distance + 1; 0 = empty slot *)
  mutable vals : 'a array;
  mutable mask : int; (* capacity - 1; capacity is a power of two *)
  mutable count : int;
  mutable limit : int; (* grow when [count] reaches this (7/8 load) *)
  dummy : 'a; (* fills empty value slots so nothing is pinned *)
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

let initial_bits = 4

let create ~dummy () =
  let cap = 1 lsl initial_bits in
  { hi = Array.make cap 0;
    lo = Array.make cap 0;
    meta = Array.make cap 0;
    vals = Array.make cap dummy;
    mask = cap - 1;
    count = 0;
    limit = cap - (cap lsr 3);
    dummy }

let length t = t.count

(* Core robin-hood insertion into the current arrays.  [replace] decides
   what an existing equal key means: [true] overwrites its value (public
   [add]); [false] raises — rehashing must never see a duplicate.
   Once the carried entry has displaced a resident, the keys still being
   carried are by construction distinct from everything ahead, so the
   equality check only runs while the original key is carried. *)
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
      if not replace then invalid_arg "Flowtab.add: duplicate key"; (* alloc: cold — error path *)
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

let[@inline] add_gen t ~hi ~lo ~replace v =
  if t.count >= t.limit then grow t;
  insert t ~hi ~lo ~replace v

let add t ~hi ~lo v = add_gen t ~hi ~lo ~replace:true v

let add_new t ~hi ~lo v = add_gen t ~hi ~lo ~replace:false v

(* Allocation-free probe: the slot index (or -1) instead of ['a option].
   The robin-hood invariant bounds the scan: a resident with a probe
   distance shorter than ours proves our key was never inserted past it. *)
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

let[@inline] value t slot = t.vals.(slot)

let find_opt t ~hi ~lo =
  let slot = find t ~hi ~lo in
  if slot < 0 then None else Some t.vals.(slot)

(* Backward-shift deletion: slide the following cluster back one slot
   (each mover's distance drops by one) until an empty slot or a
   distance-1 resident — someone already at home — ends the cluster. *)
let remove t ~hi ~lo =
  let slot = find t ~hi ~lo in
  if slot < 0 then false
  else begin
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
    t.count <- t.count - 1;
    true
  end

let iter f t =
  for i = 0 to t.mask do
    if t.meta.(i) > 0 then f ~hi:t.hi.(i) ~lo:t.lo.(i) t.vals.(i)
  done

(* Largest probe distance currently in the table — exposed so tests can
   assert the robin-hood clustering bound actually holds at scale. *)
let max_probe t =
  let m = ref 0 in
  for i = 0 to t.mask do
    if t.meta.(i) > !m then m := t.meta.(i)
  done;
  !m

