(* A free list of released records: a stack grown by doubling, [blank]
   in its empty slots.  [made] counts the records made for it, so
   [made - n] of them are live. *)

type 'a t = {
  mutable items : 'a array;
  mutable n : int;
  mutable made : int;
  blank : 'a;
}

let create blank = { items = [||]; n = 0; made = 0; blank }

let take p =
  if p.n = 0 then p.blank
  else begin
    let i = p.n - 1 in
    let x = p.items.(i) in
    p.items.(i) <- p.blank;
    p.n <- i;
    x
  end

let give p x =
  if p.n = Array.length p.items then begin
    (* alloc: cold — amortized growth *)
    let items = Array.make (Int.max 8 (2 * p.n)) p.blank in
    Array.blit p.items 0 items 0 p.n;
    p.items <- items
  end;
  p.items.(p.n) <- x;
  p.n <- p.n + 1

let count_made p = p.made <- p.made + 1
let live p = p.made - p.n
let spare p = p.n
