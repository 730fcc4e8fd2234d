(* CMP fixtures: generic compare and hash on a hot path, and the
   specialised forms that stay clean. *)

module H : sig type t val zero : t end = struct type t = int let zero = 0 end

let tbl : (int, int) Hashtbl.t = Hashtbl.create 8

module T = Hashtbl

let stdlib_min a b = min a b

let stdlib_compare (a : int) b = compare a b

let abstract_eq (a : H.t) = a = H.zero

let poly_eq a b = a = b

let boxed_lt (a : int * int) b = a < b

let probe k = Hashtbl.mem tbl k

let probe_alias k = T.mem tbl k

let probe_open k = Hashtbl.(mem tbl k)

let probe_let_module k = let module M = Hashtbl in M.mem tbl k

let clean (a : int) b (o : int option) (x : float) y (p : bool) q =
  a = b && o = None && x < y && p = q && Int.min a b = 0

(* Behind an [assume] boundary allocation is the function's own contract,
   but a generic compare is still a finding, there and in what only it
   calls. *)
let assumed_callee (a : int * int) b = max a b

let assumed a b = ignore (Array.make 4 0); assumed_callee (a, b) (b, a)

let calls_assumed a b = assumed a b
