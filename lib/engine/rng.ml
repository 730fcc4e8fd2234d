type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

(* SplitMix64 output function (Steele, Lea & Flood 2014). *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t = { state = bits64 t }

let split_seed ~seed ~index =
  if index < 0 then invalid_arg "Rng.split_seed: index must be nonnegative";
  (* Two mixing rounds keep child streams independent even for adjacent
     indices (plain [seed + index] would give overlapping SplitMix64
     sequences, since the generator itself steps by adding a constant). *)
  let z =
    mix
      (Int64.add
         (mix (Int64.of_int seed))
         (Int64.mul (Int64.of_int (index + 1)) golden_gamma))
  in
  Int64.to_int (Int64.logand z 0x3FFF_FFFF_FFFF_FFFFL)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Mask to 62 bits so the conversion to OCaml's 63-bit int is
     non-negative. *)
  let r = Int64.to_int (Int64.logand (bits64 t) 0x3FFF_FFFF_FFFF_FFFFL) in
  r mod bound

let uniform t =
  (* 53 random bits scaled into [0, 1). *)
  let r = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  r *. 0x1p-53

let float t bound = uniform t *. bound

let exponential t ~mean = -.mean *. log1p (-.uniform t)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
