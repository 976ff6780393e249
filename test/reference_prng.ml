(* Reference generator for the differential test in [Test_prng]: the
   splitmix64 implementation that kept its state in a boxed [mutable
   int64] and sampled [int] through a closure, kept verbatim. The
   unboxed [Numeric.Prng] must reproduce its streams bit for bit. *)

(* splitmix64: Steele, Lea & Flood, "Fast splittable pseudorandom number
   generators", OOPSLA 2014. Small state, solid statistical quality, and
   trivially reproducible across platforms. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed = { state = mix (Int64.of_int seed) }
let copy t = { state = t.state }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t = { state = mix (bits64 t) }

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling on the top 62 bits to avoid modulo bias. *)
  let rec go () =
    let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
    let v = r mod bound in
    if r - v > max_int - bound + 1 then go () else v
  in
  go ()

let int_in_range t ~lo ~hi =
  if hi < lo then invalid_arg "Prng.int_in_range: hi < lo";
  lo + int t (hi - lo + 1)

let float t =
  (* 53 random bits scaled into [0, 1). *)
  let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
  float_of_int r *. (1.0 /. 9007199254740992.0)

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
