(* splitmix64: Steele, Lea & Flood, "Fast splittable pseudorandom number
   generators", OOPSLA 2014. Small state, solid statistical quality, and
   trivially reproducible across platforms. *)

(* The state lives unboxed in 8 bytes: a [mutable int64] field would
   box a fresh int64 on every draw. The helpers are inlined so that a
   draw's intermediate int64s stay in registers too. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (mix (Int64.of_int seed))
let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix s

let bits64 t = next t

let split t = of_state (mix (next t))

(* Rejection sampling on the top 62 bits to avoid modulo bias. *)
let rec draw t bound =
  let r = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  let v = r mod bound in
  if r - v > max_int - bound + 1 then draw t bound else v

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  draw t bound

let int_in_range t ~lo ~hi =
  if hi < lo then invalid_arg "Prng.int_in_range: hi < lo";
  lo + int t (hi - lo + 1)

let float t =
  (* 53 random bits scaled into [0, 1). *)
  let r = Int64.to_int (Int64.shift_right_logical (next t) 11) in
  float_of_int r *. (1.0 /. 9007199254740992.0)

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

module For_testing = struct
  let copy = Bytes.copy
end
