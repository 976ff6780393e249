(* Canonical rationals: den > 0, gcd (num, den) = 1, zero = 0/1.

   Two representations:
   - [S (n, d)]: native ints with |n| < 2^30 and 0 < d < 2^30, so that
     any cross product (n1*d2, n1*n2, ...) fits in OCaml's 63-bit int
     and sums of two such products still fit. This covers virtually
     every value appearing in the simplex tableaux of this project and
     avoids Bigint allocation on the hot path.
   - [B (n, d)]: exact Bigint fallback, entered automatically when a
     result leaves the small range. Correctness never depends on which
     representation is in use. *)

module Bi = Bigint

type t =
  | S of int * int
  | B of Bi.t * Bi.t

let small_max = 1 lsl 30

let rec gcd_int a b = if b = 0 then a else gcd_int b (a mod b)

(* Build a canonical small rational from ints with |n|, d arbitrary
   63-bit-safe values (d <> 0). *)
let make_small n d =
  let n, d = if d < 0 then (-n, -d) else (n, d) in
  if n = 0 then S (0, 1)
  else begin
    let g = gcd_int (abs n) d in
    let n = n / g and d = d / g in
    if abs n < small_max && d < small_max then S (n, d)
    else B (Bi.of_int n, Bi.of_int d)
  end

let make_big n d =
  if Bi.is_zero d then raise Division_by_zero;
  if Bi.is_zero n then S (0, 1)
  else begin
    let n, d = if Bi.is_negative d then (Bi.neg n, Bi.neg d) else (n, d) in
    let g = Bi.gcd n d in
    let n = if Bi.is_one g then n else Bi.div n g in
    let d = if Bi.is_one g then d else Bi.div d g in
    match (Bi.to_int n, Bi.to_int d) with
    | Some n', Some d' when abs n' < small_max && d' < small_max -> S (n', d')
    | _ -> B (n, d)
  end

let make n d = make_big n d

let zero = S (0, 1)
let one = S (1, 1)

let of_int n =
  if abs n < small_max then S (n, 1) else B (Bi.of_int n, Bi.one)

let of_bigint n =
  match Bi.to_int n with
  | Some n' when abs n' < small_max -> S (n', 1)
  | _ -> B (n, Bi.one)

let of_ints n d = if d = 0 then raise Division_by_zero else make_small n d

let num = function S (n, _) -> Bi.of_int n | B (n, _) -> n
let den = function S (_, d) -> Bi.of_int d | B (_, d) -> d
let to_small = function S (n, d) -> Some (n, d) | B _ -> None

let sign = function S (n, _) -> compare n 0 | B (n, _) -> Bi.sign n
let is_zero = function S (0, _) -> true | S _ -> false | B (n, _) -> Bi.is_zero n
let is_integer = function S (_, 1) -> true | S _ -> false | B (_, d) -> Bi.is_one d

let to_float = function
  | S (n, d) -> float_of_int n /. float_of_int d
  | B (n, d) -> Bi.to_float n /. Bi.to_float d

let to_string = function
  | S (n, 1) -> string_of_int n
  | S (n, d) -> string_of_int n ^ "/" ^ string_of_int d
  | B (n, d) ->
    if Bi.is_one d then Bi.to_string n else Bi.to_string n ^ "/" ^ Bi.to_string d

let of_string s =
  match String.index_opt s '/' with
  | Some i ->
    let n = Bi.of_string (String.sub s 0 i) in
    let d = Bi.of_string (String.sub s (i + 1) (String.length s - i - 1)) in
    make_big n d
  | None ->
    (match String.index_opt s '.' with
     | None -> of_bigint (Bi.of_string s)
     | Some i ->
       let int_part = String.sub s 0 i in
       let frac_part = String.sub s (i + 1) (String.length s - i - 1) in
       let digits = String.length frac_part in
       let scale = Bi.pow (Bi.of_int 10) digits in
       let neg = String.length int_part > 0 && int_part.[0] = '-' in
       let ip =
         if int_part = "" || int_part = "-" || int_part = "+" then Bi.zero
         else Bi.of_string int_part
       in
       let fp = if frac_part = "" then Bi.zero else Bi.of_string frac_part in
       let n = Bi.add (Bi.mul (Bi.abs ip) scale) fp in
       make_big (if neg then Bi.neg n else n) scale)

(* Promote to the Bigint view. *)
let big_parts = function
  | S (n, d) -> (Bi.of_int n, Bi.of_int d)
  | B (n, d) -> (n, d)

let add a b =
  match (a, b) with
  | S (0, _), x | x, S (0, _) -> x
  | S (n1, d1), S (n2, d2) ->
    (* |n*d| < 2^60, sum < 2^61: no overflow. *)
    make_small ((n1 * d2) + (n2 * d1)) (d1 * d2)
  | _ ->
    let n1, d1 = big_parts a and n2, d2 = big_parts b in
    make_big (Bi.add (Bi.mul n1 d2) (Bi.mul n2 d1)) (Bi.mul d1 d2)

let neg = function
  | S (n, d) -> S (-n, d)
  | B (n, d) -> B (Bi.neg n, d)

let sub a b = add a (neg b)
let abs t = if sign t < 0 then neg t else t

let mul a b =
  match (a, b) with
  | S (0, _), _ | _, S (0, _) -> zero
  | S (n1, d1), S (n2, d2) -> make_small (n1 * n2) (d1 * d2)
  | _ ->
    let n1, d1 = big_parts a and n2, d2 = big_parts b in
    make_big (Bi.mul n1 n2) (Bi.mul d1 d2)

let inv = function
  | S (0, _) -> raise Division_by_zero
  | S (n, d) -> if n < 0 then S (-d, -n) else S (d, n)
  | B (n, d) ->
    if Bi.is_zero n then raise Division_by_zero
    else if Bi.is_negative n then B (Bi.neg d, Bi.neg n)
    else B (d, n)

let div a b = mul a (inv b)

let compare a b =
  match (a, b) with
  | S (n1, d1), S (n2, d2) -> compare (n1 * d2) (n2 * d1)
  | _ ->
    let n1, d1 = big_parts a and n2, d2 = big_parts b in
    Bi.compare (Bi.mul n1 d2) (Bi.mul n2 d1)

let equal a b =
  match (a, b) with
  | S (n1, d1), S (n2, d2) -> n1 = n2 && d1 = d2
  | _ ->
    let n1, d1 = big_parts a and n2, d2 = big_parts b in
    Bi.equal n1 n2 && Bi.equal d1 d2

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

(* Floor division on native ints (round toward negative infinity). *)
let fdiv_int a b =
  let q = a / b and r = a mod b in
  if r <> 0 && (r < 0) <> (b < 0) then q - 1 else q

let floor = function
  | S (n, d) -> Bi.of_int (fdiv_int n d)
  | B (n, d) -> Bi.fdiv n d

let ceil = function
  | S (n, d) -> Bi.of_int (-fdiv_int (-n) d)
  | B (n, d) -> Bi.cdiv n d

let frac t = sub t (of_bigint (floor t))


let ( + ) = add
let ( - ) = sub
let ( * ) = mul
let ( / ) = div
let ( ~- ) = neg
let ( = ) = equal
let ( < ) a b = compare a b < 0
let ( <= ) a b = compare a b <= 0
let ( > ) a b = compare a b > 0
let ( >= ) a b = compare a b >= 0

module For_testing = struct
  let of_string = of_string
  let to_string = to_string
  let to_float = to_float
end
