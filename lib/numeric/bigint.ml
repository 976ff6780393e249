(* Arbitrary-precision integers over base-2^30 limbs.

   Representation invariants:
   - [mag] is little-endian, has no trailing (most-significant) zero limb;
   - [sign] is 0 iff [mag] is empty, otherwise -1 or 1;
   - every limb is in [0, 2^30). *)

type t = { sign : int; mag : int array }

let base_bits = 30
let base = 1 lsl base_bits (* 2^30 *)
let mask = base - 1

let zero = { sign = 0; mag = [||] }

let normalize_mag mag =
  let n = ref (Array.length mag) in
  while !n > 0 && mag.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length mag then mag else Array.sub mag 0 !n

let make sign mag =
  let mag = normalize_mag mag in
  if Array.length mag = 0 then zero else { sign; mag }

let of_int n =
  if n = 0 then zero
  else if n = min_int then
    (* [abs min_int] overflows; |min_int| = 2^62 = 4 * (2^30)^2. *)
    { sign = -1; mag = [| 0; 0; 4 |] }
  else begin
    let sign = if n < 0 then -1 else 1 in
    let a = Stdlib.abs n in
    let rec count n acc = if n = 0 then acc else count (n lsr base_bits) (acc + 1) in
    let mag = Array.make (count a 0) 0 in
    let rec fill i n =
      if n <> 0 then begin
        mag.(i) <- n land mask;
        fill (i + 1) (n lsr base_bits)
      end
    in
    fill 0 a;
    { sign; mag }
  end

let sign t = t.sign
let is_zero t = t.sign = 0
let is_negative t = t.sign < 0

(* Compare magnitudes: -1, 0, 1. *)
let cmp_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

let compare a b =
  if a.sign <> b.sign then Stdlib.compare a.sign b.sign
  else if a.sign = 0 then 0
  else if a.sign > 0 then cmp_mag a.mag b.mag
  else cmp_mag b.mag a.mag

let equal a b = compare a b = 0
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

(* Magnitude addition: |a| + |b|. *)
let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let lmax = Stdlib.max la lb in
  let res = Array.make (lmax + 1) 0 in
  let carry = ref 0 in
  for i = 0 to lmax - 1 do
    let av = if i < la then a.(i) else 0 in
    let bv = if i < lb then b.(i) else 0 in
    let s = av + bv + !carry in
    res.(i) <- s land mask;
    carry := s lsr base_bits
  done;
  res.(lmax) <- !carry;
  res

(* Magnitude subtraction: |a| - |b|, requires |a| >= |b|. *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  let res = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let bv = if i < lb then b.(i) else 0 in
    let d = a.(i) - bv - !borrow in
    if d < 0 then begin
      res.(i) <- d + base;
      borrow := 1
    end else begin
      res.(i) <- d;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  res

let neg t = if t.sign = 0 then t else { t with sign = -t.sign }
let abs t = if t.sign < 0 then neg t else t

let add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then make a.sign (add_mag a.mag b.mag)
  else begin
    match cmp_mag a.mag b.mag with
    | 0 -> zero
    | c when c > 0 -> make a.sign (sub_mag a.mag b.mag)
    | _ -> make b.sign (sub_mag b.mag a.mag)
  end

let sub a b = add a (neg b)

let one = of_int 1
let two = of_int 2
let minus_one = of_int (-1)

let is_one t = equal t one
let succ t = add t one
let pred t = sub t one

(* Magnitude multiplication, schoolbook. Intermediate products fit:
   limb*limb <= (2^30-1)^2 < 2^60, plus carries stays < 2^62. *)
let mul_mag a b =
  let la = Array.length a and lb = Array.length b in
  let res = Array.make (la + lb) 0 in
  for i = 0 to la - 1 do
    let carry = ref 0 in
    let ai = a.(i) in
    if ai <> 0 then begin
      for j = 0 to lb - 1 do
        let p = (ai * b.(j)) + res.(i + j) + !carry in
        res.(i + j) <- p land mask;
        carry := p lsr base_bits
      done;
      (* propagate remaining carry *)
      let k = ref (i + lb) in
      while !carry <> 0 do
        let s = res.(!k) + !carry in
        res.(!k) <- s land mask;
        carry := s lsr base_bits;
        incr k
      done
    end
  done;
  res

let mul a b =
  if a.sign = 0 || b.sign = 0 then zero
  else make (a.sign * b.sign) (mul_mag a.mag b.mag)

let num_bits t =
  let n = Array.length t.mag in
  if n = 0 then 0
  else begin
    let top = t.mag.(n - 1) in
    let rec bits v acc = if v = 0 then acc else bits (v lsr 1) (acc + 1) in
    ((n - 1) * base_bits) + bits top 0
  end

(* Short division of a magnitude by a single positive limb [d] < base.
   Returns (quotient magnitude, remainder int). *)
let divmod_mag_small u d =
  let n = Array.length u in
  let q = Array.make n 0 in
  let r = ref 0 in
  for i = n - 1 downto 0 do
    let cur = (!r lsl base_bits) lor u.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (q, !r)

(* Shift a magnitude left by s bits, 0 <= s < base_bits, into an array of
   length [n + 1] (extra high limb). *)
let shl_mag u s extra =
  let n = Array.length u in
  let res = Array.make (n + extra) 0 in
  if s = 0 then Array.blit u 0 res 0 n
  else begin
    let carry = ref 0 in
    for i = 0 to n - 1 do
      let v = (u.(i) lsl s) lor !carry in
      res.(i) <- v land mask;
      carry := v lsr base_bits
    done;
    if extra > 0 then res.(n) <- !carry else assert (!carry = 0)
  end;
  res

(* Shift a magnitude right by s bits, 0 <= s < base_bits. *)
let shr_mag u s =
  let n = Array.length u in
  let res = Array.make n 0 in
  if s = 0 then Array.blit u 0 res 0 n
  else begin
    let carry = ref 0 in
    for i = n - 1 downto 0 do
      let v = u.(i) in
      res.(i) <- (v lsr s) lor (!carry lsl (base_bits - s));
      carry := v land ((1 lsl s) - 1)
    done
  end;
  res

(* Knuth Algorithm D: divide magnitude [u] by magnitude [v],
   Array.length v >= 2, |u| >= |v|. Returns (quotient, remainder). *)
let divmod_mag_knuth u v =
  let n = Array.length v in
  let m = Array.length u - n in
  (* Normalize so the top limb of v has its high bit set. *)
  let rec lead_bits x acc = if x = 0 then acc else lead_bits (x lsr 1) (acc + 1) in
  let s = base_bits - lead_bits v.(n - 1) 0 in
  let vn = shl_mag v s 0 in
  let un = shl_mag u s 1 in
  let q = Array.make (m + 1) 0 in
  for j = m downto 0 do
    (* Estimate qhat from the top two limbs of the current remainder. *)
    let top = (un.(j + n) lsl base_bits) lor un.(j + n - 1) in
    let qhat = ref (top / vn.(n - 1)) in
    let rhat = ref (top mod vn.(n - 1)) in
    let continue_correct = ref true in
    while !continue_correct do
      if
        !qhat >= base
        || !qhat * vn.(n - 2) > (!rhat lsl base_bits) lor un.(j + n - 2)
      then begin
        decr qhat;
        rhat := !rhat + vn.(n - 1);
        if !rhat >= base then continue_correct := false
      end
      else continue_correct := false
    done;
    (* Multiply and subtract: un[j .. j+n] -= qhat * vn. *)
    let borrow = ref 0 in
    for i = 0 to n - 1 do
      let p = (!qhat * vn.(i)) + !borrow in
      let sub = un.(j + i) - (p land mask) in
      un.(j + i) <- sub land mask;
      borrow := (p lsr base_bits) + (if sub < 0 then 1 else 0)
    done;
    let t = un.(j + n) - !borrow in
    if t < 0 then begin
      (* qhat was one too large: add back. *)
      decr qhat;
      let carry = ref 0 in
      for i = 0 to n - 1 do
        let sum = un.(j + i) + vn.(i) + !carry in
        un.(j + i) <- sum land mask;
        carry := sum lsr base_bits
      done;
      un.(j + n) <- (t + !carry) land mask
    end
    else un.(j + n) <- t;
    q.(j) <- !qhat
  done;
  let r = shr_mag (Array.sub un 0 n) s in
  (q, r)

let divmod a b =
  if b.sign = 0 then raise Division_by_zero;
  if a.sign = 0 then (zero, zero)
  else begin
    let c = cmp_mag a.mag b.mag in
    if c < 0 then (zero, a)
    else if c = 0 then (make (a.sign * b.sign) [| 1 |], zero)
    else begin
      let qmag, rmag =
        if Array.length b.mag = 1 then begin
          let q, r = divmod_mag_small a.mag b.mag.(0) in
          (q, if r = 0 then [||] else [| r |])
        end
        else divmod_mag_knuth a.mag b.mag
      in
      (make (a.sign * b.sign) qmag, make a.sign rmag)
    end
  end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let fdiv a b =
  let q, r = divmod a b in
  if is_zero r || sign r = sign b then q else pred q

let cdiv a b =
  let q, r = divmod a b in
  if is_zero r || sign r <> sign b then q else succ q

let rec gcd_loop a b = if is_zero b then a else gcd_loop b (rem a b)
let gcd a b = gcd_loop (abs a) (abs b)

let pow b e =
  if e < 0 then invalid_arg "Bigint.pow: negative exponent";
  let rec go acc b e =
    if e = 0 then acc
    else begin
      let acc = if e land 1 = 1 then mul acc b else acc in
      go acc (mul b b) (e lsr 1)
    end
  in
  go one b e

let shift_left t k =
  if k < 0 then invalid_arg "Bigint.shift_left: negative shift";
  if t.sign = 0 || k = 0 then t
  else begin
    let limb_shift = k / base_bits and bit_shift = k mod base_bits in
    let shifted = shl_mag t.mag bit_shift 1 in
    let res = Array.make (Array.length shifted + limb_shift) 0 in
    Array.blit shifted 0 res limb_shift (Array.length shifted);
    make t.sign res
  end

let to_int t =
  (* A native int holds at most 62 bits of magnitude (plus min_int). *)
  let bits = num_bits t in
  if bits <= 62 then begin
    let v = ref 0 in
    for i = Array.length t.mag - 1 downto 0 do
      v := (!v lsl base_bits) lor t.mag.(i)
    done;
    Some (if t.sign < 0 then - !v else !v)
  end
  else if t.sign < 0 && bits = 63 && equal t (of_int min_int) then Some min_int
  else None

let to_int_exn t =
  match to_int t with
  | Some n -> n
  | None -> failwith "Bigint.to_int_exn: value does not fit in int"

let to_float t =
  let f = ref 0.0 in
  for i = Array.length t.mag - 1 downto 0 do
    f := (!f *. float_of_int base) +. float_of_int t.mag.(i)
  done;
  if t.sign < 0 then -. !f else !f

(* Decimal I/O via chunks of 9 digits (10^9 < 2^30). *)
let chunk = 1_000_000_000
let chunk_digits = 9

let to_string t =
  if t.sign = 0 then "0"
  else begin
    let buf = Buffer.create 32 in
    let rec chunks mag acc =
      if Array.length mag = 0 then acc
      else begin
        let q, r = divmod_mag_small mag chunk in
        chunks (normalize_mag q) (r :: acc)
      end
    in
    let parts = chunks t.mag [] in
    if t.sign < 0 then Buffer.add_char buf '-';
    (match parts with
     | [] -> assert false
     | first :: rest ->
       Buffer.add_string buf (string_of_int first);
       List.iter (fun p -> Buffer.add_string buf (Printf.sprintf "%09d" p)) rest);
    Buffer.contents buf
  end

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Bigint.of_string: empty string";
  let sign, start =
    match s.[0] with
    | '-' -> (-1, 1)
    | '+' -> (1, 1)
    | _ -> (1, 0)
  in
  if start >= len then invalid_arg "Bigint.of_string: no digits";
  let acc = ref zero in
  let big_chunk = of_int chunk in
  let i = ref start in
  while !i < len do
    let stop = Stdlib.min len (!i + chunk_digits) in
    (* First chunk may be shorter so that all later chunks are full. *)
    let first_len = (len - start) mod chunk_digits in
    let stop = if !i = start && first_len <> 0 then start + first_len else stop in
    let part = String.sub s !i (stop - !i) in
    String.iter
      (fun c -> if c < '0' || c > '9' then invalid_arg "Bigint.of_string: bad digit")
      part;
    let width = stop - !i in
    let mult = if width = chunk_digits then big_chunk else pow (of_int 10) width in
    acc := add (mul !acc mult) (of_int (int_of_string part));
    i := stop
  done;
  if sign < 0 then neg !acc else !acc

let pp fmt t = Format.pp_print_string fmt (to_string t)

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
