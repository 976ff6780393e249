(* Unit and property tests for Numeric.Bigint.

   The qcheck properties use native [int] arithmetic as an oracle on
   ranges where it cannot overflow, plus targeted huge-value cases that
   exercise the multi-limb paths (Knuth division, carries, add-back). *)

module B = Numeric.Bigint

let b = B.of_int
let two = b 2
let pred x = B.(x - one)

(* The quotient and remainder of one truncated division. *)
let divmod a d = (B.div a d, B.rem a d)
let check_b msg expected actual = Alcotest.(check string) msg expected (B.to_string actual)

(* ----- targeted unit tests ----- *)

let test_of_int_roundtrip () =
  List.iter
    (fun n -> Alcotest.(check (option int)) (string_of_int n) (Some n) (B.to_int (b n)))
    [ 0; 1; -1; 42; -42; 1 lsl 29; (1 lsl 30) - 1; 1 lsl 30; 1 lsl 31;
      (1 lsl 40) + 12345; max_int; min_int; min_int + 1; max_int - 1 ]

let test_to_string_simple () =
  check_b "zero" "0" B.zero;
  check_b "one" "1" B.one;
  check_b "neg" "-17" (b (-17));
  check_b "max_int" (string_of_int max_int) (b max_int);
  check_b "min_int" (string_of_int min_int) (b min_int)

let test_of_string () =
  check_b "plain" "12345" (B.of_string "12345");
  check_b "signed+" "12345" (B.of_string "+12345");
  check_b "signed-" "-12345" (B.of_string "-12345");
  check_b "big"
    "123456789012345678901234567890"
    (B.of_string "123456789012345678901234567890");
  check_b "leading zeros" "7" (B.of_string "0007");
  Alcotest.check_raises "empty" (Invalid_argument "Bigint.of_string: empty string")
    (fun () -> ignore (B.of_string ""));
  Alcotest.check_raises "junk" (Invalid_argument "Bigint.of_string: bad digit")
    (fun () -> ignore (B.of_string "12x4"))

let test_string_roundtrip_big () =
  let cases =
    [ "999999999999999999999999999999999999";
      "-170141183460469231731687303715884105728";
      "1000000000000000000000000000000000000000000001" ]
  in
  List.iter (fun s -> check_b s s (B.of_string s)) cases

let test_add_sub_big () =
  let a = B.of_string "99999999999999999999999999999999" in
  check_b "a+1" "100000000000000000000000000000000" (B.add a B.one);
  check_b "a-a" "0" B.(a - a);
  check_b "a + -a" "0" (B.add a (B.neg a));
  check_b "carry chain" "1073741824" (B.add (b ((1 lsl 30) - 1)) B.one)

let test_mul_big () =
  let a = B.of_string "123456789123456789" in
  check_b "square" "15241578780673678515622620750190521" (B.mul a a);
  check_b "times zero" "0" (B.mul a B.zero);
  check_b "sign" "-15241578780673678515622620750190521" (B.mul a (B.neg a))

let test_divmod_exact () =
  let a = B.of_string "15241578780673678515622620750190521" in
  let d = B.of_string "123456789123456789" in
  let q, r = divmod a d in
  check_b "exact quotient" "123456789123456789" q;
  check_b "exact remainder" "0" r

let test_divmod_truncation_signs () =
  (* Truncated division mirrors Stdlib semantics. *)
  let cases = [ (7, 2); (-7, 2); (7, -2); (-7, -2); (6, 3); (-6, 3) ] in
  List.iter
    (fun (x, y) ->
      let q, r = divmod (b x) (b y) in
      Alcotest.(check int) (Printf.sprintf "q %d/%d" x y) (x / y) (B.to_int_exn q);
      Alcotest.(check int) (Printf.sprintf "r %d/%d" x y) (x mod y) (B.to_int_exn r))
    cases

let test_div_by_zero () =
  Alcotest.check_raises "div 0" Division_by_zero (fun () ->
      ignore (B.div B.one B.zero));
  Alcotest.check_raises "rem 0" Division_by_zero (fun () ->
      ignore (B.rem B.one B.zero))

let test_fdiv_cdiv () =
  let check name f x y expected =
    Alcotest.(check int) name expected (B.to_int_exn (f (b x) (b y)))
  in
  check "fdiv 7 2" B.fdiv 7 2 3;
  check "fdiv -7 2" B.fdiv (-7) 2 (-4);
  check "fdiv 7 -2" B.fdiv 7 (-2) (-4);
  check "fdiv -7 -2" B.fdiv (-7) (-2) 3;
  check "cdiv 7 2" B.cdiv 7 2 4;
  check "cdiv -7 2" B.cdiv (-7) 2 (-3);
  check "cdiv 7 -2" B.cdiv 7 (-2) (-3);
  check "cdiv -7 -2" B.cdiv (-7) (-2) 4;
  check "cdiv exact" B.cdiv 8 2 4;
  check "fdiv exact" B.fdiv 8 2 4

let test_gcd () =
  let check name x y expected =
    Alcotest.(check int) name expected (B.to_int_exn (B.gcd (b x) (b y)))
  in
  check "gcd 12 18" 12 18 6;
  check "gcd -12 18" (-12) 18 6;
  check "gcd 0 5" 0 5 5;
  check "gcd 5 0" 5 0 5;
  check "gcd 0 0" 0 0 0;
  check "gcd coprime" 17 31 1

let test_pow () =
  check_b "2^100" "1267650600228229401496703205376" (B.pow two 100);
  check_b "x^0" "1" (B.pow (b 123) 0);
  check_b "0^0" "1" (B.pow B.zero 0);
  check_b "(-2)^3" "-8" (B.pow (b (-2)) 3);
  Alcotest.check_raises "neg exponent"
    (Invalid_argument "Bigint.pow: negative exponent") (fun () ->
      ignore (B.pow two (-1)))

let test_num_bits () =
  Alcotest.(check int) "bits 0" 0 (B.For_testing.num_bits B.zero);
  Alcotest.(check int) "bits 1" 1 (B.For_testing.num_bits B.one);
  Alcotest.(check int) "bits 2" 2 (B.For_testing.num_bits two);
  Alcotest.(check int) "bits 2^30" 31 (B.For_testing.num_bits (b (1 lsl 30)));
  Alcotest.(check int) "bits 2^100" 101 (B.For_testing.num_bits (B.pow two 100))

let test_compare () =
  Alcotest.(check bool) "1 < 2" true B.(one < two);
  Alcotest.(check bool) "-1 < 1" true B.(b (-1) < one);
  Alcotest.(check bool) "-2 < -1" true B.(b (-2) < b (-1));
  Alcotest.(check bool) "multi-limb" true
    B.(of_string "99999999999999999999" < of_string "100000000000000000000");
  Alcotest.(check bool) "neg multi-limb" true
    B.(of_string "-100000000000000000000" < of_string "-99999999999999999999")

let test_to_float () =
  Alcotest.(check (float 1e-6)) "42" 42.0 (B.to_float (b 42));
  Alcotest.(check (float 1e15)) "2^100" (2. ** 100.) (B.to_float (B.pow two 100));
  Alcotest.(check (float 1e-6)) "neg" (-7.0) (B.to_float (b (-7)))

let test_to_int_overflow () =
  Alcotest.(check (option int)) "2^100 no fit" None (B.to_int (B.pow two 100));
  Alcotest.(check (option int)) "max_int+1 no fit" None
    (B.to_int B.(b max_int + one));
  Alcotest.(check (option int)) "min_int fits" (Some min_int) (B.to_int (b min_int));
  Alcotest.(check (option int)) "min_int-1 no fit" None (B.to_int (pred (b min_int)))

(* Knuth division stress: exercises qhat correction and add-back paths. *)
let test_division_stress () =
  (* Dividends/divisors crafted near limb boundaries. *)
  let near = pred (B.pow two 60) in
  let pairs =
    [ (B.pow two 120, pred (B.pow two 60));
      (pred (B.pow two 90), B.(pow two 30 + one));
      (B.mul near near, near);
      (B.of_string "340282366920938463463374607431768211455", B.of_string "18446744073709551616");
      (B.pow (b 10) 50, B.pow (b 10) 25) ]
  in
  List.iter
    (fun (a, d) ->
      let q, r = divmod a d in
      Alcotest.(check bool) "recompose" true B.(equal a (add (mul q d) r));
      Alcotest.(check bool) "rem range" true
        (Stdlib.( < ) (B.compare (B.abs r) (B.abs d)) 0
        && (B.is_zero r || B.sign r = B.sign a)))
    pairs

(* ----- qcheck properties ----- *)

let small_int = QCheck2.Gen.int_range (-1_000_000) 1_000_000

(* Generator for bigints of up to ~6 limbs, built from int chunks. *)
let big_gen =
  QCheck2.Gen.(
    map
      (fun (parts, sign) ->
        let v =
          List.fold_left
            (fun acc p -> B.add (B.mul acc (B.of_int (1 lsl 30))) (B.of_int p))
            B.zero parts
        in
        if sign then B.neg v else v)
      (pair (list_size (int_range 1 6) (int_bound ((1 lsl 30) - 1))) bool))

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:500 ~name gen f)

let props =
  [ prop "add matches int oracle" QCheck2.Gen.(pair small_int small_int) (fun (x, y) ->
        B.to_int_exn (B.add (b x) (b y)) = x + y);
    prop "mul matches int oracle" QCheck2.Gen.(pair small_int small_int) (fun (x, y) ->
        B.to_int_exn (B.mul (b x) (b y)) = x * y);
    prop "divmod matches int oracle"
      QCheck2.Gen.(pair small_int (oneof [ int_range 1 10000; int_range (-10000) (-1) ]))
      (fun (x, y) ->
        let q, r = divmod (b x) (b y) in
        B.to_int_exn q = x / y && B.to_int_exn r = x mod y);
    prop "string roundtrip" big_gen (fun x -> B.equal x (B.of_string (B.to_string x)));
    prop "add commutative" QCheck2.Gen.(pair big_gen big_gen) (fun (x, y) ->
        B.equal (B.add x y) (B.add y x));
    prop "add associative" QCheck2.Gen.(triple big_gen big_gen big_gen)
      (fun (x, y, z) -> B.equal (B.add (B.add x y) z) (B.add x (B.add y z)));
    prop "mul commutative" QCheck2.Gen.(pair big_gen big_gen) (fun (x, y) ->
        B.equal (B.mul x y) (B.mul y x));
    prop "mul associative" QCheck2.Gen.(triple big_gen big_gen big_gen)
      (fun (x, y, z) -> B.equal (B.mul (B.mul x y) z) (B.mul x (B.mul y z)));
    prop "distributivity" QCheck2.Gen.(triple big_gen big_gen big_gen)
      (fun (x, y, z) ->
        B.equal (B.mul x (B.add y z)) (B.add (B.mul x y) (B.mul x z)));
    prop "sub inverse of add" QCheck2.Gen.(pair big_gen big_gen) (fun (x, y) ->
        B.equal B.(add x y - y) x);
    prop "divmod invariant" QCheck2.Gen.(pair big_gen big_gen) (fun (x, y) ->
        if B.is_zero y then true
        else begin
          let q, r = divmod x y in
          B.equal x (B.add (B.mul q y) r)
          && B.compare (B.abs r) (B.abs y) < 0
          && (B.is_zero r || B.sign r = B.sign x)
        end);
    prop "gcd divides both" QCheck2.Gen.(pair big_gen big_gen) (fun (x, y) ->
        let g = B.gcd x y in
        if B.is_zero g then B.is_zero x && B.is_zero y
        else B.is_zero (B.rem x g) && B.is_zero (B.rem y g));
    prop "fdiv <= cdiv" QCheck2.Gen.(pair big_gen big_gen) (fun (x, y) ->
        if B.is_zero y then true else B.compare (B.fdiv x y) (B.cdiv x y) <= 0);
    prop "compare antisymmetric" QCheck2.Gen.(pair big_gen big_gen) (fun (x, y) ->
        B.compare x y = -B.compare y x);
    prop "neg involutive" big_gen (fun x -> B.equal x (B.neg (B.neg x)));
    prop "abs non-negative" big_gen (fun x -> B.sign (B.abs x) >= 0);
    prop "num_bits bound" big_gen (fun x ->
        if B.is_zero x then B.For_testing.num_bits x = 0
        else begin
          let bits = B.For_testing.num_bits x in
          let lo = B.pow two (bits - 1) and hi = B.pow two bits in
          B.compare (B.abs x) lo >= 0 && B.compare (B.abs x) hi < 0
        end) ]

let suite =
  ( "bigint",
    [ Alcotest.test_case "of_int/to_int roundtrip" `Quick test_of_int_roundtrip;
      Alcotest.test_case "to_string simple" `Quick test_to_string_simple;
      Alcotest.test_case "of_string" `Quick test_of_string;
      Alcotest.test_case "string roundtrip big" `Quick test_string_roundtrip_big;
      Alcotest.test_case "add/sub big" `Quick test_add_sub_big;
      Alcotest.test_case "mul big" `Quick test_mul_big;
      Alcotest.test_case "divmod exact" `Quick test_divmod_exact;
      Alcotest.test_case "divmod truncation signs" `Quick test_divmod_truncation_signs;
      Alcotest.test_case "division by zero" `Quick test_div_by_zero;
      Alcotest.test_case "fdiv/cdiv" `Quick test_fdiv_cdiv;
      Alcotest.test_case "gcd" `Quick test_gcd;
      Alcotest.test_case "pow" `Quick test_pow;
      Alcotest.test_case "num_bits" `Quick test_num_bits;
      Alcotest.test_case "compare" `Quick test_compare;
      Alcotest.test_case "to_float" `Quick test_to_float;
      Alcotest.test_case "to_int overflow" `Quick test_to_int_overflow;
      Alcotest.test_case "knuth division stress" `Quick test_division_stress ]
    @ props )
