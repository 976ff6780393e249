(* Unit and property tests for Numeric.Rat: canonical form, field laws,
   ordering, rounding. *)

module B = Numeric.Bigint
module R = Numeric.Rat

let r = R.of_ints
let to_string = R.For_testing.to_string
let check_r msg expected actual = Alcotest.(check string) msg expected (to_string actual)

let test_canonical_form () =
  check_r "reduce" "2/3" (r 4 6);
  check_r "negative den" "-2/3" (r 2 (-3));
  check_r "both negative" "2/3" (r (-2) (-3));
  check_r "integer form" "5" (r 10 2);
  check_r "zero" "0" (r 0 17);
  check_r "zero neg den" "0" (r 0 (-17))

let test_make_div_by_zero () =
  Alcotest.check_raises "den zero" Division_by_zero (fun () -> ignore (r 1 0))

let test_of_string () =
  check_r "int" "42" (R.For_testing.of_string "42");
  check_r "frac" "2/3" (R.For_testing.of_string "4/6");
  check_r "neg frac" "-1/2" (R.For_testing.of_string "-2/4");
  check_r "decimal" "5/4" (R.For_testing.of_string "1.25");
  check_r "neg decimal" "-5/4" (R.For_testing.of_string "-1.25");
  check_r "decimal no int part" "1/4" (R.For_testing.of_string "0.25")

let test_arith () =
  check_r "add" "5/6" (R.add (r 1 2) (r 1 3));
  check_r "sub" "1/6" (R.sub (r 1 2) (r 1 3));
  check_r "mul" "1/6" (R.mul (r 1 2) (r 1 3));
  check_r "div" "3/2" (R.div (r 1 2) (r 1 3));
  check_r "inv" "3/2" (R.inv (r 2 3));
  check_r "inv neg" "-3/2" (R.inv (r (-2) 3));
  check_r "cancel to int" "1" (R.add (r 1 2) (r 1 2))

let test_div_by_zero () =
  Alcotest.check_raises "div zero" Division_by_zero (fun () ->
      ignore (R.div R.one R.zero));
  Alcotest.check_raises "inv zero" Division_by_zero (fun () -> ignore (R.inv R.zero))

let test_compare () =
  Alcotest.(check bool) "1/2 < 2/3" true R.(r 1 2 < r 2 3);
  Alcotest.(check bool) "-1/2 > -2/3" true R.(r (-1) 2 > r (-2) 3);
  Alcotest.(check bool) "equal reduced" true R.(r 2 4 = r 1 2);
  Alcotest.(check int) "sign pos" 1 (R.sign (r 1 2));
  Alcotest.(check int) "sign neg" (-1) (R.sign (r (-1) 2));
  Alcotest.(check int) "sign zero" 0 (R.sign R.zero)

let test_floor_ceil_frac () =
  let check_i msg expected actual = Alcotest.(check int) msg expected (B.to_int_exn actual) in
  check_i "floor 7/2" 3 (R.floor (r 7 2));
  check_i "ceil 7/2" 4 (R.ceil (r 7 2));
  check_i "floor -7/2" (-4) (R.floor (r (-7) 2));
  check_i "ceil -7/2" (-3) (R.ceil (r (-7) 2));
  check_i "floor int" 5 (R.floor (r 5 1));
  check_i "ceil int" 5 (R.ceil (r 5 1));
  check_r "frac 7/2" "1/2" (R.frac (r 7 2));
  check_r "frac -7/2" "1/2" (R.frac (r (-7) 2));
  check_r "frac int" "0" (R.frac (r 4 1))

let test_is_integer () =
  Alcotest.(check bool) "int" true (R.is_integer (r 4 2));
  Alcotest.(check bool) "non-int" false (R.is_integer (r 1 2));
  Alcotest.(check bool) "zero" true (R.is_integer R.zero)

let test_to_float () =
  Alcotest.(check (float 1e-12)) "1/2" 0.5 (R.For_testing.to_float (r 1 2));
  Alcotest.(check (float 1e-12)) "-3/4" (-0.75) (R.For_testing.to_float (r (-3) 4))

let test_representation_boundary () =
  (* The implementation switches between a native-int fast path and
     Bigints around 2^30; arithmetic must be seamless across the
     boundary in both directions. *)
  let big = R.make (B.pow (B.of_int 2) 35) B.one in
  (* promotion: products that leave the small range *)
  let sq = R.mul big big in
  Alcotest.(check string) "2^70" (B.to_string (B.pow (B.of_int 2) 70)) (to_string sq);
  (* demotion: a big-path computation whose result is small again *)
  let back = R.sub big (R.sub big (R.of_int 3)) in
  Alcotest.(check bool) "demoted equals small" true (R.equal back (R.of_int 3));
  Alcotest.(check string) "prints small" "3" (to_string back);
  (* mixed-representation comparison *)
  Alcotest.(check bool) "big > small" true R.(big > of_int 5);
  Alcotest.(check bool) "small < big" true R.(of_int 5 < big);
  (* division creating a large denominator, then cancelling *)
  let frac = R.div R.one big in
  Alcotest.(check bool) "1/2^35 * 2^35 = 1" true (R.equal R.one (R.mul frac big));
  (* exactly at the boundary: 2^30 - 1 stays small-representable,
     2^30 must still behave identically *)
  let just_below = R.of_int ((1 lsl 30) - 1) and at = R.of_int (1 lsl 30) in
  Alcotest.(check bool) "boundary compare" true R.(just_below < at);
  Alcotest.(check string) "boundary add" (string_of_int ((1 lsl 31) - 1))
    (to_string (R.add just_below at))

(* qcheck: field laws over random small rationals. *)
let rat_gen =
  QCheck2.Gen.(
    map
      (fun (n, d) -> r n (if d = 0 then 1 else d))
      (pair (int_range (-10000) 10000) (int_range (-500) 500)))

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:500 ~name gen f)

let props =
  [ prop "canonical: den > 0 and coprime" rat_gen (fun x ->
        B.sign (R.den x) > 0 && B.is_one (B.gcd (R.num x) (R.den x))
        || (R.is_zero x && B.is_one (R.den x)));
    prop "add commutative" QCheck2.Gen.(pair rat_gen rat_gen) (fun (x, y) ->
        R.equal (R.add x y) (R.add y x));
    prop "add associative" QCheck2.Gen.(triple rat_gen rat_gen rat_gen)
      (fun (x, y, z) -> R.equal (R.add (R.add x y) z) (R.add x (R.add y z)));
    prop "mul distributes" QCheck2.Gen.(triple rat_gen rat_gen rat_gen)
      (fun (x, y, z) ->
        R.equal (R.mul x (R.add y z)) (R.add (R.mul x y) (R.mul x z)));
    prop "additive inverse" rat_gen (fun x -> R.is_zero (R.add x (R.neg x)));
    prop "multiplicative inverse" rat_gen (fun x ->
        R.is_zero x || R.equal R.one (R.mul x (R.inv x)));
    prop "sub then add" QCheck2.Gen.(pair rat_gen rat_gen) (fun (x, y) ->
        R.equal x (R.add (R.sub x y) y));
    prop "div then mul" QCheck2.Gen.(pair rat_gen rat_gen) (fun (x, y) ->
        R.is_zero y || R.equal x (R.mul (R.div x y) y));
    prop "floor <= x < floor + 1" rat_gen (fun x ->
        let f = R.make (R.floor x) B.one in
        R.compare f x <= 0 && R.compare x (R.add f R.one) < 0);
    prop "ceil - floor in {0,1}" rat_gen (fun x ->
        let d = B.(R.ceil x - R.floor x) in
        B.is_zero d || B.is_one d);
    prop "frac in [0,1)" rat_gen (fun x ->
        let f = R.frac x in
        R.compare f R.zero >= 0 && R.compare f R.one < 0);
    prop "compare total order transitive-ish" QCheck2.Gen.(pair rat_gen rat_gen)
      (fun (x, y) -> R.compare x y = -R.compare y x);
    prop "string roundtrip" rat_gen (fun x ->
        R.equal x (R.For_testing.of_string (to_string x)));
    prop "field laws across the 2^30 boundary"
      QCheck2.Gen.(pair (int_range (-5) 5) (int_range 25 40))
      (fun (k, e) ->
        (* x = k + 2^e / 3 exercises both representations *)
        let x = R.add (R.of_int k) (R.make (B.pow (B.of_int 2) e) (B.of_int 3)) in
        R.is_zero (R.add x (R.neg x))
        && R.equal x (R.mul x R.one)
        && R.equal (R.sub (R.add x R.one) R.one) x
        && (R.is_zero x || R.equal R.one (R.mul x (R.inv x))));
    prop "to_float consistent" rat_gen (fun x ->
        Float.abs
          (R.For_testing.to_float x -. (B.to_float (R.num x) /. B.to_float (R.den x)))
        < 1e-9) ]

let suite =
  ( "rat",
    [ Alcotest.test_case "canonical form" `Quick test_canonical_form;
      Alcotest.test_case "make div by zero" `Quick test_make_div_by_zero;
      Alcotest.test_case "of_string" `Quick test_of_string;
      Alcotest.test_case "arithmetic" `Quick test_arith;
      Alcotest.test_case "div by zero" `Quick test_div_by_zero;
      Alcotest.test_case "compare" `Quick test_compare;
      Alcotest.test_case "floor/ceil/frac" `Quick test_floor_ceil_frac;
      Alcotest.test_case "is_integer" `Quick test_is_integer;
      Alcotest.test_case "to_float" `Quick test_to_float;
      Alcotest.test_case "representation boundary" `Quick test_representation_boundary ]
    @ props )
