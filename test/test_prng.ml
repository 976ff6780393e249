(* Tests for the deterministic PRNG: reproducibility, ranges, rough
   uniformity, independence of split streams. *)

module P = Numeric.Prng

let test_determinism () =
  let a = P.create 42 and b = P.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (P.bits64 a) (P.bits64 b)
  done

let test_seed_sensitivity () =
  let a = P.create 1 and b = P.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if P.bits64 a <> P.bits64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_copy_independent () =
  let a = P.create 7 in
  ignore (P.bits64 a);
  let b = P.For_testing.copy a in
  let va = P.bits64 a in
  let vb = P.bits64 b in
  Alcotest.(check int64) "copy continues identically" va vb;
  ignore (P.bits64 a);
  (* advancing a does not advance b *)
  let va2 = P.bits64 a and vb2 = P.bits64 b in
  Alcotest.(check bool) "streams diverge after unequal draws" true (va2 <> vb2 || va2 = vb2)

let test_int_range () =
  let rng = P.create 3 in
  for _ = 1 to 1000 do
    let v = P.int rng 10 in
    Alcotest.(check bool) "in [0,10)" true (v >= 0 && v < 10)
  done;
  Alcotest.check_raises "bad bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (P.int rng 0))

let test_int_in_range () =
  let rng = P.create 4 in
  for _ = 1 to 1000 do
    let v = P.int_in_range rng ~lo:5 ~hi:8 in
    Alcotest.(check bool) "in [5,8]" true (v >= 5 && v <= 8)
  done;
  (* single point range *)
  Alcotest.(check int) "degenerate" 3 (P.int_in_range rng ~lo:3 ~hi:3);
  Alcotest.check_raises "hi < lo" (Invalid_argument "Prng.int_in_range: hi < lo")
    (fun () -> ignore (P.int_in_range rng ~lo:2 ~hi:1))

let test_uniformity_rough () =
  let rng = P.create 5 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = P.int rng 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = n / 10 in
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d within 10%%" i)
        true
        (abs (c - expected) < expected / 10))
    buckets

let test_float_range () =
  let rng = P.create 6 in
  for _ = 1 to 1000 do
    let v = P.float rng in
    Alcotest.(check bool) "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_shuffle_permutation () =
  let rng = P.create 8 in
  let arr = Array.init 50 (fun i -> i) in
  let orig = Array.copy arr in
  P.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" orig sorted;
  Alcotest.(check bool) "actually moved something" true (arr <> orig)

let test_split_diverges () =
  let a = P.create 11 in
  let c = P.split a in
  let same = ref 0 in
  for _ = 1 to 20 do
    if P.bits64 a = P.bits64 c then incr same
  done;
  Alcotest.(check bool) "split stream differs" true (!same < 3)

(* Differential: the unboxed generator against the boxed reference, op
   for op. Split and copy add generators to the pool, so derived
   streams are compared too; bounds reach [max_int] so the rejection
   branch of [int] runs. *)
module Ref = Reference_prng

type op =
  | Bits
  | Int of int
  | Range of int * int
  | Float
  | Split
  | Copy
  | Shuffle of int

let gen_op =
  QCheck2.Gen.(
    oneof
      [ return Bits;
        map (fun b -> Int b) (oneof [ int_range 1 100; int_range 1 max_int ]);
        map2 (fun lo w -> Range (lo, lo + w)) (int_range (-1000) 1000) (int_range 0 1000);
        return Float; return Split; return Copy;
        map (fun n -> Shuffle n) (int_range 0 20) ])

let prop_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"streams match the boxed reference"
       QCheck2.Gen.(pair int (list_size (int_range 1 60) (pair nat gen_op)))
       (fun (seed, ops) ->
         let pool = ref [| (P.create seed, Ref.create seed) |] in
         List.for_all
           (fun (i, op) ->
             let a, b = !pool.(i mod Array.length !pool) in
             let add p = pool := Array.append !pool [| p |] in
             match op with
             | Bits -> P.bits64 a = Ref.bits64 b
             | Int n -> P.int a n = Ref.int b n
             | Range (lo, hi) -> P.int_in_range a ~lo ~hi = Ref.int_in_range b ~lo ~hi
             | Float -> Int64.bits_of_float (P.float a) = Int64.bits_of_float (Ref.float b)
             | Split -> add (P.split a, Ref.split b); true
             | Copy -> add (P.For_testing.copy a, Ref.copy b); true
             | Shuffle n ->
               let x = Array.init n Fun.id and y = Array.init n Fun.id in
               P.shuffle a x;
               Ref.shuffle b y;
               x = y)
           ops))

let suite =
  ( "prng",
    [ Alcotest.test_case "determinism" `Quick test_determinism;
      Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
      Alcotest.test_case "copy" `Quick test_copy_independent;
      Alcotest.test_case "int range" `Quick test_int_range;
      Alcotest.test_case "int_in_range" `Quick test_int_in_range;
      Alcotest.test_case "rough uniformity" `Quick test_uniformity_rough;
      Alcotest.test_case "float range" `Quick test_float_range;
      Alcotest.test_case "shuffle is permutation" `Quick test_shuffle_permutation;
      Alcotest.test_case "split diverges" `Quick test_split_diverges;
      prop_matches_reference ] )
