(* Tests for the binary min-heap shared by the MILP node queue and the
   discrete-event simulator. *)

module Int_heap = Pqueue.Make (Int)

let size h = Int_heap.fold (fun n _ -> n + 1) 0 h

let test_basic_order () =
  let h = Int_heap.create () in
  List.iter (Int_heap.push h) [ 5; 1; 4; 1; 3 ];
  Alcotest.(check int) "size" 5 (size h);
  Alcotest.(check (option int)) "peek" (Some 1) (Int_heap.For_testing.peek h);
  let drained = List.init 5 (fun _ -> Option.get (Int_heap.pop h)) in
  Alcotest.(check (list int)) "sorted drain" [ 1; 1; 3; 4; 5 ] drained;
  Alcotest.(check bool) "empty" true (Int_heap.is_empty h);
  Alcotest.(check (option int)) "pop empty" None (Int_heap.pop h)

let test_clear_and_fold () =
  let h = Int_heap.create () in
  List.iter (Int_heap.push h) [ 3; 1; 2 ];
  Alcotest.(check int) "fold sum" 6 (Int_heap.fold ( + ) 0 h);
  Alcotest.(check (list int)) "fold sees every element" [ 1; 2; 3 ]
    (List.sort compare (Int_heap.fold (fun l x -> x :: l) [] h));
  Int_heap.For_testing.clear h;
  Alcotest.(check bool) "cleared" true (Int_heap.is_empty h);
  Alcotest.(check int) "fold after clear" 0 (Int_heap.fold ( + ) 0 h)

let test_interleaved () =
  let h = Int_heap.create () in
  Int_heap.push h 10;
  Int_heap.push h 5;
  Alcotest.(check (option int)) "min" (Some 5) (Int_heap.pop h);
  Int_heap.push h 1;
  Int_heap.push h 20;
  Alcotest.(check (option int)) "new min" (Some 1) (Int_heap.pop h);
  Alcotest.(check (option int)) "then 10" (Some 10) (Int_heap.pop h);
  Alcotest.(check (option int)) "then 20" (Some 20) (Int_heap.pop h)

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:300 ~name gen f)

let props =
  [ prop "heap drain equals sorted input" QCheck2.Gen.(list int) (fun xs ->
        let h = Int_heap.create () in
        List.iter (Int_heap.push h) xs;
        let drained = List.init (List.length xs) (fun _ -> Option.get (Int_heap.pop h)) in
        drained = List.sort compare xs);
    prop "size tracks pushes and pops" QCheck2.Gen.(list small_nat) (fun xs ->
        let h = Int_heap.create () in
        List.iter (Int_heap.push h) xs;
        let rec drain n =
          match Int_heap.pop h with None -> n | Some _ -> drain (n + 1)
        in
        let n = List.length xs in
        size h = n && drain 0 = n && Int_heap.is_empty h);
    prop "peek = pop" QCheck2.Gen.(list_size (QCheck2.Gen.int_range 1 30) int)
      (fun xs ->
        let h = Int_heap.create () in
        List.iter (Int_heap.push h) xs;
        (* bind in order: OCaml evaluates [=] operands right to left *)
        let peeked = Int_heap.For_testing.peek h in
        let popped = Int_heap.pop h in
        peeked = popped) ]

let suite =
  ( "pqueue",
    [ Alcotest.test_case "basic order" `Quick test_basic_order;
      Alcotest.test_case "clear and fold" `Quick test_clear_and_fold;
      Alcotest.test_case "interleaved" `Quick test_interleaved ]
    @ props )
