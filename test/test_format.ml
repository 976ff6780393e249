(* Tests for the problem file format: round-trips, hand-written files,
   error messages. *)

module PF = Rentcost.Problem_format
module PB = Rentcost.Problem
module TG = Rentcost.Task_graph

let same_problem a b =
  PB.num_types a = PB.num_types b
  && PB.num_recipes a = PB.num_recipes b
  && Rentcost.Platform.machines (PB.platform a)
     = Rentcost.Platform.machines (PB.platform b)
  && Array.for_all2
       (fun ra rb ->
         Array.init (TG.num_tasks ra) (TG.type_of ra)
         = Array.init (TG.num_tasks rb) (TG.type_of rb)
         && List.sort compare (TG.edges ra) = List.sort compare (TG.edges rb))
       (PB.recipes a) (PB.recipes b)

let test_roundtrip_illustrating () =
  let p = PB.illustrating in
  Alcotest.(check bool) "roundtrip" true (same_problem p (PF.of_string (PF.to_string p)))

let test_roundtrip_generated () =
  for seed = 1 to 10 do
    let rng = Numeric.Prng.create seed in
    let p =
      Cloudsim.Generator.problem ~rng
        { Cloudsim.Generator.num_graphs = 4; min_tasks = 3; max_tasks = 6;
          mutation_pct = 0.5 }
        { Cloudsim.Generator.num_types = 4; min_cost = 1; max_cost = 50;
          min_throughput = 5; max_throughput = 40 }
    in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d" seed)
      true
      (same_problem p (PF.of_string (PF.to_string p)))
  done

let test_hand_written () =
  let text =
    {|# tiny instance
types 2
type 0 cost 5 throughput 10
type 1 cost 9 throughput 20
recipe
  task 0 type 0
  task 1 type 1
  edge 0 1
recipe
  task 0 type 1
|}
  in
  let p = PF.of_string text in
  Alcotest.(check int) "types" 2 (PB.num_types p);
  Alcotest.(check int) "recipes" 2 (PB.num_recipes p);
  Alcotest.(check int) "recipe 0 tasks" 2 (TG.num_tasks (PB.recipe p 0));
  Alcotest.(check (list (pair int int))) "edges" [ (0, 1) ] (TG.edges (PB.recipe p 0));
  Alcotest.(check int) "cost of type 1" 9 (Rentcost.Platform.cost (PB.platform p) 1)

let test_case_and_whitespace_insensitive () =
  let text = "TYPES 1\n  Type 0 Cost 3 Throughput 4\nRECIPE\n\tTask 0 Type 0\n" in
  let p = PF.of_string text in
  Alcotest.(check int) "parsed" 1 (PB.num_recipes p)

let test_errors () =
  let fails_with fragment text =
    match PF.of_string text with
    | exception Failure msg ->
      let contains =
        let n = String.length fragment and h = String.length msg in
        let rec go i = i + n <= h && (String.sub msg i n = fragment || go (i + 1)) in
        go 0
      in
      if not contains then
        Alcotest.failf "expected error mentioning %S, got %S" fragment msg
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "expected failure for %S" text
  in
  fails_with "missing 'types'" "recipe\n task 0 type 0\n";
  fails_with "not declared" "types 2\ntype 0 cost 1 throughput 1\nrecipe\ntask 0 type 0\n";
  fails_with "duplicate type" "types 1\ntype 0 cost 1 throughput 1\ntype 0 cost 2 throughput 2\n";
  fails_with "outside a recipe" "types 1\ntype 0 cost 1 throughput 1\ntask 0 type 0\n";
  fails_with "unknown directive" "types 1\ntype 0 cost 1 throughput 1\nbogus 1\n";
  fails_with "numbered 0..n-1"
    "types 1\ntype 0 cost 1 throughput 1\nrecipe\ntask 1 type 0\n";
  fails_with "expected an integer" "types x\n"

let test_error_line_numbers () =
  match PF.of_string "types 1\ntype 0 cost 1 throughput 1\nwat\n" with
  | exception Failure msg ->
    Alcotest.(check bool) "mentions line 3" true
      (String.length msg >= 6
      && (let contains =
            let fragment = "line 3" in
            let n = String.length fragment and h = String.length msg in
            let rec go i = i + n <= h && (String.sub msg i n = fragment || go (i + 1)) in
            go 0
          in
          contains))
  | _ -> Alcotest.fail "expected failure"

let test_file_io () =
  let path = Filename.temp_file "rentcost" ".problem" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (PF.to_string PB.illustrating));
  let p = PF.load path in
  Sys.remove path;
  Alcotest.(check bool) "load . save = id" true (same_problem p PB.illustrating)

let suite =
  ( "problem_format",
    [ Alcotest.test_case "roundtrip illustrating" `Quick test_roundtrip_illustrating;
      Alcotest.test_case "roundtrip generated" `Quick test_roundtrip_generated;
      Alcotest.test_case "hand written" `Quick test_hand_written;
      Alcotest.test_case "case/whitespace insensitive" `Quick
        test_case_and_whitespace_insensitive;
      Alcotest.test_case "errors" `Quick test_errors;
      Alcotest.test_case "error line numbers" `Quick test_error_line_numbers;
      Alcotest.test_case "file io" `Quick test_file_io ] )
