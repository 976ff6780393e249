(* The wire decoders against the code they replaced: the single-pass
   problem and price-book scanners and the run-copying JSON string
   decoder must accept the same language, return the same values and
   fail with the same messages as the reference decoders in
   [Reference_decoders]. The two validation rules the problem scanner
   adds, the JSON nesting bound and the price book's gap and zero-price
   checks are pinned separately. *)

module PF = Rentcost.Problem_format
module Pb = Rentcost.Pricebook
module J = Rentcost_service.Json
module Ref = Reference_decoders

let prop ?(count = 500) ~print name gen f =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name ~print gen f)

let contains ~sub s =
  let n = String.length sub and h = String.length s in
  let rec go i = i + n <= h && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* What a parser did with a text: its value rendered back to text, or
   the exception it raised. *)
let outcome render parse text =
  match parse text with
  | v -> "ok: " ^ render v
  | exception e -> "raised: " ^ Printexc.to_string e

(* --- text mutations shared by both line formats --- *)

let pick rs l = List.nth l (Random.State.int rs (List.length l))

let words line =
  List.filter (( <> ) "") (String.split_on_char ' ' line)

let is_decimal w =
  w <> "" && String.for_all (function '0' .. '9' -> true | _ -> false) w

(* Another spelling of the non-negative decimal [n] (spelt [w]): one
   that reads as the same int ([0x], [0o], [+], [_], leading zeros) or
   one that overflows. *)
let respell rs w n =
  match Random.State.int rs 6 with
  | 0 -> Printf.sprintf "0x%x" n
  | 1 -> Printf.sprintf "0o%o" n
  | 2 -> "+" ^ w
  | 3 when String.length w >= 2 -> String.sub w 0 1 ^ "_" ^ String.sub w 1 (String.length w - 1)
  | 4 -> "00" ^ w
  | _ -> w ^ "000000000000000000000"

let random_case rs s =
  String.map
    (fun c ->
      if Random.State.bool rs then Char.uppercase_ascii c
      else Char.lowercase_ascii c)
    s

let gap rs = pick rs [ " "; "  "; "\t"; " \t "; "\t\t" ]

(* Some numbers unreadable: which one is reported first? *)
let junk_numbers rs ws =
  String.concat " "
    (List.map (fun w -> if is_decimal w && Random.State.bool rs then w ^ "z" else w) ws)

(* One mutation of one line, given as its words. *)
let mutate_line rs ws =
  match Random.State.int rs 10 with
  | 0 -> String.concat " " (List.map (random_case rs) ws)
  | 1 -> gap rs ^ String.concat (gap rs) ws ^ gap rs
  | 2 -> String.concat " " ws ^ pick rs [ " # note"; "#x 1 2"; "\t# type 9" ]
  | 3 ->
    String.concat " "
      (List.map
         (fun w ->
           if is_decimal w && Random.State.bool rs then
             (* An earlier mutation may already have pushed [w] past
                [max_int]; only a word that reads as an int respells. *)
             match int_of_string_opt w with
             | Some n -> respell rs w n
             | None -> w
           else w)
         ws)
  | 4 -> (* wrong arity: drop a word *)
    String.concat " " (List.filteri (fun i _ -> i <> Random.State.int rs (max 1 (List.length ws))) ws)
  | 5 -> String.concat " " (ws @ [ pick rs [ "1"; "x"; "type" ] ])
  | 6 -> String.concat " " ws ^ "\r"
  | 7 -> (
    match ws with
    | _ :: rest -> String.concat " " (pick rs [ "bogus"; "Recipes"; "typo" ] :: rest)
    | [] -> "bogus")
  | 8 -> junk_numbers rs ws
  | _ -> "# " ^ String.concat " " ws

(* Apply a few line-level mutations: mutate a line, insert a blank or
   comment line, delete, duplicate or move a line. *)
let mutate_text rs text =
  let lines = ref (Array.of_list (String.split_on_char '\n' text)) in
  let n () = Array.length !lines in
  for _ = 1 to 1 + Random.State.int rs 3 do
    let l = Array.to_list !lines in
    let i = Random.State.int rs (max 1 (n ())) in
    let insert_at k x = List.filteri (fun j _ -> j < k) l @ (x :: List.filteri (fun j _ -> j >= k) l) in
    let l =
      match Random.State.int rs 7 with
      | 0 | 1 -> List.mapi (fun j line -> if j = i then mutate_line rs (words line) else line) l
      | 6 ->
        (* The first lines (types, prices) carry the most numbers. *)
        let i = Random.State.int rs (min 8 (n ())) in
        List.mapi (fun j line -> if j = i then junk_numbers rs (words line) else line) l
      | 2 -> insert_at i (pick rs [ ""; "   "; "# comment"; "\t# recipe" ])
      | 3 -> List.filteri (fun j _ -> j <> i) l
      | 4 -> insert_at i (List.nth l i)
      | _ ->
        let line = List.nth l i in
        let rest = List.filteri (fun j _ -> j <> i) l in
        let k = Random.State.int rs (List.length rest + 1) in
        List.filteri (fun j _ -> j < k) rest @ (line :: List.filteri (fun j _ -> j >= k) rest)
    in
    lines := Array.of_list l
  done;
  String.concat "\n" (Array.to_list !lines)

(* --- problem text --- *)

let problem_of_seed seed =
  let rs = Random.State.make [| seed |] in
  Cloudsim.Generator.problem ~rng:(Numeric.Prng.create seed)
    { Cloudsim.Generator.num_graphs = 1 + Random.State.int rs 4; min_tasks = 1;
      max_tasks = 1 + Random.State.int rs 5; mutation_pct = 0.5 }
    { Cloudsim.Generator.num_types = 1 + Random.State.int rs 4; min_cost = 1;
      max_cost = 50; min_throughput = 1; max_throughput = 40 }

(* A type line's index is never rewritten, so no mutation reaches the
   two rules only the new scanner enforces (they are pinned below). *)
let mutated_problem seed =
  let rs = Random.State.make [| seed; 17 |] in
  let text = PF.to_string (problem_of_seed seed) in
  if Random.State.int rs 10 = 0 then text else mutate_text rs text

let prop_problem_text =
  prop "problem text: same problem or same error as the reference"
    ~print:mutated_problem QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let text = mutated_problem seed in
      let mine = outcome PF.to_string PF.of_string text
      and theirs = outcome PF.to_string Ref.Problem_text.of_string text in
      if mine <> theirs then
        QCheck2.Test.fail_reportf "scanner %s@.reference %s" mine theirs;
      true)

let fails_with ~sub text =
  match PF.of_string text with
  | _ -> Alcotest.failf "expected a failure for %S" text
  | exception Failure msg ->
    if not (contains ~sub msg) then
      Alcotest.failf "expected %S in the error, got %S" sub msg

let test_huge_types_fail_before_allocating () =
  let text = "types 1000000000\ntype 0 cost 1 throughput 1\nrecipe\ntask 0 type 0\n" in
  (* A window that holds a minor collection over-reads
     [Gc.allocated_bytes] by up to about 2 MB; collecting first keeps
     the parse's own allocation the only thing measured. *)
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  fails_with ~sub:"Problem_format: type 1 not declared" text;
  let grew = Gc.allocated_bytes () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "allocated under 1 MB (%.0f bytes)" grew)
    true (grew < 1e6);
  Alcotest.(check bool) "fails fast" true (Unix.gettimeofday () -. t0 < 0.5)

let test_type_lines_out_of_range () =
  let recipe = "recipe\ntask 0 type 0\n" in
  let after = "types 1\ntype 0 cost 1 throughput 1\ntype 5 cost 2 throughput 2\n" ^ recipe in
  let negative = "types 1\ntype 0 cost 1 throughput 1\ntype -2 cost 2 throughput 2\n" ^ recipe in
  (* Before [types], the line is checked once the count is known, and
     still reported at its own line. *)
  let before = "type 0 cost 1 throughput 1\ntype 3 cost 2 throughput 2\n# n\ntypes 2\n" ^ recipe in
  (* The reference silently dropped all three lines. *)
  List.iter
    (fun text ->
      Alcotest.(check int) "the reference accepted it" 1
        (Rentcost.Problem.num_recipes (Ref.Problem_text.of_string text)))
    [ after; negative ];
  fails_with ~sub:"line 3: type 5 out of range 0..0" after;
  fails_with ~sub:"line 3: type -2 out of range 0..0" negative;
  fails_with ~sub:"line 2: type 3 out of range 0..1" before

(* --- JSON strings --- *)

(* A JSON string literal's body: long plain runs, every escape, \u
   escapes with valid and broken surrogate pairs, and raw bytes
   (quotes and backslashes included). *)
let json_body rs =
  let b = Buffer.create 64 in
  for _ = 1 to Random.State.int rs 12 do
    Buffer.add_string b
      (match Random.State.int rs 8 with
       | 0 -> String.make (1 + Random.State.int rs 300) (pick rs [ 'a'; ' '; '#'; '\t' ])
       | 1 -> pick rs [ {|\"|}; {|\\|}; {|\/|}; {|\n|}; {|\r|}; {|\t|}; {|\b|}; {|\f|} ]
       | 2 -> Printf.sprintf "\\u%04x" (Random.State.int rs 0x10000)
       | 3 ->
         Printf.sprintf "\\u%04X\\u%04x"
           (0xD800 + Random.State.int rs 0x400)
           (pick rs [ 0xDC00 + Random.State.int rs 0x400; Random.State.int rs 0x10000 ])
       | 4 -> pick rs [ {|\x|}; {|\u12|}; {|\uZZZZ|}; {|\uD800x|}; "\\" ]
       | 5 -> String.make 1 (Char.chr (Random.State.int rs 256))
       | _ -> String.init (Random.State.int rs 20) (fun _ -> Char.chr (32 + Random.State.int rs 95)))
  done;
  Buffer.contents b

let json_literal seed =
  let rs = Random.State.make [| seed; 29 |] in
  let body = json_body rs in
  pick rs [ "\""; " \"" ] ^ body
  ^ pick rs [ "\""; "\""; "\" "; "\"x"; "" ]

let prop_json_strings =
  prop "json strings: same value or same error as the reference"
    ~print:json_literal QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let line = json_literal seed in
      let mine =
        match J.of_string line with
        | Ok (J.String s) -> Ok s
        | Ok _ -> Error "not a string"
        | Error e -> Error e
      in
      if mine <> Ref.Json_string.of_string line then
        QCheck2.Test.fail_reportf "disagree on %S" line;
      true)

let prop_json_roundtrip =
  prop "json strings: of_string (to_string (String s)) = Ok (String s)"
    ~print:(fun s -> Printf.sprintf "%S" s)
    QCheck2.Gen.(string_size ~gen:char (int_range 0 400))
    (fun s -> J.of_string (J.to_string (J.String s)) = Ok (J.String s))

let nested depth = String.make depth '[' ^ String.make depth ']'

let test_nesting_bound () =
  let limit = 64 (* the documented bound of [Json.of_string] *) in
  (match J.of_string (nested limit) with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "depth %d rejected: %s" limit e);
  (match J.of_string ({|{"a":|} ^ nested (limit - 1) ^ "}") with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "object at depth %d rejected: %s" limit e);
  let deeper = Printf.sprintf "nesting deeper than %d at offset %d" limit limit in
  Alcotest.(check (result reject string)) "one past the limit" (Error deeper)
    (Result.map (fun _ -> ()) (J.of_string (nested (limit + 1))));
  (* A hostile line is rejected at the limit, not after recursing
     through it. *)
  let t0 = Unix.gettimeofday () in
  Alcotest.(check (result reject string)) "a million brackets" (Error deeper)
    (Result.map (fun _ -> ()) (J.of_string (String.make 1_000_000 '[')));
  Alcotest.(check bool) "rejected fast" true (Unix.gettimeofday () -. t0 < 0.5)

(* --- price books --- *)

let pricebook_of_seed seed =
  let rs = Random.State.make [| seed; 41 |] in
  let types = 1 + Random.State.int rs 4 in
  Pb.create
    (List.init (1 + Random.State.int rs 3) (fun i ->
         { Pb.book_name = pick rs [ "us-east"; "EU-West"; "spot" ] ^ string_of_int i;
           region = (if Random.State.bool rs then Some (pick rs [ "us-east-1"; "AP-South" ]) else None);
           prices = Array.init types (fun _ -> 1 + Random.State.int rs 60);
           tiers =
             List.init (Random.State.int rs 3) (fun k ->
                 { Pb.tier_name = pick rs [ "reserved"; "Spot" ] ^ string_of_int k;
                   percent = 1 + Random.State.int rs 99 }) }))

let mutated_pricebook seed =
  let rs = Random.State.make [| seed; 43 |] in
  let text = Pb.to_string (pricebook_of_seed seed) in
  if Random.State.int rs 10 = 0 then text else mutate_text rs text

let prop_pricebook_text =
  prop "pricebook text: same book or same error as the reference"
    ~print:mutated_pricebook QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let text = mutated_pricebook seed in
      let mine = outcome Pb.to_string Pb.of_string text
      and theirs = outcome Pb.to_string Ref.Pricebook_text.of_string text in
      if mine <> theirs then
        QCheck2.Test.fail_reportf "scanner %s@.reference %s" mine theirs;
      true)

let pricebook_fails ~exn text =
  match Pb.of_string text with
  | _ -> Alcotest.failf "expected a failure for %S" text
  | exception e ->
    Alcotest.(check string) "the error" (Printexc.to_string exn)
      (Printexc.to_string e)

let test_huge_price_type_fails_before_allocating () =
  let text = "pricebook version 1\nbook big\nprice 1000000000 5\n" in
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  pricebook_fails text
    ~exn:(Failure "Pricebook: book \"big\": missing price for type 0");
  let grew = Gc.allocated_bytes () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "allocated under 1 MB (%.0f bytes)" grew)
    true (grew < 1e6);
  (* The smallest gap is named, whatever lies above it. *)
  pricebook_fails "book b\nprice 0 3\nprice 2 4\nprice 1000000000 5\n"
    ~exn:(Failure "Pricebook: book \"b\": missing price for type 1")

let test_zero_price_is_non_positive () =
  pricebook_fails "book b\nprice 0 0\n"
    ~exn:(Invalid_argument "Pricebook.create: book \"b\" has a non-positive price")

let suite =
  ( "decode",
    [ prop_problem_text;
      Alcotest.test_case "types beyond the declared lines fail before allocating"
        `Quick test_huge_types_fail_before_allocating;
      Alcotest.test_case "type lines out of range are rejected" `Quick
        test_type_lines_out_of_range;
      prop_json_strings;
      prop_json_roundtrip;
      Alcotest.test_case "json nesting bound" `Quick test_nesting_bound;
      prop_pricebook_text;
      Alcotest.test_case "price-book type beyond its lines fails before allocating"
        `Quick test_huge_price_type_fails_before_allocating;
      Alcotest.test_case "a zero price is non-positive, not missing" `Quick
        test_zero_price_is_non_positive ] )
