(* Reference decoders for the differential tests in [Test_decode]: the
   line-splitting problem and price-book parsers and the byte-at-a-time
   JSON string decoder that the single-pass scanners replaced, kept
   verbatim apart from the module paths. They define the accepted
   language and the error messages the replacements must reproduce. *)

open Rentcost

(* --- problem text: split into lines, then into lowercased words --- *)

module Problem_text = struct
  (* One recipe under construction. *)
  type partial_recipe = { mutable tasks : (int * int) list; mutable edges : (int * int) list }

  let of_string text =
    let fail line msg = failwith (Printf.sprintf "Problem_format: line %d: %s" line msg) in
    let lines = String.split_on_char '\n' text in
    let ntypes = ref (-1) in
    let machines = Hashtbl.create 8 in
    let recipes = ref [] in
    let current = ref None in
    let parse_int line s =
      match int_of_string_opt s with
      | Some n -> n
      | None -> fail line (Printf.sprintf "expected an integer, got %S" s)
    in
    List.iteri
      (fun idx raw ->
        let line = idx + 1 in
        let no_comment =
          match String.index_opt raw '#' with
          | Some i -> String.sub raw 0 i
          | None -> raw
        in
        let words =
          String.split_on_char ' ' (String.map (fun c -> if c = '\t' then ' ' else c) no_comment)
          |> List.filter (fun w -> w <> "")
          |> List.map String.lowercase_ascii
        in
        match words with
        | [] -> ()
        | [ "version"; v ] ->
          let v = parse_int line v in
          if v <> 1 then
            fail line
              (Printf.sprintf "unsupported problem format version %d (supported: 1)" v)
        | [ "types"; n ] ->
          if !ntypes >= 0 then fail line "duplicate 'types' declaration";
          let n = parse_int line n in
          if n <= 0 then fail line "types must be positive";
          ntypes := n
        | [ "type"; q; "cost"; c; "throughput"; r ] ->
          let q = parse_int line q in
          if Hashtbl.mem machines q then fail line (Printf.sprintf "duplicate type %d" q);
          Hashtbl.replace machines q
            { Platform.cost = parse_int line c; throughput = parse_int line r }
        | [ "recipe" ] ->
          (match !current with
           | Some r -> recipes := r :: !recipes
           | None -> ());
          current := Some { tasks = []; edges = [] }
        | [ "task"; i; "type"; q ] ->
          (match !current with
           | None -> fail line "'task' outside a recipe block"
           | Some r -> r.tasks <- (parse_int line i, parse_int line q) :: r.tasks)
        | [ "edge"; a; b ] ->
          (match !current with
           | None -> fail line "'edge' outside a recipe block"
           | Some r -> r.edges <- (parse_int line a, parse_int line b) :: r.edges)
        | w :: _ -> fail line (Printf.sprintf "unknown directive %S" w))
      lines;
    (match !current with Some r -> recipes := r :: !recipes | None -> ());
    if !ntypes < 0 then failwith "Problem_format: missing 'types' declaration";
    let platform =
      Platform.create
        (Array.init !ntypes (fun q ->
             match Hashtbl.find_opt machines q with
             | Some m -> m
             | None -> failwith (Printf.sprintf "Problem_format: type %d not declared" q)))
    in
    let build_recipe r =
      let tasks = List.sort compare (List.rev r.tasks) in
      List.iteri
        (fun expected (i, _) ->
          if i <> expected then
            failwith
              (Printf.sprintf "Problem_format: recipe tasks must be numbered 0..n-1 \
                               (missing or duplicate task %d)" expected))
        tasks;
      let types = Array.of_list (List.map snd tasks) in
      Task_graph.create ~ntypes:!ntypes ~types ~edges:(List.rev r.edges)
    in
    Problem.create platform (Array.of_list (List.rev_map build_recipe !recipes))
end

(* --- price-book text: the same tokenizer, case kept --- *)

module Pricebook_text = struct
  open Pricebook

  type partial_book = {
    pb_name : string;
    mutable pb_region : string option;
    mutable pb_prices : (int * int) list;  (* (type, price), reversed *)
    mutable pb_tiers : tier list;  (* reversed *)
  }

  let of_string text =
    let fail line msg =
      failwith (Printf.sprintf "Pricebook: line %d: %s" line msg)
    in
    let books = ref [] in
    let current = ref None in
    let parse_int line s =
      match int_of_string_opt s with
      | Some n -> n
      | None -> fail line (Printf.sprintf "expected an integer, got %S" s)
    in
    let close () =
      match !current with
      | None -> ()
      | Some pb ->
        let n =
          List.fold_left (fun acc (q, _) -> max acc (q + 1)) 0 pb.pb_prices
        in
        let prices = Array.make (max n 1) 0 in
        List.iter (fun (q, p) -> prices.(q) <- p) pb.pb_prices;
        Array.iteri
          (fun q p ->
            if p = 0 then
              failwith
                (Printf.sprintf "Pricebook: book %S: missing price for type %d"
                   pb.pb_name q))
          prices;
        books :=
          {
            book_name = pb.pb_name;
            region = pb.pb_region;
            prices;
            tiers = List.rev pb.pb_tiers;
          }
          :: !books;
        current := None
    in
    List.iteri
      (fun idx raw ->
        let line = idx + 1 in
        let no_comment =
          match String.index_opt raw '#' with
          | Some i -> String.sub raw 0 i
          | None -> raw
        in
        let words =
          String.split_on_char ' '
            (String.map (fun c -> if c = '\t' then ' ' else c) no_comment)
          |> List.filter (fun w -> w <> "")
        in
        match words with
        | [] -> ()
        | [ k; "version"; v ] when String.lowercase_ascii k = "pricebook" ->
          let v = parse_int line v in
          if v <> 1 then
            fail line
              (Printf.sprintf "unsupported pricebook version %d (supported: 1)" v)
        | k :: name when String.lowercase_ascii k = "book" ->
          (match name with
           | [ name ] ->
             close ();
             current :=
               Some
                 { pb_name = name; pb_region = None; pb_prices = []; pb_tiers = [] }
           | _ -> fail line "'book' takes exactly one name")
        | [ k; r ] when String.lowercase_ascii k = "region" -> (
          match !current with
          | None -> fail line "'region' outside a book block"
          | Some pb -> pb.pb_region <- Some r)
        | [ k; q; p ] when String.lowercase_ascii k = "price" -> (
          match !current with
          | None -> fail line "'price' outside a book block"
          | Some pb ->
            let q = parse_int line q and p = parse_int line p in
            if q < 0 then fail line "negative type index";
            if List.mem_assoc q pb.pb_prices then
              fail line (Printf.sprintf "duplicate price for type %d" q);
            pb.pb_prices <- (q, p) :: pb.pb_prices)
        | [ k; name; pct ] when String.lowercase_ascii k = "tier" -> (
          match !current with
          | None -> fail line "'tier' outside a book block"
          | Some pb ->
            pb.pb_tiers <-
              { tier_name = name; percent = parse_int line pct } :: pb.pb_tiers)
        | w :: _ -> fail line (Printf.sprintf "unknown directive %S" w))
      (String.split_on_char '\n' text);
    close ();
    if !books = [] then failwith "Pricebook: no books declared";
    create (List.rev !books)
end

(* --- JSON strings: one [peek] and one [Buffer.add_char] per byte --- *)

module Json_string = struct
  exception Bad of string

  type cursor = {
    s : string;
    mutable pos : int;
  }

  let fail c msg = raise (Bad (Printf.sprintf "%s at offset %d" msg c.pos))

  let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

  let advance c = c.pos <- c.pos + 1

  let skip_ws c =
    while
      match peek c with
      | Some (' ' | '\t' | '\n' | '\r') -> true
      | _ -> false
    do
      advance c
    done

  let expect c ch =
    match peek c with
    | Some x when x = ch -> advance c
    | _ -> fail c (Printf.sprintf "expected '%c'" ch)

  let literal c word value =
    if
      c.pos + String.length word <= String.length c.s
      && String.sub c.s c.pos (String.length word) = word
    then begin
      c.pos <- c.pos + String.length word;
      value
    end
    else fail c (Printf.sprintf "expected %s" word)

  (* Encode one Unicode scalar value as UTF-8. *)
  let add_utf8 b u =
    if u < 0x80 then Buffer.add_char b (Char.chr u)
    else if u < 0x800 then begin
      Buffer.add_char b (Char.chr (0xC0 lor (u lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (u land 0x3F)))
    end
    else if u < 0x10000 then begin
      Buffer.add_char b (Char.chr (0xE0 lor (u lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (u land 0x3F)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xF0 lor (u lsr 18)));
      Buffer.add_char b (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (u land 0x3F)))
    end

  let hex4 c =
    let digit ch =
      match ch with
      | '0' .. '9' -> Char.code ch - Char.code '0'
      | 'a' .. 'f' -> Char.code ch - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code ch - Char.code 'A' + 10
      | _ -> fail c "bad \\u escape"
    in
    let v = ref 0 in
    for _ = 1 to 4 do
      (match peek c with
       | Some ch ->
         v := (!v * 16) + digit ch;
         advance c
       | None -> fail c "truncated \\u escape")
    done;
    !v

  let parse_string c =
    expect c '"';
    let b = Buffer.create 16 in
    let rec loop () =
      match peek c with
      | None -> fail c "unterminated string"
      | Some '"' -> advance c
      | Some '\\' ->
        advance c;
        (match peek c with
         | Some '"' -> Buffer.add_char b '"'; advance c
         | Some '\\' -> Buffer.add_char b '\\'; advance c
         | Some '/' -> Buffer.add_char b '/'; advance c
         | Some 'n' -> Buffer.add_char b '\n'; advance c
         | Some 'r' -> Buffer.add_char b '\r'; advance c
         | Some 't' -> Buffer.add_char b '\t'; advance c
         | Some 'b' -> Buffer.add_char b '\b'; advance c
         | Some 'f' -> Buffer.add_char b '\012'; advance c
         | Some 'u' ->
           advance c;
           let u = hex4 c in
           (* Surrogate pairs: a high surrogate must be followed by
              [\uDC00-\uDFFF]; combine into one scalar. *)
           if u >= 0xD800 && u <= 0xDBFF then begin
             expect c '\\';
             expect c 'u';
             let lo = hex4 c in
             if lo < 0xDC00 || lo > 0xDFFF then fail c "bad surrogate pair";
             add_utf8 b (0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00))
           end
           else add_utf8 b u
         | _ -> fail c "bad escape");
        loop ()
      | Some ch ->
        Buffer.add_char b ch;
        advance c;
        loop ()
    in
    loop ();
    Buffer.contents b

  (* [of_string] restricted to inputs whose value is a string. *)
  let of_string s =
    let c = { s; pos = 0 } in
    match
      skip_ws c;
      match peek c with
      | None -> fail c "unexpected end of input"
      | Some '"' -> parse_string c
      | Some ch -> fail c (Printf.sprintf "unexpected '%c'" ch)
    with
    | v ->
      skip_ws c;
      if c.pos = String.length s then Ok v
      else Error (Printf.sprintf "trailing garbage at offset %d" c.pos)
    | exception Bad msg -> Error msg
end
