type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- printing --- *)

(* The shortest of %.15g, %.16g and %.17g that reads back to [f]
   (%.17g always does), with ".0" appended when the digits alone would
   parse back as an [Int]. *)
let float_text f =
  let rec shortest p =
    let s = Printf.sprintf "%.*g" p f in
    if p >= 17 || Float.equal (float_of_string s) f then s else shortest (p + 1)
  in
  let s = shortest 15 in
  if String.for_all (function '0' .. '9' | '-' -> true | _ -> false) s then
    s ^ ".0"
  else s

let escape_into b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let rec print_into b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> Buffer.add_string b (float_text f)
  | String s ->
    Buffer.add_char b '"';
    escape_into b s;
    Buffer.add_char b '"'
  | List items ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        print_into b v)
      items;
    Buffer.add_char b ']'
  | Obj fields ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_char b '"';
        escape_into b k;
        Buffer.add_string b "\":";
        print_into b v)
      fields;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 128 in
  print_into b v;
  Buffer.contents b

(* --- parsing: plain recursive descent over a cursor --- *)

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

(* The offset of the first '"' or '\\' at or after [i], or [n]. *)
let rec run_end s i n =
  if i = n then n
  else
    match String.unsafe_get s i with
    | '"' | '\\' -> i
    | _ -> run_end s (i + 1) n

(* A first guess at the decoded length: the distance to the string's
   closing quote, skipping escaped bytes. No escape lengthens its
   text, so the buffer never grows when the guess holds. *)
let rec raw_length s i n start =
  if i >= n then n - start
  else
    match String.unsafe_get s i with
    | '"' -> i - start
    | '\\' -> raw_length s (i + 2) n start
    | _ -> raw_length s (i + 1) n start

let add_escape c b =
  advance c;
  (* NUL stands for the end of input: both are a bad escape. *)
  let ch = if c.pos < String.length c.s then c.s.[c.pos] else '\000' in
  match ch with
  | '"' | '\\' | '/' -> Buffer.add_char b ch; advance c
  | 'n' -> Buffer.add_char b '\n'; advance c
  | 'r' -> Buffer.add_char b '\r'; advance c
  | 't' -> Buffer.add_char b '\t'; advance c
  | 'b' -> Buffer.add_char b '\b'; advance c
  | 'f' -> Buffer.add_char b '\012'; advance c
  | 'u' ->
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
  | _ -> fail c "bad escape"

(* Runs between escapes are copied whole: a string without escapes is
   one [String.sub], and one with escapes one [Buffer.add_substring]
   per run. *)
let parse_string c =
  expect c '"';
  let s = c.s and n = String.length c.s in
  let stop = run_end s c.pos n in
  if stop < n && String.unsafe_get s stop = '"' then begin
    let v = String.sub s c.pos (stop - c.pos) in
    c.pos <- stop + 1;
    v
  end
  else begin
    let b = Buffer.create (raw_length s c.pos n c.pos) in
    let rec loop stop =
      Buffer.add_substring b s c.pos (stop - c.pos);
      c.pos <- stop;
      if stop = n then fail c "unterminated string"
      else if String.unsafe_get s stop = '"' then advance c
      else begin
        add_escape c b;
        loop (run_end s c.pos n)
      end
    in
    loop stop;
    Buffer.contents b
  end

let parse_number c =
  let start = c.pos in
  let is_float = ref false in
  let consume () =
    match peek c with
    | Some ('0' .. '9' | '-' | '+') -> advance c; true
    | Some ('.' | 'e' | 'E') ->
      is_float := true;
      advance c;
      true
    | _ -> false
  in
  while consume () do () done;
  let text = String.sub c.s start (c.pos - start) in
  if !is_float then
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> fail c "bad number"
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
      (* Integer overflowing the native range: keep it as a float. *)
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail c "bad number")

let max_depth = 64

let rec parse_value c depth =
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some ('{' | '[') when depth >= max_depth ->
    fail c (Printf.sprintf "nesting deeper than %d" max_depth)
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then begin
      advance c;
      Obj []
    end
    else begin
      let rec fields acc =
        skip_ws c;
        let key = parse_string c in
        skip_ws c;
        expect c ':';
        let v = parse_value c (depth + 1) in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          fields ((key, v) :: acc)
        | Some '}' ->
          advance c;
          List.rev ((key, v) :: acc)
        | _ -> fail c "expected ',' or '}'"
      in
      Obj (fields [])
    end
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then begin
      advance c;
      List []
    end
    else begin
      let rec items acc =
        let v = parse_value c (depth + 1) in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          items (v :: acc)
        | Some ']' ->
          advance c;
          List.rev (v :: acc)
        | _ -> fail c "expected ',' or ']'"
      in
      List (items [])
    end
  | Some '"' -> String (parse_string c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> fail c (Printf.sprintf "unexpected '%c'" ch)

let of_string s =
  let c = { s; pos = 0 } in
  match parse_value c 0 with
  | v ->
    skip_ws c;
    if c.pos = String.length s then Ok v
    else Error (Printf.sprintf "trailing garbage at offset %d" c.pos)
  | exception Bad msg -> Error msg

(* --- accessors --- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int = function
  | Int i -> Some i
  | Float f when Float.is_integer f && Float.abs f <= 2.0 ** 52.0 ->
    Some (int_of_float f)
  | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_str = function String s -> Some s | _ -> None

let to_bool = function Bool b -> Some b | _ -> None

let get_string key v = Option.bind (member key v) to_str

let get_int key v = Option.bind (member key v) to_int
