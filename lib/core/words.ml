type t = {
  text : string;
  what : string;
  fold_case : bool;
  mutable line : int;
  mutable next : int;
  mutable count : int;
  starts : int array;
  stops : int array;
}

let max_words = 8

let create ~what ~fold_case text =
  { text; what; fold_case; line = 0; next = 0; count = 0;
    starts = Array.make max_words 0; stops = Array.make max_words 0 }

let line t = t.line
let count t = t.count

let add_word t start stop =
  if t.count < max_words then begin
    Array.unsafe_set t.starts t.count start;
    Array.unsafe_set t.stops t.count stop
  end;
  t.count <- t.count + 1

(* One pass over the line's bytes: words end at a space, a tab, a [#]
   (the rest of the line is a comment) or the newline. Only the first
   [max_words] boundaries are kept; [count] is exact. *)
let next_line t =
  let s = t.text and n = String.length t.text in
  if t.next > n then false
  else begin
    t.line <- t.line + 1;
    t.count <- 0;
    let i = ref t.next and start = ref (-1) and comment = ref false in
    while !i < n && String.unsafe_get s !i <> '\n' do
      (if not !comment then
         match String.unsafe_get s !i with
         | (' ' | '\t' | '#') as c ->
           if !start >= 0 then begin
             add_word t !start !i;
             start := -1
           end;
           if c = '#' then comment := true
         | _ -> if !start < 0 then start := !i);
      incr i
    done;
    if !start >= 0 then add_word t !start !i;
    t.next <- !i + 1;
    true
  end

let fail t msg =
  failwith (Printf.sprintf "%s: line %d: %s" t.what t.line msg)

let fail_at t line msg =
  failwith (Printf.sprintf "%s: line %d: %s" t.what line msg)

let word t k =
  let w = String.sub t.text t.starts.(k) (t.stops.(k) - t.starts.(k)) in
  if t.fold_case then String.lowercase_ascii w else w

let rec same_bytes text a word ~fold i =
  i = String.length word
  ||
  let c = String.unsafe_get text (a + i) in
  let c = if fold then Char.lowercase_ascii c else c in
  c = String.unsafe_get word i && same_bytes text a word ~fold (i + 1)

let equal_at t k ~fold word =
  t.stops.(k) - t.starts.(k) = String.length word
  && same_bytes t.text t.starts.(k) word ~fold 0

let is t k word = equal_at t k ~fold:t.fold_case word
let is_keyword t k keyword = equal_at t k ~fold:true keyword

(* The value of the decimal digits in [s.[i..stop-1]] on top of
   [acc], or -1 at the first non-digit. *)
let rec decimal s i stop acc =
  if i = stop then acc
  else
    match String.unsafe_get s i with
    | '0' .. '9' as c -> decimal s (i + 1) stop ((acc * 10) + Char.code c - 48)
    | _ -> -1

(* Plain decimals of up to 18 digits cannot overflow and are read
   straight from the bytes. Anything else (a sign of '+', a base
   prefix, '_' separators, more digits) goes to [int_of_string_opt],
   so the accepted forms and the overflow behaviour are OCaml's. *)
let int t k =
  let s = t.text and a = t.starts.(k) and b = t.stops.(k) in
  let first = if String.unsafe_get s a = '-' then a + 1 else a in
  let v = if b > first && b - first <= 18 then decimal s first b 0 else -1 in
  if v >= 0 then if first > a then -v else v
  else
    let w = word t k in
    match int_of_string_opt w with
    | Some v -> v
    | None -> fail t (Printf.sprintf "expected an integer, got %S" w)
