let to_string problem =
  let buf = Buffer.create 512 in
  let platform = Problem.platform problem in
  let q_count = Problem.num_types problem in
  Buffer.add_string buf "version 1\n";
  Buffer.add_string buf (Printf.sprintf "types %d\n" q_count);
  for q = 0 to q_count - 1 do
    Buffer.add_string buf
      (Printf.sprintf "type %d cost %d throughput %d\n" q (Platform.cost platform q)
         (Platform.throughput platform q))
  done;
  Array.iter
    (fun recipe ->
      Buffer.add_string buf "recipe\n";
      for i = 0 to Task_graph.num_tasks recipe - 1 do
        Buffer.add_string buf
          (Printf.sprintf "  task %d type %d\n" i (Task_graph.type_of recipe i))
      done;
      List.iter
        (fun (a, b) -> Buffer.add_string buf (Printf.sprintf "  edge %d %d\n" a b))
        (Task_graph.edges recipe))
    (Problem.recipes problem);
  Buffer.contents buf

(* A growable int column. *)
type column = { mutable data : int array; mutable len : int }

let column () = { data = Array.make 64 0; len = 0 }

let push c x =
  if c.len = Array.length c.data then begin
    let bigger = Array.make (2 * c.len) 0 in
    Array.blit c.data 0 bigger 0 c.len;
    c.data <- bigger
  end;
  Array.unsafe_set c.data c.len x;
  c.len <- c.len + 1

(* The recipes read so far, flat: recipe [j] owns the tasks
   [(task_index, task_type)] from [task_from.(j)] and the edges
   [(edge_a, edge_b)] from [edge_from.(j)], each up to the next
   recipe's start. *)
type recipes = {
  task_from : column;
  edge_from : column;
  task_index : column;
  task_type : column;
  edge_a : column;
  edge_b : column;
}

let num_tasks r j =
  (if j + 1 = r.task_from.len then r.task_index.len
   else r.task_from.data.(j + 1))
  - r.task_from.data.(j)

let fail_whole msg = failwith ("Problem_format: " ^ msg)

(* The first task index that breaks the numbering 0..n-1 of recipe
   [j], or -1. The sorted indices first depart from 0,1,2,… at the
   first [k] that is missing (reported as [k]) or doubled (reported as
   [k + 1]); a negative index sorts first, so it is reported as 0. *)
let misnumbered r counts j =
  let first = r.task_from.data.(j) and n = num_tasks r j in
  Array.fill counts 0 n 0;
  let negative = ref false in
  for t = first to first + n - 1 do
    let i = r.task_index.data.(t) in
    if i < 0 then negative := true
    else if i < n then counts.(i) <- counts.(i) + 1
  done;
  if !negative then 0
  else begin
    let bad = ref (-1) and k = ref 0 in
    while !bad < 0 && !k < n do
      (match counts.(!k) with
       | 0 -> bad := !k
       | 1 -> ()
       | _ -> bad := !k + 1);
      incr k
    done;
    !bad
  end

let build_recipe r ~ntypes ~counts j =
  let bad = misnumbered r counts j in
  if bad >= 0 then
    fail_whole
      (Printf.sprintf
         "recipe tasks must be numbered 0..n-1 (missing or duplicate task %d)"
         bad);
  let first = r.task_from.data.(j) and n = num_tasks r j in
  let types = Array.make n 0 in
  for t = first to first + n - 1 do
    types.(r.task_index.data.(t)) <- r.task_type.data.(t)
  done;
  let stop =
    if j + 1 = r.edge_from.len then r.edge_a.len else r.edge_from.data.(j + 1)
  in
  let edges = ref [] in
  for e = stop - 1 downto r.edge_from.data.(j) do
    edges := (r.edge_a.data.(e), r.edge_b.data.(e)) :: !edges
  done;
  Task_graph.create ~ntypes ~types ~edges:!edges

let out_of_range q ntypes =
  Printf.sprintf "type %d out of range 0..%d" q (ntypes - 1)

(* One pass over the text with a {!Words} cursor. Tasks and edges go
   into flat int columns, and the recipes are built after the last
   line, last recipe first: every error that both this parser and one
   that first split the text into word lists report surfaces in the
   same order, with the same message. *)
let of_string text =
  let w = Words.create ~what:"Problem_format" ~fold_case:true text in
  let ntypes = ref (-1) in
  let machines = Hashtbl.create 8 in
  (* Type lines read before the [types] line, range-checked on it:
     (line, q), latest first. *)
  let early = ref [] in
  let r =
    { task_from = column (); edge_from = column (); task_index = column ();
      task_type = column (); edge_a = column (); edge_b = column () }
  in
  while Words.next_line w do
    let n = Words.count w in
    if n = 0 then ()
    else if n = 2 && Words.is w 0 "version" then begin
      let v = Words.int w 1 in
      if v <> 1 then
        Words.fail w
          (Printf.sprintf "unsupported problem format version %d (supported: 1)" v)
    end
    else if n = 2 && Words.is w 0 "types" then begin
      if !ntypes >= 0 then Words.fail w "duplicate 'types' declaration";
      let q_count = Words.int w 1 in
      if q_count <= 0 then Words.fail w "types must be positive";
      List.iter
        (fun (line, q) ->
          if q < 0 || q >= q_count then
            Words.fail_at w line (out_of_range q q_count))
        (List.rev !early);
      ntypes := q_count
    end
    else if
      n = 6 && Words.is w 0 "type" && Words.is w 2 "cost"
      && Words.is w 4 "throughput"
    then begin
      let q = Words.int w 1 in
      if !ntypes >= 0 && (q < 0 || q >= !ntypes) then
        Words.fail w (out_of_range q !ntypes);
      if Hashtbl.mem machines q then
        Words.fail w (Printf.sprintf "duplicate type %d" q);
      let throughput = Words.int w 5 in
      let cost = Words.int w 3 in
      if !ntypes < 0 then early := (Words.line w, q) :: !early;
      Hashtbl.replace machines q { Platform.cost; throughput }
    end
    else if n = 1 && Words.is w 0 "recipe" then begin
      push r.task_from r.task_index.len;
      push r.edge_from r.edge_a.len
    end
    else if n = 4 && Words.is w 0 "task" && Words.is w 2 "type" then begin
      if r.task_from.len = 0 then Words.fail w "'task' outside a recipe block";
      let q = Words.int w 3 in
      let i = Words.int w 1 in
      push r.task_index i;
      push r.task_type q
    end
    else if n = 3 && Words.is w 0 "edge" then begin
      if r.task_from.len = 0 then Words.fail w "'edge' outside a recipe block";
      let b = Words.int w 2 in
      let a = Words.int w 1 in
      push r.edge_a a;
      push r.edge_b b
    end
    else Words.fail w (Printf.sprintf "unknown directive %S" (Words.word w 0))
  done;
  if !ntypes < 0 then fail_whole "missing 'types' declaration";
  let ntypes = !ntypes in
  (* Every declared type lies in 0..ntypes-1 and is declared once, so
     fewer declarations than [ntypes] name a missing type, found
     without building an array of [ntypes]. *)
  if Hashtbl.length machines < ntypes then begin
    let q = ref 0 in
    while Hashtbl.mem machines !q do incr q done;
    fail_whole (Printf.sprintf "type %d not declared" !q)
  end;
  let platform = Platform.create (Array.init ntypes (Hashtbl.find machines)) in
  let largest = ref 0 in
  for j = 0 to r.task_from.len - 1 do
    largest := max !largest (num_tasks r j)
  done;
  let counts = Array.make !largest 0 in
  let recipes = ref [] in
  for j = r.task_from.len - 1 downto 0 do
    recipes := build_recipe r ~ntypes ~counts j :: !recipes
  done;
  Problem.create platform (Array.of_list !recipes)

let load path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  of_string text
