(* Largest-remainder weighted round-robin: each recipe accumulates
   credit proportional to its weight; the next item goes to the recipe
   with the highest pending credit. Deterministic tie-break by index. *)

type t = {
  weights : int array;
  weight_sum : int;
  credit : int array;  (* scaled by weight_sum to stay in integers *)
  counts : int array;
  mutable total : int;
}

let create ~weights =
  if Array.length weights = 0 then invalid_arg "Assign.create: no weights";
  Array.iter (fun w -> if w < 0 then invalid_arg "Assign.create: negative weight") weights;
  let weight_sum = Array.fold_left ( + ) 0 weights in
  if weight_sum = 0 then invalid_arg "Assign.create: all weights are zero";
  { weights = Array.copy weights;
    weight_sum;
    credit = Array.make (Array.length weights) 0;
    counts = Array.make (Array.length weights) 0;
    total = 0 }

let next t =
  let best = ref (-1) in
  Array.iteri
    (fun j w ->
      t.credit.(j) <- t.credit.(j) + w;
      if !best < 0 || t.credit.(j) > t.credit.(!best) then best := j)
    t.weights;
  let j = !best in
  t.credit.(j) <- t.credit.(j) - t.weight_sum;
  t.counts.(j) <- t.counts.(j) + 1;
  t.total <- t.total + 1;
  j

let counts t = Array.copy t.counts
