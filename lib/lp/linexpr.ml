module K = Numeric.Kernel

type t = { terms : (int * int) list; const : int }
(* Invariant: [terms] sorted by strictly increasing variable index,
   every coefficient non-zero. *)

let zero = { terms = []; const = 0 }
let constant k = { terms = []; const = k }

let var ?(coeff = 1) v =
  if v < 0 then invalid_arg "Linexpr.var: negative variable index";
  if coeff = 0 then zero else { terms = [ (v, coeff) ]; const = 0 }

(* Merge two sorted term lists, summing coefficients and dropping zeros. *)
let rec merge a b =
  match (a, b) with
  | [], rest | rest, [] -> rest
  | ((va, ca) as ha) :: ta, ((vb, cb) as hb) :: tb ->
    if va < vb then ha :: merge ta b
    else if vb < va then hb :: merge a tb
    else begin
      let c = K.add_exn ca cb in
      if c = 0 then merge ta tb else (va, c) :: merge ta tb
    end

let of_terms ?(const = 0) pairs =
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) pairs in
  (* Fold runs of equal variables. *)
  let rec fold = function
    | [] -> []
    | (v, c) :: rest ->
      let rec take acc = function
        | (v', c') :: tl when v' = v -> take (K.add_exn acc c') tl
        | tl -> (acc, tl)
      in
      let total, tl = take c rest in
      if total = 0 then fold tl else (v, total) :: fold tl
  in
  List.iter (fun (v, _) -> if v < 0 then invalid_arg "Linexpr.of_terms: negative index") pairs;
  { terms = fold sorted; const }

let terms t = t.terms
let const t = t.const

let neg t =
  { terms = List.map (fun (v, c) -> (v, K.neg_exn c)) t.terms; const = K.neg_exn t.const }

let sub a b =
  let b = neg b in
  { terms = merge a.terms b.terms; const = K.add_exn a.const b.const }

let eval t values =
  List.fold_left
    (fun acc (v, c) ->
      if v >= Array.length values then invalid_arg "Linexpr.eval: variable out of bounds";
      K.add_exn acc (K.mul_exn c values.(v)))
    t.const t.terms

let max_var t = List.fold_left (fun acc (v, _) -> max acc v) (-1) t.terms

let pp fmt t =
  let pp_term first fmt (v, c) =
    if c >= 0 && not first then Format.fprintf fmt " + ";
    if c < 0 then Format.fprintf fmt (if first then "-" else " - ");
    let a = abs c in
    if a = 1 then Format.fprintf fmt "x%d" v else Format.fprintf fmt "%d·x%d" a v
  in
  match t.terms with
  | [] -> Format.pp_print_int fmt t.const
  | first :: rest ->
    pp_term true fmt first;
    List.iter (pp_term false fmt) rest;
    if t.const > 0 then Format.fprintf fmt " + %d" t.const
    else if t.const < 0 then Format.fprintf fmt " - %d" (abs t.const)
