(* Two-phase primal simplex on a dense tableau, in two exact
   representations that make the same pivot decisions.

   Layout: the tableau has one row per constraint; each row has
   [ncols + 1] entries, the last being the right-hand side. [basis.(i)]
   is the column currently basic in row [i]. Bland's rule
   (smallest-index entering and leaving) guarantees termination even on
   degenerate bases.

   [solve] runs the fraction-free native-int engine ({!Fraction_free})
   and reruns that one relaxation on the exact Rat engine ({!Exact})
   when the native range overflows. Both run one two-phase driver
   ({!Two_phase}) and bring only their arithmetic to it. Every
   entering/leaving decision of both engines depends only on exact
   signs and comparisons, so they walk the same pivot sequence and
   return bit-identical results: which engine answered shows only in
   the [numeric.*] counters and the [lp.kernel] span attribute. The
   overflow never leaves this module: a child is solved {!cold} when
   its warm solve overflows or the exact engine answered its root.

   A model minimizes over [>=]/[<=] rows with non-negative
   right-hand sides and native-int data ({!Model}), so a cold
   tableau's rows are its rows as they stand, every initial scale is
   1, and the objective's costs are the cost row itself; branch bounds
   are ints too. Rat is left for what is rational by nature: an exact
   objective, a reduced cost confirmed exactly, the {!Exact} engine
   and an LP {!solution}.

   The branch and bound reads a fraction-free answer without
   canonicalizing it ({!relaxation}): the point as each row's own
   [(rhs, scale)] pair, and the objective as a float interval around
   a sum of native fractions that is made exact only on demand. *)

module R = Numeric.Rat
module B = Numeric.Bigint

let fast_solves_counter = Telemetry.counter Telemetry.numeric_fast_solves
let fallbacks_counter = Telemetry.counter Telemetry.numeric_fallbacks
let warm_nodes_counter = Telemetry.counter Telemetry.milp_warm_nodes
let exact_objectives_counter = Telemetry.counter Telemetry.lp_exact_objectives

let rec gcd_int a b = if b = 0 then a else gcd_int b (a mod b)

(* An exact sum of native fractions [a/b] (b > 0). Partial sums add
   as {!R.t} in [small] while they stay small ([den] is zero then);
   past that the sum is [num / den], kept over a common multiple of
   the denominators so far, so no step takes a gcd of two Bigints
   and one canonicalization ends it. *)
type sum = { mutable small : R.t; mutable num : B.t; mutable den : B.t }

let add_fraction acc a b =
  if B.is_zero acc.den then begin
    let s = R.add acc.small (R.of_ints a b) in
    if R.to_small s <> None then acc.small <- s
    else begin
      acc.num <- R.num s;
      acc.den <- R.den s
    end
  end
  else begin
    let g = gcd_int (B.to_int_exn (B.rem acc.den (B.of_int b))) b in
    let f = b / g in
    (* the new denominator over [b] *)
    let over_b = if g = 1 then acc.den else B.div acc.den (B.of_int g) in
    if f <> 1 then begin
      acc.num <- B.mul acc.num (B.of_int f);
      acc.den <- B.mul acc.den (B.of_int f)
    end;
    acc.num <- B.add acc.num (B.mul (B.of_int a) over_b)
  end

let total acc = if B.is_zero acc.den then acc.small else R.make acc.num acc.den

(* A relaxation's optimal objective: the sum of the native fractions
   [terms.(2k) / terms.(2k+1)] (denominators > 0), with
   [lo <= sum <= hi]; [exact] caches the sum once computed. An
   objective from the exact engine has no terms, its value in [exact]
   from the start and the interval (-inf, inf), so every decision on
   it reads the exact value.

   Why [lo] and [hi] hold the sum. Let u = 2^-53, k the number of
   terms, t_i = a_i / b_i and T = sum |t_i|. [float_of_int] rounds
   each of a_i and b_i by at most a factor (1 + u) and the division
   adds one more rounding, so the float term is t_i (1 + e_i) with
   |e_i| <= 3.0001 u. Summing k terms left to right adds at most
   (k - 1) u (1 + O(ku)) of the magnitudes summed (Higham, Accuracy
   and Stability, 4.2), and [asum] underestimates T by no more than
   the same relative amounts. So |est - sum| <= (k + 2.0001) u T
   <= (k + 2.01) u asum. [err] is (k + 3) 2u asum, about twice that,
   and the other half covers the roundings of [err] itself and of
   [est -. err] and [est +. err], each at most u (|est| + err)
   <= u (1.01 asum + err). Terms are at least 2^-62 in magnitude, so
   nothing is subnormal, and asum <= k 2^62 is finite. *)
type objective = {
  lo : float;
  hi : float;
  terms : int array;
  mutable exact : R.t option;
}

let interval_of terms =
  let k = Array.length terms / 2 in
  let est = ref 0.0 and asum = ref 0.0 in
  for i = 0 to k - 1 do
    let t = float_of_int terms.(2 * i) /. float_of_int terms.((2 * i) + 1) in
    est := !est +. t;
    asum := !asum +. Float.abs t
  done;
  let err = !asum *. float_of_int (k + 3) *. epsilon_float in
  (!est -. err, !est +. err)

let of_terms terms =
  let lo, hi = interval_of terms in
  { lo; hi; terms; exact = None }

let objective_of_terms l =
  let terms = Array.make (2 * List.length l) 0 in
  List.iteri
    (fun k (a, b) ->
      if b <= 0 then invalid_arg "Simplex.objective_of_terms: denominator";
      terms.(2 * k) <- a;
      terms.((2 * k) + 1) <- b)
    l;
  of_terms terms

let exact_objective_of v =
  { lo = neg_infinity; hi = infinity; terms = [||]; exact = Some v }

let exact_objective o =
  match o.exact with
  | Some v -> v
  | None ->
    Telemetry.bump exact_objectives_counter;
    let acc = { small = R.zero; num = B.zero; den = B.zero } in
    for k = 0 to (Array.length o.terms / 2) - 1 do
      add_fraction acc o.terms.(2 * k) o.terms.((2 * k) + 1)
    done;
    let v = total acc in
    o.exact <- Some v;
    v

(* Disjoint intervals decide; one objective is equal to itself (the
   children of one node share their parent's); otherwise exactly. *)
let compare_objectives a b =
  if a == b then 0
  else if a.hi < b.lo then -1
  else if b.hi < a.lo then 1
  else R.compare (exact_objective a) (exact_objective b)

(* lo <= x <= hi gives ceil lo <= ceil x <= ceil hi: equal ends
   settle it. They are integral floats, exact as ints below 2^62. A
   ceiling past max_int is [None]: no int is at least x. *)
let ceil_objective o =
  let c = Float.ceil o.lo in
  if c = Float.ceil o.hi && Float.abs c < 0x1p62 then Some (int_of_float c)
  else begin
    let c = R.ceil (exact_objective o) in
    match B.to_int c with
    | Some n -> Some n
    | None when B.sign c > 0 -> None
    | None -> invalid_arg "Simplex.ceil_objective: below min_int"
  end

let int_objective o =
  let x = exact_objective o in
  match B.to_int (R.num x) with
  | Some n when R.is_integer x -> n
  | _ -> invalid_arg "Simplex.int_objective: not an int"

(* Point [v] is [pairs.(2v) / pairs.(2v+1)]: each row's own right-hand
   side and scale, unreduced, both under 2^30 by the fast engine's
   range invariant; or exact values from the Rat engine. *)
type point = Pairs of int array | Rats of R.t array

let values = function
  | Pairs p ->
    Array.init (Array.length p / 2) (fun v -> R.of_ints p.(2 * v) p.((2 * v) + 1))
  | Rats values -> Array.copy values

(* Floor division, for a positive divisor. *)
let fdiv n d = if n >= 0 then n / d else -((d - 1 - n) / d)

(* An exact engine's integer as an int, raising rather than
   wrapping. *)
let to_int b =
  match B.to_int b with
  | Some n -> n
  | None -> invalid_arg "Simplex: a relaxation's value is past the int range"

(* Most fractional: the variable of [group] whose value is closest to
   one half, the first such on ties. For [x = n/d] with fractional
   part [f/d], that distance is [|2f - d| / 2d], so two of them
   compare as [|2f - d|·d'] against [|2f' - d'|·d]: both under 2^60
   because [0 <= f < d < 2^30]. Exact values compare the same
   distances in Rat. *)
let choose_in_group point group =
  match point with
  | Pairs p ->
    let best = ref (-1) and best_dist = ref 0 and best_den = ref 1 in
    List.iter
      (fun v ->
        let n = p.(2 * v) and d = p.((2 * v) + 1) in
        let f = n - (d * fdiv n d) in
        if f <> 0 then begin
          let dist = abs ((2 * f) - d) in
          if !best < 0 || dist * !best_den < !best_dist * d then begin
            best := v;
            best_dist := dist;
            best_den := d
          end
        end)
      group;
    if !best < 0 then None else Some !best
  | Rats values ->
    let best = ref None in
    List.iter
      (fun v ->
        let x = values.(v) in
        if not (R.is_integer x) then begin
          let f = R.frac x in
          let dist = R.abs (R.sub (R.add f f) R.one) in
          match !best with
          | Some (_, s) when R.compare s dist <= 0 -> ()
          | _ -> best := Some (v, dist)
        end)
      group;
    Option.map fst !best

(* Within the earliest group that still has a fractional variable. *)
let most_fractional point groups =
  List.fold_left
    (fun acc group ->
      match acc with Some _ -> acc | None -> choose_in_group point group)
    None groups

let floor point v =
  match point with
  | Pairs p -> fdiv p.(2 * v) p.((2 * v) + 1)
  | Rats values -> to_int (R.floor values.(v))

let int_values = function
  | Pairs p ->
    Array.init (Array.length p / 2) (fun v -> p.(2 * v) / p.((2 * v) + 1))
  | Rats values -> Array.map (fun x -> to_int (R.num x)) values

let fractions point n f =
  match point with
  | Pairs p ->
    for v = 0 to n - 1 do
      f v p.(2 * v) p.((2 * v) + 1)
    done;
    true
  | Rats values ->
    let rec from v =
      v = n
      ||
      match R.to_small values.(v) with
      | Some (num, den) ->
        f v num den;
        from (v + 1)
      | None -> false
    in
    from 0

type relaxation = { objective : objective; point : point }

(* Declared after {!relaxation}, so that an untyped [x.objective] is a
   solution's. *)
type solution = { objective : R.t; values : R.t array }

type 'a outcome =
  | Optimal of 'a
  | Infeasible
  | Unbounded

type result = solution outcome

let solution_of (r : relaxation) =
  { objective = exact_objective r.objective; values = values r.point }

let map_outcome f = function
  | Optimal x -> Optimal (f x)
  | Infeasible -> Infeasible
  | Unbounded -> Unbounded

type direction = Upper | Lower

let fast_kernel = "ff64"
let exact_kernel = "rat"

type 'e tableau = {
  tab : 'e array array;  (* m rows of (ncols + 1) entries *)
  basis : int array;     (* m entries *)
  ncols : int;
  art_start : int;       (* artificial columns: art_start .. ncols-1 *)
}

(* An engine's arithmetic for {!Two_phase}: its entries, a phase's
   pricing, and the entering choice and elimination of a pivot. *)
module type ENGINE = sig
  type e
  type pricing

  val of_int : int -> e  (* a model's int as an entry or a cost *)
  val sign : e -> int
  val mul : e -> e -> e
  val compare : e -> e -> int

  (* The pricing of a phase that minimizes [costs] (one per column)
     from the tableau's current basis. *)
  val pricing : e tableau -> e array -> pricing

  (* The smallest column with a negative reduced cost, columns [j]
     with [banned j] excluded; -1 when there is none. *)
  val entering : e tableau -> pricing -> banned:(int -> bool) -> int

  val pivot : e tableau -> pricing -> int -> int -> unit
end

(* The two-phase method on any engine. A model minimizes over [>=]/[<=]
   rows with non-negative right-hand sides, so every row goes in as it
   stands: column layout structurals, then one slack per row, then one
   artificial per [Ge] row, which starts basic; a [Le] row starts basic
   in its slack. Returns the optimal phase-2 tableau with its
   pricing. *)
module Two_phase (E : ENGINE) = struct
  (* Ratio test: the least rhs_i / tab_ic over tab_ic > 0, compared by
     cross multiplication (a fraction-free row's scale cancels within
     the row), ties to the smallest basic column (Bland); -1 when no
     entry is positive. *)
  let leaving t c =
    let best = ref (-1) in
    for i = 0 to Array.length t.tab - 1 do
      let a = t.tab.(i).(c) in
      if E.sign a > 0 then begin
        let b = !best in
        if
          b < 0
          ||
          let cmp =
            E.compare
              (E.mul t.tab.(i).(t.ncols) t.tab.(b).(c))
              (E.mul t.tab.(b).(t.ncols) a)
          in
          cmp < 0 || (cmp = 0 && t.basis.(i) < t.basis.(b))
        then best := i
      end
    done;
    !best

  (* Minimize with Bland's rule, columns [j] with [banned j] never
     entering: true at an optimum, false when unbounded. *)
  let rec run_phase t p ~banned =
    let c = E.entering t p ~banned in
    if c < 0 then true
    else begin
      let r = leaving t c in
      if r < 0 then false
      else begin
        E.pivot t p r c;
        run_phase t p ~banned
      end
    end

  let solve model =
    let nstruct = Model.num_vars model in
    let rows = Model.constraints model in
    let m = List.length rows in
    let nart =
      List.fold_left (fun na { Model.cmp; _ } -> if cmp = Model.Ge then na + 1 else na) 0 rows
    in
    let art_start = nstruct + m in
    let ncols = art_start + nart in
    let tab = Array.init m (fun _ -> Array.make (ncols + 1) (E.of_int 0)) in
    let basis = Array.make m (-1) in
    let art_idx = ref art_start in
    List.iteri
      (fun i { Model.terms; cmp; rhs } ->
        let row = tab.(i) and slack = nstruct + i in
        List.iter (fun (v, c) -> row.(v) <- E.of_int c) terms;
        row.(ncols) <- E.of_int rhs;
        match cmp with
        | Model.Le ->
          row.(slack) <- E.of_int 1;
          basis.(i) <- slack
        | Ge ->
          row.(slack) <- E.of_int (-1);
          row.(!art_idx) <- E.of_int 1;
          basis.(i) <- !art_idx;
          incr art_idx)
      rows;
    let t = { tab; basis; ncols; art_start } in
    (* Phase 1: minimize the sum of artificial variables (unit cost on
       each artificial column). *)
    let feasible =
      if nart = 0 then true
      else begin
        let costs = Array.make ncols (E.of_int 0) in
        for j = art_start to ncols - 1 do
          costs.(j) <- E.of_int 1
        done;
        let p = E.pricing t costs in
        (* Phase-1 objective is bounded below by zero; unbounded is
           impossible with exact arithmetic. *)
        let bounded = run_phase t p ~banned:(fun _ -> false) in
        assert bounded;
        (* The phase-1 minimum is the sum of the artificial basic
           values; right-hand sides are non-negative throughout, so it
           is positive — infeasible — iff some artificial is basic at a
           nonzero value. *)
        let residual = ref false in
        Array.iteri
          (fun i bv ->
            if bv >= art_start && E.sign tab.(i).(ncols) <> 0 then
              residual := true)
          basis;
        if !residual then false
        else begin
          (* Drive any residual artificial out of the basis with a
             degenerate pivot when the row has a usable column; rows
             that are all-zero outside artificials are redundant and can
             keep their zero-valued artificial (artificials are banned
             from re-entering in phase 2). *)
          Array.iteri
            (fun i bv ->
              if bv >= art_start then begin
                let found = ref (-1) in
                (try
                   for j = 0 to art_start - 1 do
                     if E.sign tab.(i).(j) <> 0 then begin
                       found := j;
                       raise Exit
                     end
                   done
                 with Exit -> ());
                if !found >= 0 then E.pivot t p i !found
              end)
            basis;
          true
        end
      end
    in
    if not feasible then Infeasible
    else begin
      (* Phase 2: the real objective. *)
      let costs = Array.make ncols (E.of_int 0) in
      List.iter (fun (v, c) -> costs.(v) <- E.of_int c) (Model.objective model);
      let p = E.pricing t costs in
      if run_phase t p ~banned:(fun j -> j >= art_start) then Optimal (t, p)
      else Unbounded
    end
end

(* The exact engine: plain Gaussian elimination on Rat, the model's
   ints converted once as the tableau is built. The pricing is the
   cost row [z] of reduced costs, with [z.(ncols)] equal to minus the
   current objective value. Never overflows; {!solve} falls back to
   it. *)
module Exact = struct
  let span_attrs = [ ("lp.kernel", exact_kernel) ]

  type e = R.t
  type pricing = R.t array

  let of_int = R.of_int
  let sign = R.sign
  let mul = R.mul
  let compare = R.compare

  (* Eliminate column [c] from every row but [r] after normalizing row
     [r]. *)
  let pivot t z r c =
    Telemetry.Effort.pivot ();
    let row_r = t.tab.(r) in
    let piv = row_r.(c) in
    if not (R.equal piv R.one) then begin
      let inv = R.inv piv in
      for j = 0 to t.ncols do
        if not (R.is_zero row_r.(j)) then row_r.(j) <- R.mul row_r.(j) inv
      done
    end;
    let eliminate row =
      let f = row.(c) in
      if not (R.is_zero f) then
        for j = 0 to t.ncols do
          if not (R.is_zero row_r.(j)) then
            row.(j) <- R.sub row.(j) (R.mul f row_r.(j))
        done
    in
    Array.iteri (fun i row -> if i <> r then eliminate row) t.tab;
    eliminate z;
    t.basis.(r) <- c

  (* The reduced-cost row for the given column costs and the current
     basis. *)
  let pricing t costs =
    let z = Array.make (t.ncols + 1) R.zero in
    Array.blit costs 0 z 0 t.ncols;
    Array.iteri
      (fun i row ->
        let cb = costs.(t.basis.(i)) in
        if not (R.is_zero cb) then
          for j = 0 to t.ncols do
            if not (R.is_zero row.(j)) then z.(j) <- R.sub z.(j) (R.mul cb row.(j))
          done)
      t.tab;
    z

  let entering t z ~banned =
    let entering = ref (-1) in
    (try
       for j = 0 to t.ncols - 1 do
         if (not (banned j)) && R.sign z.(j) < 0 then begin
           entering := j;
           raise Exit
         end
       done
     with Exit -> ());
    !entering

  (* The optimum of a phase-2 tableau: basic structurals at their
     right-hand sides, the others at zero. *)
  let optimum t z ~nstruct =
    let values = Array.make nstruct R.zero in
    Array.iteri
      (fun i bv -> if bv < nstruct then values.(bv) <- t.tab.(i).(t.ncols))
      t.basis;
    { objective = R.neg z.(t.ncols); values }
end

module Exact_phases = Two_phase (Exact)

(* The fast engine: fraction-free two-phase simplex on native-int
   tableaus.

   Instead of pivoting on rationals, each row is an integer
   vector with an implicit positive scale — the entry under the row's
   own basic column; the true tableau value is [tab.(i).(j) / scale i].
   Pivoting on (r, c) with [p = tab.(r).(c)] rewrites every row with a
   nonzero entry in column [c] as

     tab.(i).(j) <- tab.(i).(j) * p - tab.(i).(c) * tab.(r).(j)

   which is Gaussian elimination with the division deferred into the
   row's scale (now [scale i * p]); row [r] itself is untouched and its
   scale becomes [p]. The inner loop therefore runs no division and no
   gcd — the two operations that dominate rational arithmetic — and
   rows are reduced by their content gcd only when an entry outgrows
   the range invariant |entry| < 2^30, with [Numeric.Kernel.Overflow]
   raised when even that cannot restore it. The invariant keeps every
   two-term product (updates, cross-multiplied ratio comparisons) under
   2^60, safely inside OCaml's 63-bit native int.

   Entering and leaving decisions are exact sign tests and exact
   cross-multiplied ratio comparisons — scales are positive and cancel
   within a row — so this engine walks precisely the pivot sequence of
   {!Exact} and agrees with it bit-for-bit wherever it completes. *)
module Fraction_free = struct
  let span_attrs = [ ("lp.kernel", fast_kernel) ]
  let warm_span_attrs = [ ("lp.kernel", fast_kernel); ("lp.start", "warm") ]
  let replay_span_attrs = [ ("lp.kernel", fast_kernel); ("lp.start", "replay") ]

  (* Exclusive bound on tableau entries and scales. *)
  let range = 1 lsl 30

  let overflow () = raise Numeric.Kernel.Overflow

  (* Branch-free magnitude for threshold tests: |v| for v >= 0,
     |v| - 1 for v < 0 — exact enough to compare against [range]. *)
  let mag v = v lxor (v asr 62)

  (* A model's int [v] as a tableau entry or cost. *)
  let entry v = if mag v >= range then overflow () else v

  (* A row's scale is its entry under its own basic column (> 0). *)
  let scale (t : int tableau) i = t.tab.(i).(t.basis.(i))

  (* Cold path: divide a row that outgrew the range by its content gcd,
     raising when that is not enough. [extra] is the separately-stored
     cost-row scale (0 for ordinary rows): it joins the gcd and the
     recheck, and the returned gcd divides it exactly. *)
  let reduce_row row len extra =
    let g = ref extra in
    for j = 0 to len - 1 do
      let av = abs row.(j) in
      if av <> 0 && !g <> 1 then g := gcd_int av !g
    done;
    let g = if !g = 0 then 1 else !g in
    let mx = ref (extra / g) in
    for j = 0 to len - 1 do
      let v = row.(j) / g in
      row.(j) <- v;
      mx := !mx lor mag v
    done;
    if !mx >= range then overflow ();
    g

  (* [row <- row * p - f * src] over all [len] entries, gcd-reduced
     when an entry leaves the range. *)
  let combine row ~p ~f src len =
    let acc = ref 0 in
    for j = 0 to len - 1 do
      let v = (Array.unsafe_get row j * p) - (f * Array.unsafe_get src j) in
      Array.unsafe_set row j v;
      acc := !acc lor mag v
    done;
    if !acc >= range then ignore (reduce_row row len 0)

  (* Eliminate column [c] from every row but [r]. There is no cost row
     to update: see {!priced}. Each row is combined as
     [row * (p/g) - (f/g) * row_r] with [g = gcd p |f|]: a positive
     row scale, so every true value and every decision is unchanged,
     and the entries grow (and need {!reduce_row}) less often. *)
  let pivot t r c =
    Telemetry.Effort.pivot ();
    let row_r = t.tab.(r) in
    if row_r.(c) < 0 then
      (* Drive-out pivots and dual pivots may select a negative entry;
         the row is an equation, so flipping its sign is free and keeps
         the new scale positive. *)
      for j = 0 to t.ncols do
        row_r.(j) <- -row_r.(j)
      done;
    let p = row_r.(c) in
    Array.iteri
      (fun i row ->
        let f = row.(c) in
        if i <> r && f <> 0 then begin
          let g = gcd_int p (abs f) in
          combine row ~p:(p / g) ~f:(f / g) row_r (t.ncols + 1)
        end)
      t.tab;
    t.basis.(r) <- c

  (* Pricing without a cost row.

     A fraction-free cost row would need one common scale for every
     column — the lcm of per-column denominators — and that scale
     overflows the native range long before any tableau row does
     (tableau rows share the basis determinant as denominator; reduced
     costs do not share anything). Pricing instead reads

       d_j = costs_j - sum_i cb_i * tab_ij / s_i

     over the cost-bearing basic rows [i] (refreshed after every
     pivot), filters columns with a float estimate plus a conservative
     error bound, and confirms the rare ambiguous or winning columns in
     exact Rat arithmetic, which cannot overflow. Confirmed values
     equal the exact engine's z-row, so every decision is exact. *)
  type priced = {
    costs : int array;  (* columns past the end cost 0 *)
    rows : int array;
    cbs : int array;
    scales : int array;
    fcb : float array;  (* cb_i / s_i *)
    est : float array;  (* {!estimate}'s estimate and error bound *)
    mutable k : int;
  }

  let priced t ~costs =
    let m = Stdlib.max (Array.length t.tab) 1 in
    { costs; rows = Array.make m 0; cbs = Array.make m 0;
      scales = Array.make m 0; fcb = Array.make m 0.0; est = Array.make 2 0.0;
      k = 0 }

  let cost p j = if j < Array.length p.costs then p.costs.(j) else 0

  let refresh p t =
    let k = ref 0 in
    for i = 0 to Array.length t.basis - 1 do
      let bv = t.basis.(i) in
      let cb = cost p bv in
      if cb <> 0 then begin
        let s = t.tab.(i).(bv) in
        p.rows.(!k) <- i;
        p.cbs.(!k) <- cb;
        p.scales.(!k) <- s;
        p.fcb.(!k) <- float_of_int cb /. float_of_int s;
        incr k
      end
    done;
    p.k <- !k

  (* The exact reduced cost d_j. *)
  let reduced_cost p t j =
    let d = ref (R.of_int (cost p j)) in
    for q = 0 to p.k - 1 do
      let a = t.tab.(p.rows.(q)).(j) in
      (* cb*a stays under 2^60 by the range invariant. *)
      if a <> 0 then d := R.sub !d (R.of_ints (p.cbs.(q) * a) p.scales.(q))
    done;
    !d

  (* The float estimate of [d_j] is [c_j - sum_q fcb_q * a_qj]
     over the [k] cost-bearing rows, with [asum] the sum of the terms'
     magnitudes. Each term carries <= 2 roundings and each subtraction
     one more, so |est - true| <= 3 (k+1) eps (|c_j| + asum) with
     eps = 2^-52; (k+2) * 4e-15 dominates that with an order of
     magnitude to spare. *)
  let error_bound c asum k =
    (Float.abs c +. asum) *. float_of_int (k + 2) *. 4e-15

  (* The estimate into [p.est.(0)] and its error bound into
     [p.est.(1)]. *)
  let estimate p t j =
    let c = float_of_int (cost p j) in
    let est = ref c and asum = ref 0.0 in
    for q = 0 to p.k - 1 do
      let a = t.tab.(p.rows.(q)).(j) in
      if a <> 0 then begin
        let u = p.fcb.(q) *. float_of_int a in
        est := !est -. u;
        asum := !asum +. Float.abs u
      end
    done;
    p.est.(0) <- !est;
    p.est.(1) <- error_bound c !asum p.k

  (* A phase's pricing for {!Two_phase}, with scratch marks of the
     basic columns. *)
  type phase = { priced : priced; inbasis : bool array }

  (* Bland's entering column; [p.costs] covers every column. Confirmed
     signs equal the exact engine's z-row signs, so the entering choice
     — and hence the whole pivot walk — is identical. *)
  let entering t { priced = p; inbasis } ~banned =
    let m = Array.length t.tab in
    let tab = t.tab and costs = p.costs and rows = p.rows and fcb = p.fcb in
    refresh p t;
    let k = p.k in
    for i = 0 to m - 1 do
      inbasis.(t.basis.(i)) <- true
    done;
    (* Entering: smallest index with exactly-negative reduced cost.
       Basic columns have d_j = 0 by construction and are skipped.
       The scan is the hot loop, so the estimate is inlined. *)
    let entering = ref (-1) in
    (try
       for j = 0 to t.ncols - 1 do
         if (not (banned j)) && not inbasis.(j) then begin
           let c = float_of_int costs.(j) in
           let est = ref c and asum = ref 0.0 in
           for q = 0 to k - 1 do
             let a = tab.(rows.(q)).(j) in
             if a <> 0 then begin
               let u = fcb.(q) *. float_of_int a in
               est := !est -. u;
               asum := !asum +. Float.abs u
             end
           done;
           let err = (Float.abs c +. !asum) *. float_of_int (k + 2) *. 4e-15 in
           if !est <= err && R.sign (reduced_cost p t j) < 0 then begin
             entering := j;
             raise Exit
           end
         end
       done
     with Exit -> ());
    for i = 0 to m - 1 do
      inbasis.(t.basis.(i)) <- false
    done;
    !entering

  module Phases = Two_phase (struct
    type e = int
    type pricing = phase

    let of_int = entry
    let sign v = Int.compare v 0
    let mul = ( * )
    let compare = Int.compare

    let pricing t costs =
      { priced = priced t ~costs; inbasis = Array.make (t.ncols + 1) false }

    let entering = entering
    let pivot t _ r c = pivot t r c
  end)

  (* A structural column's bounds [0 <= lo <= x <= up < 2^30]
     ([up = no_up]: no upper bound) and, while the column is nonbasic,
     whether it sits at [up] rather than at [lo]. Records never change,
     so a child copies only the array that holds them. *)
  type col = { lo : int; up : int; at_up : bool }

  let no_up = max_int

  (* Every column's bounds before a branch: [0 <= x], at [0]. Models
     have no other variable bounds, and slack columns stay free. *)
  let free = { lo = 0; up = no_up; at_up = false }

  let col cols j = if j < Array.length cols then cols.(j) else free

  (* A column's upper ([up]) or lower bound, and the one a nonbasic
     column sits at. *)
  let bound c ~up = if up then c.up else c.lo
  let at c = bound c ~up:c.at_up

  (* Whether a column's value can move. *)
  let movable c = c.lo < c.up

  (* [a * p] added to a row's right-hand side (its last entry): the
     row's basic variable moves by [a * p] over the row's scale.
     Reduced by the content gcd when it leaves the range. [a] and [p]
     are under 2^30 in magnitude, so nothing overflows. *)
  let shift_rhs row ~a ~p =
    let len = Array.length row in
    let v = row.(len - 1) + (a * p) in
    row.(len - 1) <- v;
    if mag v >= range then ignore (reduce_row row len 0)

  (* Bounded dual simplex from a dual-feasible basis: every nonbasic
     column at its lower bound has d_j >= 0 and every one at its upper
     bound d_j <= 0. Right-hand sides hold the basic variables' current
     values times their rows' scales, with each nonbasic column at its
     bound. Dual Bland rule: the leaving row is the one whose basic
     column is smallest among those outside their bounds, and it
     leaves at the bound it violates. The entering column has the
     least exact |d_j| / |a_rj| over the columns that move the leaving
     variable the right way (at lower with a_rj of one sign, at upper
     with the other; fixed columns never move), ties to the smallest
     j. Scales are positive, so a row's true entries share the signs
     and ratios of its integer ones. Returns false when no column
     qualifies: that row alone proves the LP infeasible. *)
  let run_dual t p cols =
    let m = Array.length t.tab and n = t.ncols in
    let lo = Array.make (Stdlib.max n 1) 0.0 in
    let rec loop () =
      let r = ref (-1) and up = ref false in
      for i = 0 to m - 1 do
        let bv = t.basis.(i) in
        if !r < 0 || bv < t.basis.(!r) then begin
          let c = col cols bv and row = t.tab.(i) in
          let v = row.(n) and s = row.(bv) in
          if v < c.lo * s then begin
            r := i;
            up := false
          end
          else if c.up <> no_up && v > c.up * s then begin
            r := i;
            up := true
          end
        end
      done;
      if !r < 0 then true
      else begin
        let row = t.tab.(!r) and leaving = t.basis.(!r) in
        (* A column may enter when it can move: at lower on an entry
           of sign [want], at upper on the other sign. [sense j] is 1
           (at lower) or -1 (at upper) for such a column, else 0. *)
        let want = if !up then 1 else -1 in
        let sense j =
          let a = row.(j) in
          if a = 0 || j = leaving then 0
          else
            let c = col cols j in
            let s = if c.at_up then -1 else 1 in
            if compare a 0 = s * want && movable c then s else 0
        in
        refresh p t;
        (* Float filter: [hi] is the least upper bound on any
           candidate's ratio, so only columns whose lower bound reaches
           it can win. Doubling the error bound also covers the
           rounding of the division. *)
        let hi = ref infinity in
        for j = 0 to n - 1 do
          let sg = sense j in
          if sg <> 0 then begin
            estimate p t j;
            let e = float_of_int sg *. p.est.(0) and err = 2.0 *. p.est.(1) in
            let fa = float_of_int (abs row.(j)) in
            lo.(j) <- Float.max 0.0 (e -. err) /. fa;
            hi := Float.min !hi (Float.max 0.0 (e +. err) /. fa)
          end
          else lo.(j) <- infinity
        done;
        if !hi = infinity then false
        else begin
          let cands = ref [] in
          for j = n - 1 downto 0 do
            if lo.(j) <= !hi then cands := j :: !cands
          done;
          let ratio j =
            R.div (R.abs (reduced_cost p t j)) (R.of_int (abs row.(j)))
          in
          let c =
            match !cands with
            | [ j ] -> j
            | j0 :: rest ->
              fst
                (List.fold_left
                   (fun (bj, br) j ->
                     let rj = ratio j in
                     if R.compare rj br < 0 then (j, rj) else (bj, br))
                   (j0, ratio j0) rest)
            | [] -> assert false (* the column attaining [hi] qualifies *)
          in
          (* The leaving variable's right-hand side becomes its excess
             over the bound it leaves at, which the pivot hands to every
             other row; the entering column then adds its own bound
             value to its new row. *)
          let lc = col cols leaving in
          let lb = bound lc ~up:!up in
          if lb <> 0 then shift_rhs row ~a:(-row.(leaving)) ~p:lb;
          let eb = at (col cols c) in
          pivot t !r c;
          if eb <> 0 then shift_rhs row ~a:row.(c) ~p:eb;
          if leaving < Array.length cols && lc.at_up <> !up then
            cols.(leaving) <- { lc with at_up = !up };
          loop ()
        end
      end
    in
    loop ()

  (* The relaxation of an optimal tableau: basic structurals at their
     rows' [(rhs, scale)], nonbasic ones at their bounds, and the
     objective [c x] as its terms [cb * rhs / s] and [c_j * b] (all
     under 2^60 by the range invariant). No gcd and no Rat. *)
  let optimum t p cols ~nstruct =
    let pairs = Array.make (2 * nstruct) 0 in
    let nterms = ref 0 in
    Array.iteri
      (fun i bv ->
        let rhs = t.tab.(i).(t.ncols) in
        if bv < nstruct then begin
          pairs.(2 * bv) <- rhs;
          pairs.((2 * bv) + 1) <- scale t i
        end;
        if cost p bv <> 0 && rhs <> 0 then incr nterms)
      t.basis;
    (* A zero denominator marks a nonbasic structural until the second
       pass below writes its bound. *)
    let bound_of j = if j < Array.length cols then at cols.(j) else 0 in
    for j = 0 to nstruct - 1 do
      if pairs.((2 * j) + 1) = 0 && cost p j <> 0 && bound_of j <> 0 then
        incr nterms
    done;
    let terms = Array.make (2 * !nterms) 0 and k = ref 0 in
    let add a b =
      terms.(2 * !k) <- a;
      terms.((2 * !k) + 1) <- b;
      incr k
    in
    Array.iteri
      (fun i bv ->
        let rhs = t.tab.(i).(t.ncols) and cb = cost p bv in
        if cb <> 0 && rhs <> 0 then add (cb * rhs) (scale t i))
      t.basis;
    for j = 0 to nstruct - 1 do
      if pairs.((2 * j) + 1) = 0 then begin
        let b = bound_of j in
        pairs.(2 * j) <- b;
        pairs.((2 * j) + 1) <- 1;
        let cj = cost p j in
        if cj <> 0 && b <> 0 then add (cj * b) 1
      end
    done;
    { objective = of_terms terms; point = Pairs pairs }

  (* An optimal phase-2 tableau as int rows: each row holds its
     entries under columns [0, ncols) and then its right-hand side, so
     a snapshot is a tableau with no artificial columns. A warm
     result's tableau is one already and becomes its snapshot as it
     stands; a cold result is compacted once (see {!compact}). [cols]
     holds the structural columns' branch bounds, one per structural;
     the objective is [costs] (see {!optimum}). [model] is the model the
     root solved, and [path] every bound folded into the tableau, as a
     row or on a column. A root that the exact engine answered has no
     tableau ([Cold]): its children are solved cold. *)
  type snapshot =
    | Tableau of {
        t : int tableau;
        costs : int array;
        cols : col array;
        model : Model.t;
        path : (Model.var * direction * int) list;
      }
    | Cold of Model.t

  (* A cold tableau without its banned artificial columns and without
     the rows where a redundant artificial stayed basic after phase 1
     (they are zero everywhere else). *)
  let compact t =
    let live = t.art_start in
    if live = t.ncols then t
    else begin
      let kept =
        Array.fold_left (fun acc bv -> if bv < live then acc + 1 else acc) 0 t.basis
      in
      let tab = Array.make kept [||] and basis = Array.make kept 0 in
      let k = ref 0 in
      Array.iteri
        (fun i src ->
          if t.basis.(i) < live then begin
            let row = Array.make (live + 1) 0 in
            Array.blit src 0 row 0 live;
            row.(live) <- src.(t.ncols);
            tab.(!k) <- row;
            basis.(!k) <- t.basis.(i);
            incr k
          end)
        t.tab;
      { tab; basis; ncols = live; art_start = live }
    end

  (* Heap words of the retained rows, basis and column bounds,
     headers included; the shared {!free} record, the model and the
     path, which the caller holds too, are not charged. *)
  let words = function
    | Cold _ -> 0
    | Tableau { t; cols; _ } ->
      let rows =
        Array.fold_left
          (fun acc row -> acc + Array.length row + 1)
          (Array.length t.tab + 1 + Array.length t.basis + 1)
          t.tab
      in
      Array.fold_left
        (fun acc c -> if c == free then acc else acc + 4)
        (rows + Array.length cols + 1)
        cols

  (* [keep] is the root's model and the path of an optimal result's
     snapshot, when one is wanted. *)
  let solve ?keep model =
    match Phases.solve model with
    | Infeasible -> (Infeasible, None)
    | Unbounded -> (Unbounded, None)
    | Optimal (t, { priced = p; _ }) ->
      let nstruct = Model.num_vars model in
      ( Optimal (optimum t p [||] ~nstruct),
        Option.map
          (fun (model, path) ->
            Tableau
              { t = compact t; costs = p.costs;
                cols = Array.make nstruct free; model; path })
          keep )

  let copy t =
    { t with tab = Array.map Array.copy t.tab; basis = Array.copy t.basis }

  (* One branch bound [x_var <= bound] ([Upper]) or [x_var >= bound]
     folded into [t] and [cols]. A nonbasic [var] that the bound moves
     is folded into every right-hand side once; a basic one simply
     gets the bound, which its value may now violate. A looser bound
     than the column's own changes nothing. False when the bound
     crosses the column's other one: the LP is empty. *)
  let tighten t cols var dir bound =
    if var < 0 || var >= Array.length cols then
      invalid_arg "Simplex.reoptimize: var";
    let bound = entry bound in
    let c = cols.(var) in
    let c' =
      match dir with
      | Upper when bound < c.up -> { c with up = bound }
      | Lower when bound > c.lo -> { c with lo = bound }
      | _ -> c
    in
    if c'.lo > c'.up then false
    else begin
      cols.(var) <- c';
      (if not (Array.mem var t.basis) then
         let d = at c' - at c in
         if d <> 0 then
           Array.iter
             (fun row ->
               let a = row.(var) in
               if a <> 0 then shift_rhs row ~a:(-a) ~p:d)
             t.tab);
      true
    end

  (* A child of the tableau [t] with column bounds [cols]: [bounds]
     (in any order) folded into them, and the tableau keeps its rows
     and columns. Reduced costs do not change, so the basis stays dual
     feasible and one bounded dual simplex finishes the job, however
     many bounds were folded. With [own] the caller gives [t] and
     [cols] up and the child pivots in them, otherwise in copies; the
     result's tableau is never copied: it becomes the child's
     snapshot. *)
  let child ~own ~costs ~model ~path t cols bounds =
    let t = if own then t else copy t in
    let cols = if own then cols else Array.copy cols in
    if not (List.for_all (fun (var, dir, bound) -> tighten t cols var dir bound) bounds)
    then (Infeasible, None)
    else begin
      let p = priced t ~costs in
      if not (run_dual t p cols) then (Infeasible, None)
      else
        ( Optimal (optimum t p cols ~nstruct:(Array.length cols)),
          Some (Tableau { t; costs; cols; model; path = bounds @ path }) )
    end
end

type snapshot = Fraction_free.snapshot

let snapshot_words = Fraction_free.words

let solve_exact model =
  Telemetry.Span.with_span ~attrs:Exact.span_attrs "lp.simplex" (fun () ->
      map_outcome
        (fun (t, z) -> Exact.optimum t z ~nstruct:(Model.num_vars model))
        (Exact_phases.solve model))

let solve_fast_keeping ?keep model =
  Telemetry.Span.with_span ~attrs:Fraction_free.span_attrs "lp.simplex"
    (fun () -> Fraction_free.solve ?keep model)

let solve_fast model = map_outcome solution_of (fst (solve_fast_keeping model))

(* One relaxation, rerun on Rat when the native range overflows. With
   [keep], an optimal answer comes with its snapshot, from [keep]. *)
let solve_keeping ?keep model =
  match solve_fast_keeping ?keep model with
  | answer ->
    Telemetry.bump fast_solves_counter;
    answer
  | exception Numeric.Kernel.Overflow -> (
    Telemetry.bump fallbacks_counter;
    match solve_exact model with
    | Optimal sol ->
      ( Optimal
          { objective = exact_objective_of sol.objective; point = Rats sol.values },
        Option.map (fun (model, _) -> Fraction_free.Cold model) keep )
    | Infeasible -> (Infeasible, None)
    | Unbounded -> (Unbounded, None))

let solve_with_snapshot model = solve_keeping ~keep:(model, []) model
let solve model = map_outcome solution_of (fst (solve_keeping model))

(* The model of a child solved cold: [model] with the tightest of
   [bounds] as rows after its own, for each variable in ascending
   order its lower bound (none when it is 0) and then its upper bound
   (below 0 as the row [-x >= -b], since a right-hand side is
   non-negative). *)
let with_bound_rows model bounds =
  let n = Model.num_vars model in
  let lo = Array.make n 0 and up = Array.make n None in
  List.iter
    (fun (v, dir, b) ->
      match dir with
      | Lower -> lo.(v) <- Int.max lo.(v) b
      | Upper -> up.(v) <- Some (Option.fold ~none:b ~some:(Int.min b) up.(v)))
    bounds;
  let m = Model.copy model in
  for v = 0 to n - 1 do
    if lo.(v) > 0 then Model.add_constraint m [ (v, 1) ] Model.Ge lo.(v);
    match up.(v) with
    | Some b when b < 0 -> Model.add_constraint m [ (v, -1) ] Model.Ge (-b)
    | Some b -> Model.add_constraint m [ (v, 1) ] Model.Le b
    | None -> ()
  done;
  m

(* A child solved cold: the root's [model] with the child's whole
   [path] of bounds as rows. A child that the exact engine answered
   keeps no snapshot: one without a tableau would solve its children
   cold, while a caller that holds a tableau can replay them on it. *)
let cold model path =
  match solve_keeping ~keep:(model, path) (with_bound_rows model path) with
  | answer, Some (Fraction_free.Cold _) -> (answer, None)
  | answer -> answer

(* A child of [snapshot]: warm, by one bounded dual simplex from its
   tableau, or cold when it has none or the warm solve overflows. *)
let child ~own ~attrs snapshot bounds =
  match snapshot with
  | Fraction_free.Cold model -> cold model bounds
  | Tableau { t; costs; cols; model; path } -> (
    match
      Telemetry.Span.with_span ~attrs "lp.simplex" (fun () ->
          Fraction_free.child ~own ~costs ~model ~path t cols bounds)
    with
    | answer ->
      Telemetry.bump fast_solves_counter;
      Telemetry.bump warm_nodes_counter;
      answer
    | exception Numeric.Kernel.Overflow -> cold model (bounds @ path))

let reoptimize ?(own = false) snapshot ~var ~dir ~bound =
  child ~own ~attrs:Fraction_free.warm_span_attrs snapshot [ (var, dir, bound) ]

let replay = child ~own:false ~attrs:Fraction_free.replay_span_attrs

module For_testing = struct
  let solve = solve
  let objective_interval o = (o.lo, o.hi)
  let exact_objective = exact_objective
  let solution_of = solution_of
  let values = values
  let point_of_pairs p = Pairs (Array.copy p)
  let point_of_values values = Rats (Array.copy values)

  let snapshot_rows = function
    | Fraction_free.Tableau { t; _ } -> (t.tab, t.basis)
    | Cold _ -> ([||], [||])
end
