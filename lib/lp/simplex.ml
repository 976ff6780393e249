(* Two-phase primal simplex on a dense tableau, in two exact
   representations that make the same pivot decisions.

   Layout: the tableau has one row per constraint; each row has
   [ncols + 1] entries, the last being the right-hand side. [basis.(i)]
   is the column currently basic in row [i]. Bland's rule
   (smallest-index entering and leaving) guarantees termination even on
   degenerate bases.

   [solve] runs the fraction-free native-int engine ({!Fraction_free})
   and reruns that one relaxation on the exact Rat engine ({!Exact})
   when the native range overflows. Every entering/leaving decision of
   both engines depends only on exact signs and comparisons, so they
   walk the same pivot sequence and return bit-identical results: which
   engine answered shows only in the [numeric.*] counters and the
   [lp.kernel] span attribute. *)

module R = Numeric.Rat

type solution = { objective : R.t; values : R.t array }

type result =
  | Optimal of solution
  | Infeasible
  | Unbounded

let pivot_count = ref 0
let last_pivot_count () = !pivot_count

let pivots_counter = Telemetry.counter Telemetry.lp_pivots
let fast_solves_counter = Telemetry.counter Telemetry.numeric_fast_solves
let fallbacks_counter = Telemetry.counter Telemetry.numeric_fallbacks

type phase_result = Phase_optimal | Phase_unbounded

let fast_kernel = "ff64"
let exact_kernel = "rat"

(* Variable bounds materialized as ordinary rows, then every row
   oriented so its right-hand side is non-negative. Shared by both
   engines. *)
let orient model =
  let nstruct = Model.num_vars model in
  let bound_rows =
    List.concat_map
      (fun v ->
        let lo, up = Model.bounds model v in
        let lower =
          if R.sign lo > 0 then
            [ { Model.expr = Linexpr.var v; cmp = Model.Ge; rhs = lo; cname = "" } ]
          else []
        in
        let upper =
          match up with
          | Some u ->
            [ { Model.expr = Linexpr.var v; cmp = Model.Le; rhs = u; cname = "" } ]
          | None -> []
        in
        lower @ upper)
      (List.init nstruct Fun.id)
  in
  let constrs = Model.constraints model @ bound_rows in
  List.map
    (fun { Model.expr; cmp; rhs; _ } ->
      if R.sign rhs < 0 then
        let cmp = match cmp with Model.Le -> Model.Ge | Ge -> Le | Eq -> Eq in
        (Linexpr.neg expr, cmp, R.neg rhs)
      else (expr, cmp, rhs))
    constrs

let count_slack_art oriented =
  List.fold_left
    (fun (ns, na) (_, cmp, _) ->
      match cmp with
      | Model.Le -> (ns + 1, na)
      | Model.Ge -> (ns + 1, na + 1)
      | Model.Eq -> (ns, na + 1))
    (0, 0) oriented

(* The exact engine: plain Gaussian elimination on Rat. The cost row
   [z] holds reduced costs, with [z.(ncols)] equal to minus the current
   objective value. Never overflows; {!solve} falls back to it. *)
module Exact = struct
  let span_attrs = [ ("lp.kernel", exact_kernel) ]

  type tableau = {
    tab : R.t array array;  (* m rows of (ncols + 1) entries *)
    basis : int array;      (* m entries *)
    ncols : int;
    art_start : int;        (* artificial columns: art_start .. ncols-1 *)
  }

  (* Eliminate column [c] from every row but [r] after normalizing row
     [r]. *)
  let pivot t z r c =
    incr pivot_count;
    Telemetry.bump pivots_counter;
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

  (* Initialize the reduced-cost row for the given column costs and the
     current basis. *)
  let init_cost_row t costs =
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

  (* Minimize with Bland's rule; columns [j] with [banned j] never
     enter. *)
  let run_phase t z ~banned =
    let m = Array.length t.tab in
    let rec loop () =
      (* Entering: smallest index with negative reduced cost. *)
      let entering = ref (-1) in
      (try
         for j = 0 to t.ncols - 1 do
           if (not (banned j)) && R.sign z.(j) < 0 then begin
             entering := j;
             raise Exit
           end
         done
       with Exit -> ());
      if !entering < 0 then Phase_optimal
      else begin
        let c = !entering in
        (* Ratio test: min rhs_i / tab_ic over tab_ic > 0; ties by
           smallest basic variable index (Bland). *)
        let best_row = ref (-1) in
        let best_ratio = ref R.zero in
        for i = 0 to m - 1 do
          let a = t.tab.(i).(c) in
          if R.sign a > 0 then begin
            let ratio = R.div t.tab.(i).(t.ncols) a in
            if
              !best_row < 0
              || R.compare ratio !best_ratio < 0
              || (R.equal ratio !best_ratio && t.basis.(i) < t.basis.(!best_row))
            then begin
              best_row := i;
              best_ratio := ratio
            end
          end
        done;
        if !best_row < 0 then Phase_unbounded
        else begin
          pivot t z !best_row c;
          loop ()
        end
      end
    in
    loop ()

  let solve model =
    pivot_count := 0;
    let nstruct = Model.num_vars model in
    let oriented = orient model in
    let m = List.length oriented in
    (* Column layout: structurals, then one slack/surplus per inequality,
       then one artificial per Ge/Eq row. *)
    let nslack, nart = count_slack_art oriented in
    let art_start = nstruct + nslack in
    let ncols = art_start + nart in
    let tab = Array.init m (fun _ -> Array.make (ncols + 1) R.zero) in
    let basis = Array.make m (-1) in
    let slack_idx = ref nstruct and art_idx = ref art_start in
    List.iteri
      (fun i (expr, cmp, rhs) ->
        let row = tab.(i) in
        List.iter (fun (v, c) -> row.(v) <- c) (Linexpr.terms expr);
        row.(ncols) <- rhs;
        (match cmp with
         | Model.Le ->
           row.(!slack_idx) <- R.one;
           basis.(i) <- !slack_idx;
           incr slack_idx
         | Model.Ge ->
           row.(!slack_idx) <- R.minus_one;
           incr slack_idx;
           row.(!art_idx) <- R.one;
           basis.(i) <- !art_idx;
           incr art_idx
         | Model.Eq ->
           row.(!art_idx) <- R.one;
           basis.(i) <- !art_idx;
           incr art_idx))
      oriented;
    let t = { tab; basis; ncols; art_start } in
    (* Phase 1: minimize the sum of artificial variables. *)
    let feasible =
      if nart = 0 then true
      else begin
        let costs = Array.make ncols R.zero in
        for j = art_start to ncols - 1 do
          costs.(j) <- R.one
        done;
        let z = init_cost_row t costs in
        (match run_phase t z ~banned:(fun _ -> false) with
         | Phase_unbounded ->
           (* Phase-1 objective is bounded below by zero; unbounded is
              impossible with exact arithmetic. *)
           assert false
         | Phase_optimal -> ());
        if R.sign (R.neg z.(ncols)) > 0 then false
        else begin
          (* Drive any residual artificial out of the basis with a
             degenerate pivot when the row has a usable column; rows that
             are all-zero outside artificials are redundant and can keep
             their zero-valued artificial (artificials are banned from
             re-entering in phase 2). *)
          Array.iteri
            (fun i bv ->
              if bv >= art_start then begin
                let found = ref (-1) in
                (try
                   for j = 0 to art_start - 1 do
                     if not (R.is_zero tab.(i).(j)) then begin
                       found := j;
                       raise Exit
                     end
                   done
                 with Exit -> ());
                if !found >= 0 then pivot t z i !found
              end)
            basis;
          true
        end
      end
    in
    if not feasible then Infeasible
    else begin
      (* Phase 2: the real objective (negated for maximization). *)
      let sense, obj = Model.objective model in
      let obj_const = Linexpr.const obj in
      let costs = Array.make ncols R.zero in
      List.iter
        (fun (v, c) ->
          costs.(v) <- (match sense with Model.Minimize -> c | Maximize -> R.neg c))
        (Linexpr.terms obj);
      let z = init_cost_row t costs in
      match run_phase t z ~banned:(fun j -> j >= t.art_start) with
      | Phase_unbounded -> Unbounded
      | Phase_optimal ->
        let values = Array.make nstruct R.zero in
        Array.iteri
          (fun i bv -> if bv < nstruct then values.(bv) <- tab.(i).(ncols))
          basis;
        let minimized = R.neg z.(ncols) in
        let objective =
          match sense with
          | Model.Minimize -> R.add minimized obj_const
          | Maximize -> R.add (R.neg minimized) obj_const
        in
        Optimal { objective; values }
    end
end

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

  (* Exclusive bound on tableau entries and scales. *)
  let range = 1 lsl 30

  let overflow () = raise Numeric.Kernel.Overflow

  let rec gcd_int a b = if b = 0 then a else gcd_int b (a mod b)

  (* Branch-free magnitude for threshold tests: |v| for v >= 0,
     |v| - 1 for v < 0 — exact enough to compare against [range]. *)
  let mag v = v lxor (v asr 62)

  (* lcm of [l] and the denominator of [r], overflow-checked. *)
  let lcm_den l r =
    match R.to_small r with
    | None -> overflow ()
    | Some (_, d) ->
      let l = l / gcd_int l d * d in
      if l >= range then overflow () else l

  type tableau = {
    tab : int array array;  (* m rows of (ncols + 1) entries *)
    basis : int array;
    ncols : int;
    art_start : int;
  }

  (* A row's scale is its entry under its own basic column (> 0). *)
  let scale t i = t.tab.(i).(t.basis.(i))

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

  (* Eliminate column [c] from every row but [r]. There is no cost row
     to update: see {!run_phase}. *)
  let pivot t r c =
    incr pivot_count;
    Telemetry.bump pivots_counter;
    let row_r = t.tab.(r) in
    if row_r.(c) < 0 then
      (* Only degenerate drive-out pivots can select a negative entry;
         the row is an equation, so flipping its sign is free and keeps
         the new scale positive. *)
      for j = 0 to t.ncols do
        row_r.(j) <- -row_r.(j)
      done;
    let p = row_r.(c) in
    let n = t.ncols in
    let eliminate row =
      let f = row.(c) in
      if f <> 0 then begin
        let acc = ref 0 in
        for j = 0 to n do
          let v =
            (Array.unsafe_get row j * p) - (f * Array.unsafe_get row_r j)
          in
          Array.unsafe_set row j v;
          acc := !acc lor mag v
        done;
        if !acc >= range then ignore (reduce_row row (n + 1) 0)
      end
    in
    Array.iteri (fun i row -> if i <> r then eliminate row) t.tab;
    t.basis.(r) <- c

  (* Minimize integer costs [costs.(j) / cq] with Bland's rule.

     No reduced-cost row is maintained. A fraction-free cost row would
     need one common scale for every column — the lcm of per-column
     denominators — and that scale overflows the native range long
     before any tableau row does (tableau rows share the basis
     determinant as denominator; reduced costs do not share anything).
     Entering only needs the SIGN of

       d_j = (costs_j - sum_i cb_i * tab_ij / s_i) / cq

     over the cost-bearing basic rows [i], so each scan filters
     columns with a float estimate plus a conservative error bound and
     confirms the rare ambiguous or candidate-entering columns in
     exact Rat arithmetic (which cannot overflow). Confirmed signs
     equal the exact engine's z-row signs, so the entering choice —
     and hence the whole pivot walk — is identical. *)
  let run_phase t ~costs ~cq ~banned =
    let m = Array.length t.tab in
    let tab = t.tab and basis = t.basis in
    (* Cost-bearing basic rows, refreshed after every pivot. *)
    let rows = Array.make (Stdlib.max m 1) 0 in
    let cbs = Array.make (Stdlib.max m 1) 0 in
    let scales = Array.make (Stdlib.max m 1) 0 in
    let fcb = Array.make (Stdlib.max m 1) 0.0 in
    let k = ref 0 in
    let refresh () =
      k := 0;
      for i = 0 to m - 1 do
        let cb = costs.(basis.(i)) in
        if cb <> 0 then begin
          rows.(!k) <- i;
          cbs.(!k) <- cb;
          scales.(!k) <- tab.(i).(basis.(i));
          fcb.(!k) <- float_of_int cb /. float_of_int tab.(i).(basis.(i));
          incr k
        end
      done
    in
    let exact_sign j =
      let d = ref (R.of_ints costs.(j) cq) in
      for q = 0 to !k - 1 do
        let a = tab.(rows.(q)).(j) in
        (* cb*a and cq*s stay under 2^60 by the range invariant. *)
        if a <> 0 then d := R.sub !d (R.of_ints (cbs.(q) * a) (cq * scales.(q)))
      done;
      R.sign !d
    in
    let inbasis = Array.make (t.ncols + 1) false in
    let rec loop () =
      refresh ();
      for i = 0 to m - 1 do
        inbasis.(basis.(i)) <- true
      done;
      (* Entering: smallest index with exactly-negative reduced cost.
         Basic columns have d_j = 0 by construction and are skipped. *)
      let entering = ref (-1) in
      (try
         for j = 0 to t.ncols - 1 do
           if (not (banned j)) && not inbasis.(j) then begin
             let est = ref (float_of_int costs.(j)) and asum = ref 0.0 in
             for q = 0 to !k - 1 do
               let a = tab.(rows.(q)).(j) in
               if a <> 0 then begin
                 let u = fcb.(q) *. float_of_int a in
                 est := !est -. u;
                 asum := !asum +. Float.abs u
               end
             done;
             (* Each term carries <= 2 roundings and each subtraction
                one more, so |est - true| <= 3 (k+1) eps (|costs_j| +
                asum) with eps = 2^-52; (k+2) * 4e-15 dominates that
                with an order of magnitude to spare. *)
             let err =
               (Float.abs (float_of_int costs.(j)) +. !asum)
               *. float_of_int (!k + 2) *. 4e-15
             in
             if !est <= err && exact_sign j < 0 then begin
               entering := j;
               raise Exit
             end
           end
         done
       with Exit -> ());
      for i = 0 to m - 1 do
        inbasis.(basis.(i)) <- false
      done;
      if !entering < 0 then Phase_optimal
      else begin
        let c = !entering in
        (* Ratio test: scales cancel within a row, so the exact ratio
           rhs_i / tab_ic is compared across rows by cross
           multiplication; ties by smallest basic variable (Bland). *)
        let best_row = ref (-1) in
        let best_rhs = ref 0 and best_a = ref 1 in
        for i = 0 to m - 1 do
          let a = t.tab.(i).(c) in
          if a > 0 then begin
            let rhs = t.tab.(i).(t.ncols) in
            let cmp = compare (rhs * !best_a) (!best_rhs * a) in
            if
              !best_row < 0 || cmp < 0
              || (cmp = 0 && t.basis.(i) < t.basis.(!best_row))
            then begin
              best_row := i;
              best_rhs := rhs;
              best_a := a
            end
          end
        done;
        if !best_row < 0 then Phase_unbounded
        else begin
          pivot t !best_row c;
          loop ()
        end
      end
    in
    loop ()

  let solve model =
    pivot_count := 0;
    let nstruct = Model.num_vars model in
    let oriented = orient model in
    let m = List.length oriented in
    let nslack, nart = count_slack_art oriented in
    let art_start = nstruct + nslack in
    let ncols = art_start + nart in
    let tab = Array.init m (fun _ -> Array.make (ncols + 1) 0) in
    let basis = Array.make m (-1) in
    let slack_idx = ref nstruct and art_idx = ref art_start in
    List.iteri
      (fun i (expr, cmp, rhs) ->
        let row = tab.(i) in
        (* Integerize the row by the lcm [l] of its denominators; [l]
           is also the slack/artificial entry, i.e. the initial scale. *)
        let l =
          List.fold_left
            (fun acc (_, c) -> lcm_den acc c)
            (lcm_den 1 rhs) (Linexpr.terms expr)
        in
        let fill j x =
          match R.to_small x with
          | None -> overflow ()
          | Some (nu, de) ->
            let e = nu * (l / de) in
            if abs e >= range then overflow ();
            row.(j) <- e
        in
        List.iter (fun (v, c) -> fill v c) (Linexpr.terms expr);
        fill ncols rhs;
        (match cmp with
         | Model.Le ->
           row.(!slack_idx) <- l;
           basis.(i) <- !slack_idx;
           incr slack_idx
         | Model.Ge ->
           row.(!slack_idx) <- -l;
           incr slack_idx;
           row.(!art_idx) <- l;
           basis.(i) <- !art_idx;
           incr art_idx
         | Model.Eq ->
           row.(!art_idx) <- l;
           basis.(i) <- !art_idx;
           incr art_idx))
      oriented;
    let t = { tab; basis; ncols; art_start } in
    (* Phase 1: minimize the sum of artificial variables (unit cost on
       each artificial column). *)
    let feasible =
      if nart = 0 then true
      else begin
        let costs = Array.make ncols 0 in
        for j = art_start to ncols - 1 do
          costs.(j) <- 1
        done;
        (match run_phase t ~costs ~cq:1 ~banned:(fun _ -> false) with
         | Phase_unbounded ->
           (* Phase-1 objective is bounded below by zero; unbounded is
              impossible with exact arithmetic. *)
           assert false
         | Phase_optimal -> ());
        (* The phase-1 minimum is the sum of the artificial basic
           values; right-hand sides are non-negative throughout, so it
           is positive — infeasible — iff some artificial is basic at a
           nonzero value. *)
        let residual = ref false in
        Array.iteri
          (fun i bv -> if bv >= art_start && tab.(i).(ncols) <> 0 then residual := true)
          basis;
        if !residual then false
        else begin
          (* Drive residual artificials out of the basis, as in
             {!Exact}: same column choice, hence the same pivots. *)
          Array.iteri
            (fun i bv ->
              if bv >= art_start then begin
                let found = ref (-1) in
                (try
                   for j = 0 to art_start - 1 do
                     if tab.(i).(j) <> 0 then begin
                       found := j;
                       raise Exit
                     end
                   done
                 with Exit -> ());
                if !found >= 0 then pivot t i !found
              end)
            basis;
          true
        end
      end
    in
    if not feasible then Infeasible
    else begin
      (* Phase 2: the real objective (negated for maximization),
         integerized over the objective's common denominator [cq]. *)
      let sense, obj = Model.objective model in
      let obj_const = Linexpr.const obj in
      let costs = Array.make ncols 0 in
      let cq =
        List.fold_left (fun acc (_, c) -> lcm_den acc c) 1 (Linexpr.terms obj)
      in
      List.iter
        (fun (v, c) ->
          match R.to_small c with
          | None -> overflow ()
          | Some (nu, de) ->
            let e = nu * (cq / de) in
            if abs e >= range then overflow ();
            costs.(v) <- (match sense with Model.Minimize -> e | Maximize -> -e))
        (Linexpr.terms obj);
      match run_phase t ~costs ~cq ~banned:(fun j -> j >= t.art_start) with
      | Phase_unbounded -> Unbounded
      | Phase_optimal ->
        let values = Array.make nstruct R.zero in
        Array.iteri
          (fun i bv ->
            if bv < nstruct then
              values.(bv) <- R.of_ints tab.(i).(ncols) (scale t i))
          basis;
        (* Minimized objective c_B x_B, straight from the basic
           values. *)
        let minimized = ref R.zero in
        Array.iteri
          (fun i bv ->
            let cb = costs.(bv) in
            if cb <> 0 then
              minimized :=
                R.add !minimized
                  (R.of_ints (cb * tab.(i).(ncols)) (cq * scale t i)))
          basis;
        let minimized = !minimized in
        let objective =
          match sense with
          | Model.Minimize -> R.add minimized obj_const
          | Maximize -> R.add (R.neg minimized) obj_const
        in
        Optimal { objective; values }
    end
end

let solve_exact model =
  Telemetry.Span.with_span ~attrs:Exact.span_attrs "lp.simplex" (fun () ->
      Exact.solve model)

let solve_fast model =
  Telemetry.Span.with_span ~attrs:Fraction_free.span_attrs "lp.simplex"
    (fun () -> Fraction_free.solve model)

let solve model =
  match solve_fast model with
  | result ->
    Telemetry.bump fast_solves_counter;
    result
  | exception Numeric.Kernel.Overflow ->
    Telemetry.bump fallbacks_counter;
    solve_exact model
