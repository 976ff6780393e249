module K = Numeric.Kernel

type var = int

type cmp = Le | Ge

type constr = { terms : (var * int) list; cmp : cmp; rhs : int }

type t = {
  mutable nvars : int;
  mutable constrs_rev : constr list;
  mutable obj : (var * int) list;
}

let create () = { nvars = 0; constrs_rev = []; obj = [] }
let copy t = { nvars = t.nvars; constrs_rev = t.constrs_rev; obj = t.obj }

let add_var t =
  let v = t.nvars in
  t.nvars <- v + 1;
  v

let num_vars t = t.nvars

(* Every variable known and mentioned once, every coefficient
   non-zero. *)
let check_terms t fn terms =
  let seen = Bytes.make t.nvars '\000' in
  List.iter
    (fun (v, c) ->
      if v < 0 || v >= t.nvars then invalid_arg (fn ^ ": unknown variable");
      if Bytes.get seen v <> '\000' then invalid_arg (fn ^ ": repeated variable");
      if c = 0 then invalid_arg (fn ^ ": zero coefficient");
      Bytes.set seen v '\001')
    terms

let add_constraint t terms cmp rhs =
  check_terms t "Model.add_constraint" terms;
  if rhs < 0 then invalid_arg "Model.add_constraint: negative right-hand side";
  t.constrs_rev <- { terms; cmp; rhs } :: t.constrs_rev

let set_objective t terms =
  check_terms t "Model.set_objective" terms;
  t.obj <- terms

let objective t = t.obj
let constraints t = List.rev t.constrs_rev

(* [Σ c·values.(v)], raising rather than wrapping. *)
let eval terms values =
  List.fold_left
    (fun acc (v, c) ->
      if v >= Array.length values then invalid_arg "Model: variable past the point";
      K.add_exn acc (K.mul_exn c values.(v)))
    0 terms

let objective_value t values = eval t.obj values

let check_feasible t values =
  Array.length values = t.nvars
  && Array.for_all (fun v -> v >= 0) values
  && List.for_all
       (fun { terms; cmp; rhs } ->
         let lhs = eval terms values in
         match cmp with Le -> lhs <= rhs | Ge -> lhs >= rhs)
       (constraints t)
