type var = int

type sense = Minimize | Maximize

type cmp = Le | Ge | Eq

type constr = { expr : Linexpr.t; cmp : cmp; rhs : int; cname : string }

type t = {
  mutable nvars : int;
  mutable names_rev : string list;
  mutable constrs_rev : constr list;
  mutable nconstrs : int;
  mutable sense : sense;
  mutable obj : Linexpr.t;
}

let create () =
  { nvars = 0; names_rev = []; constrs_rev = []; nconstrs = 0;
    sense = Minimize; obj = Linexpr.zero }

let copy t =
  { nvars = t.nvars; names_rev = t.names_rev; constrs_rev = t.constrs_rev;
    nconstrs = t.nconstrs; sense = t.sense; obj = t.obj }

let add_var t ~name =
  let v = t.nvars in
  t.nvars <- v + 1;
  t.names_rev <- name :: t.names_rev;
  v

let num_vars t = t.nvars

let var_name t v =
  if v < 0 || v >= t.nvars then invalid_arg "Model.var_name: unknown variable";
  List.nth t.names_rev (t.nvars - 1 - v)

let add_constraint t ?(name = "") expr cmp rhs =
  let k = Linexpr.const expr in
  let expr = Linexpr.sub expr (Linexpr.constant k) in
  let rhs = Numeric.Kernel.sub_exn rhs k in
  (match Linexpr.max_var expr with
   | v when v >= t.nvars -> invalid_arg "Model.add_constraint: unknown variable"
   | _ -> ());
  t.constrs_rev <- { expr; cmp; rhs; cname = name } :: t.constrs_rev;
  t.nconstrs <- t.nconstrs + 1

let set_objective t sense expr =
  (match Linexpr.max_var expr with
   | v when v >= t.nvars -> invalid_arg "Model.set_objective: unknown variable"
   | _ -> ());
  t.sense <- sense;
  t.obj <- expr

let objective t = (t.sense, t.obj)
let constraints t = List.rev t.constrs_rev
let num_constraints t = t.nconstrs

let check_feasible t values =
  Array.length values = t.nvars
  && Array.for_all (fun v -> v >= 0) values
  && List.for_all
       (fun { expr; cmp; rhs; _ } ->
         let lhs = Linexpr.eval expr values in
         match cmp with Le -> lhs <= rhs | Ge -> lhs >= rhs | Eq -> lhs = rhs)
       (constraints t)

let pp fmt t =
  let pp_cmp fmt = function
    | Le -> Format.pp_print_string fmt "<="
    | Ge -> Format.pp_print_string fmt ">="
    | Eq -> Format.pp_print_string fmt "="
  in
  Format.fprintf fmt "@[<v>%s %a@,subject to:@,"
    (match t.sense with Minimize -> "minimize" | Maximize -> "maximize")
    Linexpr.pp t.obj;
  List.iter
    (fun { expr; cmp; rhs; cname } ->
      Format.fprintf fmt "  %s%a %a %d@,"
        (if cname = "" then "" else cname ^ ": ")
        Linexpr.pp expr pp_cmp cmp rhs)
    (constraints t);
  Format.fprintf fmt "  x%d..x%d >= 0@]" 0 (t.nvars - 1)
