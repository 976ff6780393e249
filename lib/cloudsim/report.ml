let print_series ?(decimals = 4) fmt ~title (s : Stats.series) =
  Format.fprintf fmt "@[<v>== %s ==@,(%s)@," title s.Stats.ylabel;
  let width = 12 in
  Format.fprintf fmt "%8s" "target";
  List.iter (fun a -> Format.fprintf fmt " %*s" width a) s.Stats.algorithms;
  Format.fprintf fmt "@,";
  List.iter
    (fun (target, values) ->
      Format.fprintf fmt "%8d" target;
      Array.iter (fun v -> Format.fprintf fmt " %*.*f" width decimals v) values;
      Format.fprintf fmt "@,")
    s.Stats.rows;
  Format.fprintf fmt "@]@."

let series_to_csv (s : Stats.series) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "target";
  List.iter (fun a -> Buffer.add_string buf ("," ^ a)) s.Stats.algorithms;
  Buffer.add_char buf '\n';
  List.iter
    (fun (target, values) ->
      Buffer.add_string buf (string_of_int target);
      Array.iter (fun v -> Buffer.add_string buf (Printf.sprintf ",%.6f" v)) values;
      Buffer.add_char buf '\n')
    s.Stats.rows;
  Buffer.contents buf

let print_table3 fmt rows =
  match rows with
  | [] -> ()
  | (_, first) :: _ ->
    let algs = List.map (fun (a, _, _) -> a) first in
    Format.fprintf fmt "@[<v>";
    Format.fprintf fmt "%5s" "rho";
    List.iter (fun a -> Format.fprintf fmt " | %-22s" a) algs;
    Format.fprintf fmt "@,";
    Format.fprintf fmt "%5s" "";
    List.iter (fun _ -> Format.fprintf fmt " | %-22s" "rho1 rho2 rho3   cost") algs;
    Format.fprintf fmt "@,";
    let opt_cost entries =
      match entries with (_, _, c) :: _ -> c | [] -> max_int
    in
    List.iter
      (fun (target, entries) ->
        let optimal = opt_cost entries in
        Format.fprintf fmt "%5d" target;
        List.iter
          (fun (_, rho, cost) ->
            let split =
              String.concat " "
                (Array.to_list (Array.map (Printf.sprintf "%4d") rho))
            in
            Format.fprintf fmt " | %s %6d%s" split cost
              (if cost = optimal then "*" else " "))
          entries;
        Format.fprintf fmt "@,")
      rows;
    Format.fprintf fmt "(* marks costs equal to the ILP optimum)@,@]@."
