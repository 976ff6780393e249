(** Rendering of experiment results: aligned ASCII tables (what the
    harness prints) and CSV (for external plotting). *)

(** [print_series fmt ~title s] renders a {!Stats.series} as an
    aligned table with one row per target, values to [decimals]
    places (default 4). *)
val print_series :
  ?decimals:int -> Format.formatter -> title:string -> Stats.series -> unit

(** [series_to_csv s] is a CSV rendering with header
    [target,<alg>,...]. *)
val series_to_csv : Stats.series -> string

(** [print_table3 fmt rows] renders the illustrating-example table in
    the layout of the paper's Table III: for each algorithm the chosen
    split [(ρ1, ρ2, ρ3)] and its cost, one row per target; optimal
    costs (first column, the ILP) are marked with [*] on heuristics
    that attain them. [rows] maps a target to
    [(algorithm, rho, cost) list] in column order. *)
val print_table3 :
  Format.formatter -> (int * (string * int array * int) list) list -> unit
