(** Preset experiment definitions: one per table/figure of the paper's
    evaluation (§ VII–VIII). Both the command-line harness ([bin/])
    and the benchmark suite ([bench/]) consume these presets, so the
    regenerated artefacts always agree with DESIGN.md's experiment
    index. *)

type preset = {
  id : string;  (** "table3", "fig3" … "fig8" *)
  description : string;
  graphs : Generator.graph_params;
  cloud : Generator.cloud_params;
  targets : int list;  (** the paper's sweep: 20, 30, …, 200 *)
  default_configs : int;  (** configurations the paper used (100 / 10) *)
  ilp_time_limit : float option;  (** Figure 8 uses 100 s *)
  ilp_node_limit : int option;
      (** deterministic cap for the sweep figures: rare hard instances
          return their best incumbent (from node rounding) instead of
          running for minutes (the paper's Gurobi handles these with
          its own cut machinery; see DESIGN.md § 3) *)
}

(** Presets for the sweep figures, keyed by id:
    - [fig3/fig4/fig5]: small recipes (20 alternatives, 5–8 tasks,
      50 % mutation, Q = 5, costs 1–100, throughputs 10–100);
    - [fig6]: medium recipes (10–20 tasks, 30 % mutation, Q = 8);
    - [fig7]: large recipes (50–100 tasks, 50 % mutation, Q = 8,
      throughputs 10–50);
    - [fig8]: ILP stress (10 alternatives, 100–200 tasks, 30 %
      mutation, Q = 50, throughputs 5–25, ILP capped at 100 s). *)
val all : preset list

(** [find id] looks a preset up by id. *)
val find : string -> preset option

(** [title ?time_limit ~configs ~seed preset] is the header a preset's
    table is printed under: id, description, the ILP's wall-clock cap
    when one applies ([time_limit], else the preset's own), the number
    of configurations and the seed. *)
val title : ?time_limit:float -> configs:int -> seed:int -> preset -> string

(** [run ?configs ?seed ?progress preset] executes a preset and
    returns the raw measurements ([configs] defaults to the preset's
    paper value — lower it for quick runs). *)
val run :
  ?configs:int ->
  ?seed:int ->
  ?time_limit:float ->
  ?progress:(int -> unit) ->
  preset ->
  Runner.measurement list

(** [table3 ()] reproduces the illustrating example (§ VII): for every
    target 10, 20, …, 200 the ILP and the five paper heuristics with
    their chosen splits and costs, in Table III's layout. Heuristics
    run with the paper-calibrated step of 10. *)
val table3 : ?seed:int -> unit -> (int * (string * int array * int) list) list
