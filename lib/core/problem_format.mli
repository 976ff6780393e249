(** A plain-text file format for problem instances, so the command-line
    tool ([bin/rentcost.exe]) can solve user-supplied problems.

    Grammar (line oriented, [#] starts a comment):

    {v
    version 1                            # optional; version 1 implied
    types <Q>
    type <q> cost <c> throughput <r>     # one line per type, q in 0..Q-1
    recipe                               # starts a recipe block
      task <i> type <q>                  # tasks must be numbered 0,1,2,…
      edge <a> <b>                       # precedence a before b (optional)
    recipe
      …
    v}

    Whitespace is free-form; keywords are case-insensitive. A [type]
    line must name a type in [0..Q-1], and all [Q] types must be
    declared; a [type] line before [types] is checked when [types]
    arrives. Every validation of {!Platform.create},
    {!Task_graph.create} and {!Problem.create} applies (positive
    costs/throughputs, acyclic precedence, type ranges). A file without a [version] line is
    version 1; unknown versions are rejected with a line-numbered
    [Failure] naming the supported versions, so future fields stay
    forward-compatible. *)

(** [to_string problem] renders an instance; [of_string (to_string p)]
    reconstructs an equivalent instance. *)
val to_string : Problem.t -> string

(** [of_string text] parses an instance.
    @raise Failure with a line-numbered message on malformed input;
    @raise Invalid_argument when the data violate model invariants. *)
val of_string : string -> Problem.t

(** [load path] reads and parses a file. *)
val load : string -> Problem.t
