(** The overflow signal of the native-int fast path, and checked
    native-int arithmetic.

    The LP engine's fraction-free fast path ([Lp.Simplex.solve_fast])
    works on native ints and never rounds: it either returns the exact
    result or raises {!Overflow} when a value leaves its range. The
    rest of [Lp.Simplex] catches it: a relaxation reruns on exact
    {!Rat}, and a warm child is solved cold (see DESIGN.md, "Numeric
    kernels"), so the branch and bound and its [?round] hook never see
    it.

    The integer program's interface ([Lp.Model], [Milp.Solver]) is
    native ints; [Lp.Model] evaluates a row or the objective at an
    integer point through {!add_exn} and {!mul_exn}, so a value past
    the int range is an error rather than a wrapped answer. *)

(** Raised by the native-int fast path when an exact result is not
    representable in its range. *)
exception Overflow

(** [a + b] and [a * b].
    @raise Invalid_argument when the exact result is not an int. *)
val add_exn : int -> int -> int

val mul_exn : int -> int -> int
