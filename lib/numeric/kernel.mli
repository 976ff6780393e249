(** The overflow signal of the native-int fast path.

    The LP engine's fraction-free fast path ([Lp.Simplex.solve_fast])
    works on native ints and never rounds: it either returns the exact
    result or raises {!Overflow} when a value leaves its range.
    [Lp.Simplex.solve] catches it and reruns the relaxation on exact
    {!Rat} (see DESIGN.md, "Numeric kernels"). *)

(** Raised by the native-int fast path when an exact result is not
    representable in its range. *)
exception Overflow
