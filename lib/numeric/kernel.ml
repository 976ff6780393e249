(* The overflow signal shared by the native-int fast path of the LP
   engine and its exact-rational fallback. *)

exception Overflow
