(* The overflow signal shared by the native-int fast path of the LP
   engine and its exact-rational fallback, and the checked native-int
   arithmetic of the integer program's interface. *)

exception Overflow

let wrapped () = invalid_arg "Numeric.Kernel: integer overflow"

(* The sum wraps exactly when both operands share a sign the result
   does not have. *)
let add_exn a b =
  let s = a + b in
  if (a lxor s) land (b lxor s) < 0 then wrapped () else s

let mul_exn a b =
  if a = 0 || b = 0 then 0
  else begin
    let p = a * b in
    if p / b <> a || (a = -1 && b = min_int) || (b = -1 && a = min_int) then
      wrapped ()
    else p
  end
