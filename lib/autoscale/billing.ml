type t = {
  ticks_per_hour : int;
  horizons : int list array;  (** per type, paid-through ticks, sorted *)
  mutable last_tick : int;
  mutable total_charged : int;
}

type event = {
  rented : int array;
  renewed : int array;
  released : int array;
  charged : int;
}

let create ~num_types ~ticks_per_hour =
  if num_types <= 0 then invalid_arg "Billing.create: num_types must be > 0";
  if ticks_per_hour <= 0 then
    invalid_arg "Billing.create: ticks_per_hour must be > 0";
  {
    ticks_per_hour;
    horizons = Array.make num_types [];
    last_tick = min_int;
    total_charged = 0;
  }

let total_charged t = t.total_charged
let step t ~tick ~desired ~costs =
  let q = Array.length t.horizons in
  if Array.length desired <> q || Array.length costs <> q then
    invalid_arg "Billing.step: mis-sized desired/costs";
  if tick < t.last_tick then invalid_arg "Billing.step: tick went backwards";
  Array.iter (fun d -> if d < 0 then invalid_arg "Billing.step: negative desired") desired;
  t.last_tick <- tick;
  let rented = Array.make q 0
  and renewed = Array.make q 0
  and released = Array.make q 0
  and charged = ref 0 in
  let horizon = tick + t.ticks_per_hour in
  for i = 0 to q - 1 do
    (* A machine paid through h serves ticks < h; at tick >= h it has
       expired and must be renewed or released. *)
    let live, expired = List.partition (fun h -> h > tick) t.horizons.(i) in
    let live_n = List.length live and expired_n = List.length expired in
    let renew_n = min expired_n (max 0 (desired.(i) - live_n)) in
    let rent_n = max 0 (desired.(i) - live_n - renew_n) in
    released.(i) <- expired_n - renew_n;
    renewed.(i) <- renew_n;
    rented.(i) <- rent_n;
    charged := !charged + ((renew_n + rent_n) * costs.(i));
    let fresh = List.init (renew_n + rent_n) (fun _ -> horizon) in
    t.horizons.(i) <- List.merge compare live fresh
  done;
  t.total_charged <- t.total_charged + !charged;
  { rented; renewed; released; charged = !charged }

module For_testing = struct
  let held t = Array.map List.length t.horizons
end
