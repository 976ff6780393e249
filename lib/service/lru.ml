module Make (K : Hashtbl.HashedType) = struct
  module H = Hashtbl.Make (K)

  type 'v slot = { value : 'v; mutable used : int }

  type 'v t = {
    cap : int;
    slots : 'v slot H.t;
    mutable clock : int;
    mutable evicted : int;
  }

  let create ~capacity =
    if capacity <= 0 then invalid_arg "Lru.create: capacity must be positive";
    { cap = capacity; slots = H.create capacity; clock = 0; evicted = 0 }

  let capacity t = t.cap

  let length t = H.length t.slots

  let evictions t = t.evicted

  let stamp t =
    t.clock <- t.clock + 1;
    t.clock

  let find t key =
    match H.find_opt t.slots key with
    | None -> None
    | Some slot ->
      slot.used <- stamp t;
      Some slot.value

  let mem t key = H.mem t.slots key

  let evict_lru t =
    let victim =
      H.fold
        (fun key slot lru ->
          match lru with
          | Some (_, used) when used <= slot.used -> lru
          | _ -> Some (key, slot.used))
        t.slots None
    in
    Option.iter
      (fun (key, _) ->
        H.remove t.slots key;
        t.evicted <- t.evicted + 1)
      victim

  let replace t key value =
    if (not (H.mem t.slots key)) && H.length t.slots >= t.cap then evict_lru t;
    H.replace t.slots key { value; used = stamp t }

  let fold f t init = H.fold (fun key slot acc -> f key slot.value acc) t.slots init
end
