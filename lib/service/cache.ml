type entry = {
  target : int;
  spec : string;
  canonical_rho : int array;
  cost : int;
  optimal : bool;
}

type key = {
  digest : string;
  ktarget : int;
  kspec : string;
}

type slot = {
  encoding : string;
  entry : entry;
  mutable last_used : int;
}

type t = {
  cap : int;
  table : (key, slot) Hashtbl.t;
  mutable clock : int;
  mutable evicted : int;
  lock : Mutex.t;  (* every public operation runs under it *)
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Cache.create: capacity must be positive";
  { cap = capacity; table = Hashtbl.create capacity; clock = 0; evicted = 0;
    lock = Mutex.create () }

let locked t f = Mutex.protect t.lock f

let capacity t = t.cap

let length t = locked t (fun () -> Hashtbl.length t.table)

let evictions t = locked t (fun () -> t.evicted)

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let touch t slot = slot.last_used <- tick t

(* Fold over the slots of one structure, collision-checked. *)
let fold_struct t ~digest ~encoding f init =
  Hashtbl.fold
    (fun key slot acc ->
      if String.equal key.digest digest && String.equal slot.encoding encoding
      then f key slot acc
      else acc)
    t.table init

(* The best slot of one structure under [pick], recency refreshed. *)
let lookup t ~digest ~encoding pick =
  locked t (fun () ->
      match fold_struct t ~digest ~encoding pick None with
      | None -> None
      | Some slot ->
        touch t slot;
        Some slot.entry)

let find_exact t ~digest ~encoding ~target ~spec =
  lookup t ~digest ~encoding (fun _key slot best ->
      if slot.entry.target <> target then best
      else if String.equal slot.entry.spec spec then
        (* The engine actually asked for — always the best answer. *)
        Some slot
      else if slot.entry.optimal then
        match best with Some b when String.equal b.entry.spec spec -> best | _ -> Some slot
      else best)

let find_monotone t ~digest ~encoding ~target =
  lookup t ~digest ~encoding (fun _key slot best ->
      if (not slot.entry.optimal) || slot.entry.target < target then best
      else
        match best with
        | Some b when b.entry.target <= slot.entry.target -> best
        | _ -> Some slot)

let find_monotone_le t ~digest ~encoding ~target =
  lookup t ~digest ~encoding (fun _key slot best ->
      if (not slot.entry.optimal) || slot.entry.target > target then best
      else
        match best with
        | Some b when b.entry.target >= slot.entry.target -> best
        | _ -> Some slot)

let find_nearest t ~digest ~encoding ~target =
  lookup t ~digest ~encoding (fun _key slot best ->
      if slot.entry.target < target then best
      else
        match best with
        | Some b when b.entry.target <= slot.entry.target -> best
        | _ -> Some slot)

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun key slot best ->
        match best with
        | Some (_, stamp) when stamp <= slot.last_used -> best
        | _ -> Some (key, slot.last_used))
      t.table None
  in
  match victim with
  | None -> ()
  | Some (key, _) ->
    Hashtbl.remove t.table key;
    t.evicted <- t.evicted + 1

let insert t ~digest ~encoding entry =
  let key = { digest; ktarget = entry.target; kspec = entry.spec } in
  locked t (fun () ->
      let fresh = not (Hashtbl.mem t.table key) in
      if fresh && Hashtbl.length t.table >= t.cap then evict_lru t;
      Hashtbl.replace t.table key { encoding; entry; last_used = tick t })

let mem t ~digest ~target ~spec =
  locked t (fun () ->
      Hashtbl.mem t.table { digest; ktarget = target; kspec = spec })
