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

module Table = Lru.Make (struct
  type t = key

  let equal = ( = )
  let hash = Hashtbl.hash
end)

type t = {
  table : (string * entry) Table.t;  (* encoding, entry *)
  lock : Mutex.t;  (* every public operation runs under it *)
}

let create ~capacity = { table = Table.create ~capacity; lock = Mutex.create () }

let locked t f = Mutex.protect t.lock f

let capacity t = Table.capacity t.table

let length t = locked t (fun () -> Table.length t.table)

let evictions t = locked t (fun () -> Table.evictions t.table)

let key_of ~digest entry = { digest; ktarget = entry.target; kspec = entry.spec }

(* The best entry of one structure under [pick], collision-checked,
   recency refreshed. *)
let lookup t ~digest ~encoding pick =
  locked t (fun () ->
      let best =
        Table.fold
          (fun key (enc, entry) best ->
            if String.equal key.digest digest && String.equal enc encoding then
              pick entry best
            else best)
          t.table None
      in
      Option.iter (fun e -> ignore (Table.find t.table (key_of ~digest e))) best;
      best)

let find_exact t ~digest ~encoding ~target ~spec =
  lookup t ~digest ~encoding (fun e best ->
      if e.target <> target then best
      else if String.equal e.spec spec then
        (* The engine actually asked for — always the best answer. *)
        Some e
      else if e.optimal then
        match best with Some b when String.equal b.spec spec -> best | _ -> Some e
      else best)

let find_monotone t ~digest ~encoding ~target =
  lookup t ~digest ~encoding (fun e best ->
      if (not e.optimal) || e.target < target then best
      else
        match best with
        | Some b when b.target <= e.target -> best
        | _ -> Some e)

let find_monotone_le t ~digest ~encoding ~target =
  lookup t ~digest ~encoding (fun e best ->
      if (not e.optimal) || e.target > target then best
      else
        match best with
        | Some b when b.target >= e.target -> best
        | _ -> Some e)

let find_nearest t ~digest ~encoding ~target =
  lookup t ~digest ~encoding (fun e best ->
      if e.target < target then best
      else
        match best with
        | Some b when b.target <= e.target -> best
        | _ -> Some e)

let insert t ~digest ~encoding entry =
  locked t (fun () -> Table.replace t.table (key_of ~digest entry) (encoding, entry))

let mem t ~digest ~target ~spec =
  locked t (fun () -> Table.mem t.table { digest; ktarget = target; kspec = spec })
