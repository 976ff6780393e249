type policy =
  | Reject_new
  | Drop_oldest
  | Tenant_fair

let policy_to_string = function
  | Reject_new -> "reject-new"
  | Drop_oldest -> "drop-oldest"
  | Tenant_fair -> "tenant-fair"

type 'a entry = {
  job : 'a;
  expires_at : float option;
  tenant : string;
}

type 'a t = {
  cap : int;
  policy : policy;
  mutable q : 'a entry list;  (* FIFO: head = oldest; cap is small *)
  mutable shed : int;
}

let create ?(policy = Reject_new) ~capacity () =
  if capacity <= 0 then
    invalid_arg "Admission.create: capacity must be positive";
  { cap = capacity; policy; q = []; shed = 0 }

let capacity t = t.cap

let policy t = t.policy

let length t = List.length t.q

let shed_count t = t.shed

let expired now e =
  match e.expires_at with Some deadline -> now > deadline | None -> false

type 'a offer_outcome = {
  admitted : bool;
  evicted : 'a list;  (* previously admitted jobs shed to make room,
                         oldest first; each still owes a reply *)
}

(* Tenant-fair eviction: the victim is the newest queued entry of the
   tenant holding the most slots — the hog loses its most recent work,
   never a tenant's only queued request (a single-entry tenant can
   only be the maximum when every tenant holds one, and then nobody is
   hogging so the new arrival is rejected instead). *)
let tenant_fair_victim q =
  let counts = Hashtbl.create 8 in
  List.iter
    (fun e ->
      Hashtbl.replace counts e.tenant
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts e.tenant)))
    q;
  let hog, slots =
    Hashtbl.fold
      (fun tenant n ((_, best) as acc) -> if n > best then (tenant, n) else acc)
      counts ("", 0)
  in
  if slots < 2 then None
  else
    (* Newest entry of the hog = last matching entry in FIFO order. *)
    let rec last_index i best = function
      | [] -> best
      | e :: rest ->
        last_index (i + 1) (if e.tenant = hog then Some i else best) rest
    in
    last_index 0 None q

let remove_index i q =
  let rec go k acc = function
    | [] -> assert false
    | e :: rest ->
      if k = i then (e, List.rev_append acc rest)
      else go (k + 1) (e :: acc) rest
  in
  go 0 [] q

let offer t ?expires_at ?(tenant = "default") ~now job =
  (* Eager expiry: a request whose deadline lapsed while it queued is
     dead weight — shedding it here keeps full-queue slots for live
     work instead of bouncing the new arrival off a corpse. *)
  let dead, live = List.partition (expired now) t.q in
  t.q <- live;
  t.shed <- t.shed + List.length dead;
  let evicted_expired = List.map (fun e -> e.job) dead in
  let entry = { job; expires_at; tenant } in
  if List.length t.q < t.cap then begin
    t.q <- t.q @ [ entry ];
    { admitted = true; evicted = evicted_expired }
  end
  else
    match t.policy with
    | Reject_new ->
      t.shed <- t.shed + 1;
      { admitted = false; evicted = evicted_expired }
    | Drop_oldest -> (
      match t.q with
      | [] -> assert false (* cap > 0 and the queue is full *)
      | oldest :: rest ->
        t.q <- rest @ [ entry ];
        t.shed <- t.shed + 1;
        { admitted = true; evicted = evicted_expired @ [ oldest.job ] })
    | Tenant_fair -> (
      match tenant_fair_victim t.q with
      | None ->
        (* No tenant holds two slots: nothing fair to evict. *)
        t.shed <- t.shed + 1;
        { admitted = false; evicted = evicted_expired }
      | Some i ->
        let victim, rest = remove_index i t.q in
        t.q <- rest @ [ entry ];
        t.shed <- t.shed + 1;
        { admitted = true; evicted = evicted_expired @ [ victim.job ] })

let take t ~now =
  match t.q with
  | [] -> `Empty
  | e :: rest ->
    t.q <- rest;
    if expired now e then begin
      t.shed <- t.shed + 1;
      `Shed e.job
    end
    else `Job e.job

let remove_matching t ~f =
  let matching, rest = List.partition (fun e -> f e.job) t.q in
  t.q <- rest;
  List.map (fun e -> e.job) matching
