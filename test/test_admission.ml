(* Property battery for the admission queue's shed policies
   (Rentcost_service.Admission): reject-new never evicts an admitted
   job, drop-oldest sheds exactly the head and preserves survivor
   order, tenant-fair never sheds a tenant's only queued request while
   another tenant hogs two or more slots, and — under every policy,
   with deadlines and time advances — the conservation law holds:
   every job ever offered is exactly one of served, shed or still
   queued.

   The properties are checked observationally: a mirror of the queue
   contents is rebuilt purely from what [offer]/[take] return, never
   from the module's internals. *)

module A = Rentcost_service.Admission

type op =
  | Offer of string * float option  (* tenant, time-to-live *)
  | Take
  | Advance of float

let op_gen ~with_deadlines =
  QCheck2.Gen.(
    frequency
      [ ( 6,
          map2
            (fun t ttl -> Offer (t, if with_deadlines then ttl else None))
            (oneofl [ "a"; "b"; "c"; "d" ])
            (oneofl [ None; Some 0.5; Some 2.0 ]) );
        (3, return Take);
        (2, map (fun dt -> Advance (float_of_int dt *. 0.4)) (int_range 0 5))
      ])

let ops_gen ~with_deadlines =
  QCheck2.Gen.(
    pair (int_range 1 6) (list_size (int_range 0 60) (op_gen ~with_deadlines)))

(* Run [ops] against a fresh queue, threading a caller clock and an
   observational mirror (job id, tenant) of the queue contents, and
   calling [check] after every op. Job ids number the offers. *)
let run ~policy ~capacity ~check ops =
  let q = A.create ~policy ~capacity () in
  let mirror = ref [] in
  let now = ref 0.0 in
  let next = ref 0 in
  let ok = ref true in
  let served = ref 0 and offered = ref 0 in
  let remove_ids ids =
    mirror := List.filter (fun (id, _) -> not (List.mem id ids)) !mirror
  in
  List.iter
    (fun op ->
      if !ok then begin
        (match op with
         | Advance dt -> now := !now +. dt
         | Take -> (
           match A.take q ~now:!now with
           | `Empty -> ()
           | `Job id ->
             incr served;
             remove_ids [ id ]
           | `Shed id -> remove_ids [ id ])
         | Offer (tenant, ttl) ->
           let id = !next in
           incr next;
           incr offered;
           let before = !mirror in
           let expires_at = Option.map (fun ttl -> !now +. ttl) ttl in
           let o = A.offer q ?expires_at ~tenant ~now:!now id in
           remove_ids o.A.evicted;
           if o.A.admitted then mirror := !mirror @ [ (id, tenant) ];
           ok := !ok && check ~before ~tenant ~id ~outcome:o);
        (* Conservation after every op: offered = served + shed +
           queued, and the mirror tracks the real occupancy. *)
        ok :=
          !ok
          && !offered = !served + A.shed_count q + A.length q
          && A.length q = List.length !mirror
      end)
    ops;
  !ok

let no_check ~before:_ ~tenant:_ ~id:_ ~outcome:_ = true

let count_tenant tenant q =
  List.length (List.filter (fun (_, t) -> t = tenant) q)

let prop name ~count gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

(* Reject-new, no deadlines: an admitted job is never evicted — every
   offer outcome has an empty eviction list, and a full queue sheds
   the arrival itself. *)
let prop_reject_new_never_evicts =
  prop "reject-new never evicts an admitted job" ~count:200
    (ops_gen ~with_deadlines:false)
    (fun (capacity, ops) ->
      run ~policy:A.Reject_new ~capacity
        ~check:(fun ~before ~tenant:_ ~id:_ ~outcome ->
          outcome.A.evicted = []
          && outcome.A.admitted = (List.length before < capacity))
        ops)

(* Drop-oldest, no deadlines: the victim is exactly the queue head,
   the arrival always gets a slot, and the survivors keep their
   relative order (the mirror check inside [run] enforces it: evicted
   ids are removed, everything else stays put). *)
let prop_drop_oldest_head_only =
  prop "drop-oldest evicts exactly the head" ~count:200
    (ops_gen ~with_deadlines:false)
    (fun (capacity, ops) ->
      run ~policy:A.Drop_oldest ~capacity
        ~check:(fun ~before ~tenant:_ ~id:_ ~outcome ->
          outcome.A.admitted
          &&
          if List.length before < capacity then outcome.A.evicted = []
          else
            match (before, outcome.A.evicted) with
            | (oldest, _) :: _, [ v ] -> v = oldest
            | _ -> false)
        ops)

(* Served order under drop-oldest is a subsequence of offer order:
   dequeued ids strictly increase. *)
let prop_drop_oldest_survivor_order =
  prop "drop-oldest preserves survivor order" ~count:200
    (ops_gen ~with_deadlines:false)
    (fun (capacity, ops) ->
      let q = A.create ~policy:A.Drop_oldest ~capacity () in
      let next = ref 0 in
      let last_served = ref (-1) in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | Advance _ -> ()
          | Offer (tenant, _) ->
            let id = !next in
            incr next;
            ignore (A.offer q ~tenant ~now:0.0 id)
          | Take -> (
            match A.take q ~now:0.0 with
            | `Job id ->
              ok := !ok && id > !last_served;
              last_served := id
            | `Shed _ | `Empty -> ()))
        ops;
      !ok)

(* Tenant-fair, no deadlines: an eviction only ever hits the newest
   entry of a tenant holding at least two slots; when no tenant hogs,
   the arrival is rejected instead — a tenant's only queued request is
   never shed in favour of another. *)
let prop_tenant_fair_protects_singletons =
  prop "tenant-fair never sheds a tenant's only request" ~count:200
    (ops_gen ~with_deadlines:false)
    (fun (capacity, ops) ->
      run ~policy:A.Tenant_fair ~capacity
        ~check:(fun ~before ~tenant:_ ~id:_ ~outcome ->
          if List.length before < capacity then
            outcome.A.admitted && outcome.A.evicted = []
          else
            let hogged =
              List.exists (fun (_, t) -> count_tenant t before >= 2) before
            in
            match outcome.A.evicted with
            | [] -> (not outcome.A.admitted) && not hogged
            | [ v ] -> (
              outcome.A.admitted
              &&
              match List.assoc_opt v before with
              | None -> false
              | Some vt ->
                (* at least two slots held, and v is the newest *)
                count_tenant vt before >= 2
                && List.for_all
                     (fun (id, t) -> t <> vt || id <= v)
                     before)
            | _ -> false)
        ops)

(* The conservation law under every policy, with deadlines and clock
   advances in play: offered = served + shed + queued after every
   single operation ([run] checks it each step). *)
let prop_conservation =
  prop "offered = served + shed + queued under every policy" ~count:300
    QCheck2.Gen.(
      pair (oneofl [ A.Reject_new; A.Drop_oldest; A.Tenant_fair ])
        (ops_gen ~with_deadlines:true))
    (fun (policy, (capacity, ops)) ->
      run ~policy ~capacity ~check:no_check ops)

(* --- unit corners --- *)

let test_remove_matching () =
  let q = A.create ~capacity:8 () in
  List.iter (fun i -> ignore (A.offer q ~now:0.0 i)) [ 1; 2; 3; 4 ];
  let shed_before = A.shed_count q in
  Alcotest.(check (list int)) "matching removed in order" [ 2; 4 ]
    (A.remove_matching q ~f:(fun i -> i mod 2 = 0));
  Alcotest.(check int) "removal is not a shed" shed_before (A.shed_count q);
  let t1 = A.take q ~now:0.0 in
  let t2 = A.take q ~now:0.0 in
  let t3 = A.take q ~now:0.0 in
  Alcotest.(check bool) "others untouched" true
    ([ t1; t2; t3 ] = [ `Job 1; `Job 3; `Empty ])

let suite =
  ( "admission",
    [ prop_reject_new_never_evicts;
      prop_drop_oldest_head_only;
      prop_drop_oldest_survivor_order;
      prop_tenant_fair_protects_singletons;
      prop_conservation;
      Alcotest.test_case "remove_matching leaves the rest" `Quick
        test_remove_matching ] )
