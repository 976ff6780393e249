(* Tests for the multicore service: the LRU cache under concurrent
   writers, the engine's worker-loop building blocks, per-domain
   effort counts, and a parallel daemon session under concurrent
   clients.

   RENTCOST_TEST_DOMAINS (default 2) sets the domain/worker counts, so
   CI runs the whole battery both sequentially (=1) and with real
   parallelism (=4) — the assertions are identical in both modes;
   that is the point. *)

module S = Rentcost.Solver
module H = Rentcost.Heuristics
module AL = Rentcost.Allocation
module Svc = Rentcost_service
module E = Svc.Engine
module Pr = Svc.Protocol
module J = Svc.Json

let test_domains =
  match Sys.getenv_opt "RENTCOST_TEST_DOMAINS" with
  | Some v -> (
    match int_of_string_opt v with Some n when n >= 1 -> n | _ -> 2)
  | None -> 2

let illustrating = Rentcost.Problem.illustrating
let illustrating_instance = Rentcost.Instance.compile illustrating

let spawn_each n f = List.init n (fun i -> Domain.spawn (fun () -> f i))
let join_all = List.iter Domain.join

(* --- Cache: bounded and correct under concurrent writers --- *)

let test_shared_cache_race () =
  let capacity = 8 in
  let cache = Svc.Cache.create ~capacity in
  let digest i = Printf.sprintf "digest-%03d" i
  and encoding i = Printf.sprintf "encoding-%03d" i in
  let entry i =
    { Svc.Cache.target = 10; spec = "h32jump"; canonical_rho = [| i; i |];
      cost = i; optimal = false }
  in
  join_all
    (spawn_each (max 2 test_domains) (fun d ->
         for round = 1 to 20 do
           for i = 0 to 19 do
             if (i + d + round) mod 3 = 0 then
               Svc.Cache.insert cache ~digest:(digest i)
                 ~encoding:(encoding i) (entry i)
             else
               match
                 Svc.Cache.find_exact cache ~digest:(digest i)
                   ~encoding:(encoding i) ~target:10 ~spec:"h32jump"
               with
               | None -> ()
               | Some e ->
                 (* A hit must be the entry stored under that digest —
                    never another fingerprint's answer. *)
                 if e.Svc.Cache.cost <> i then
                   Alcotest.failf "digest %d answered with cost %d" i
                     e.Svc.Cache.cost
           done
         done));
  Alcotest.(check bool) "live entries within capacity" true
    (Svc.Cache.length cache <= capacity);
  Alcotest.(check int) "capacity reported as created" capacity
    (Svc.Cache.capacity cache)

(* --- Engine: the worker-loop building blocks --- *)

let solve_req ?id ?(reuse = Pr.Monotone) target =
  Pr.Solve
    { id; trace_id = None; tenant = None; source = Pr.Ref "app";
      objective = Rentcost.Objective.min_cost ~target; pricebook = None;
      spec = S.Auto; budget = None; reuse }

let fresh_engine ?(queue_capacity = 64) ?(cache_capacity = 128) () =
  let e =
    E.create ~config:{ E.default_config with E.queue_capacity; cache_capacity } ()
  in
  ignore (E.register e ~name:"app" illustrating);
  e

let test_engine_drain_next_and_wait () =
  let e = fresh_engine () in
  List.iter
    (fun i -> assert (E.submit e (solve_req ~id:i 60) = []))
    [ 1; 2; 3 ];
  Alcotest.(check bool) "non-empty queue reports work even when stopping"
    true
    (E.wait_for_work e ~stop:(fun () -> true));
  let drained = ref 0 in
  let rec go () =
    match E.drain_next e with
    | [] -> ()
    | rs ->
      List.iter
        (function
          | Pr.Solved _ -> incr drained
          | _ -> Alcotest.fail "expected solved responses")
        rs;
      go ()
  in
  go ();
  Alcotest.(check int) "drain_next answers each queued job once" 3 !drained;
  Alcotest.(check int) "queue empty after draining" 0 (E.queue_length e);
  Alcotest.(check bool) "empty queue + stop returns no work" false
    (E.wait_for_work e ~stop:(fun () -> true))

let test_engine_submit_race () =
  (* Several domains race solves into a tiny queue: the admission
     arithmetic must stay exact — every offer is either queued or
     answered Overloaded, nothing vanishes. *)
  let queue_capacity = 8 in
  let e = fresh_engine ~queue_capacity () in
  let writers = max 2 test_domains in
  let per_writer = 10 in
  let shed = Atomic.make 0 in
  join_all
    (spawn_each writers (fun d ->
         for i = 1 to per_writer do
           match E.submit e (solve_req ~id:((d * 100) + i) 60) with
           | [] -> ()
           | [ Pr.Overloaded _ ] -> Atomic.incr shed
           | _ -> Alcotest.fail "unexpected immediate response"
         done));
  let queued = E.queue_length e in
  Alcotest.(check int) "queued + shed = offered"
    (writers * per_writer)
    (queued + Atomic.get shed);
  Alcotest.(check bool) "queue bound respected" true
    (queued <= queue_capacity);
  Alcotest.(check int) "drain answers exactly the queued jobs" queued
    (List.length (E.drain e))

let test_engine_parallel_workers_drain () =
  (* The daemon's worker loop, inlined: N domains block in
     wait_for_work, drain one job at a time, and stop after the
     backlog is gone. Every admitted solve must be answered exactly
     once. *)
  let e = fresh_engine () in
  let stop = Atomic.make false in
  let rm = Mutex.create () in
  let responses = ref [] in
  let workers =
    spawn_each test_domains (fun _ ->
        let rec loop () =
          if E.wait_for_work e ~stop:(fun () -> Atomic.get stop) then begin
            (match E.drain_next e with
             | [] -> ()
             | rs ->
               Mutex.lock rm;
               responses := rs @ !responses;
               Mutex.unlock rm);
            loop ()
          end
        in
        loop ())
  in
  let jobs = 12 in
  for i = 1 to jobs do
    assert (E.submit e (solve_req ~id:i ~reuse:Pr.No_reuse 60) = [])
  done;
  (* Busy-wait for the workers to drain, then release them. *)
  let rec settle budget =
    if E.queue_length e > 0 && budget > 0 then begin
      Domain.cpu_relax ();
      settle (budget - 1)
    end
  in
  settle 50_000_000;
  while
    Mutex.lock rm;
    let n = List.length !responses in
    Mutex.unlock rm;
    n < jobs
  do
    Domain.cpu_relax ()
  done;
  Atomic.set stop true;
  E.wake_all e;
  join_all workers;
  let ids =
    List.sort compare
      (List.map
         (function
           | Pr.Solved { id = Some i; _ } -> i
           | _ -> Alcotest.fail "expected solved responses")
         !responses)
  in
  Alcotest.(check (list int)) "every job answered exactly once"
    (List.init jobs (fun i -> i + 1))
    ids

(* A solve's effort counts are its own: a second domain solving in a
   loop beside it must not leak into them. The neighbour runs both
   the exact ILP and H32Jump, so a leak of pivots, nodes or
   evaluations would all show. *)
let test_effort_counts_own_domain () =
  let effort (o : S.outcome) =
    S.(o.telemetry.pivots, o.telemetry.nodes, o.telemetry.evaluations)
  in
  let solve spec target =
    S.run ~spec illustrating_instance
      ~objective:(Rentcost.Objective.min_cost ~target)
  in
  let ilp () = effort (solve S.Exact_ilp 130)
  and heuristic () = effort (solve (S.Heuristic H.H32_jump) 130) in
  let alone = (ilp (), heuristic ()) in
  let stop = Atomic.make false and started = Atomic.make false in
  let neighbour =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          ignore (solve S.Exact_ilp 90);
          ignore (solve (S.Heuristic H.H32_jump) 90);
          Atomic.set started true
        done)
  in
  let beside =
    Fun.protect
      ~finally:(fun () ->
        Atomic.set stop true;
        Domain.join neighbour)
      (fun () ->
        while not (Atomic.get started) do
          Domain.cpu_relax ()
        done;
        List.init 20 (fun _ ->
            let i = ilp () in
            (i, heuristic ())))
  in
  let counts = Alcotest.(triple int int int) in
  List.iteri
    (fun k (i, h) ->
      Alcotest.check counts
        (Printf.sprintf "ilp solve %d: pivots, nodes, evals" k)
        (fst alone) i;
      Alcotest.check counts
        (Printf.sprintf "h32jump solve %d: pivots, nodes, evals" k)
        (snd alone) h)
    beside

(* --- the parallel daemon under concurrent clients --- *)

let write_line fd s =
  (* One write per line: under PIPE_BUF, concurrent writers interleave
     at line granularity, never mid-line. *)
  let b = Bytes.of_string (s ^ "\n") in
  let n = Unix.write fd b 0 (Bytes.length b) in
  assert (n = Bytes.length b)

let request_line r = J.to_string (Pr.request_to_json r)

let parse_response line =
  match J.of_string line with
  | Error e -> Alcotest.fail ("torn or bad response json: " ^ e)
  | Ok j -> (
    match Pr.response_of_json j with
    | Error e -> Alcotest.fail ("bad response: " ^ e)
    | Ok r -> r)

(* Run a full daemon session over pipes: [writers] client domains each
   write [per_writer] solve requests concurrently, then the main
   domain appends Stats and Shutdown and serves with [workers]
   domains. Every solve is served exactly one way: a cold solve, a
   cache hit or a coalesced follower. Returns the parsed responses in
   arrival order. *)
let daemon_session ~workers ~writers ~per_writer =
  let served () =
    List.fold_left
      (fun acc name -> acc + Telemetry.value name)
      0
      Telemetry.[ service_cache_misses; service_cache_hits; service_coalesced ]
  in
  let served_before = served () in
  let req_read, req_write = Unix.pipe () in
  let resp_read, resp_write = Unix.pipe () in
  join_all
    (spawn_each writers (fun d ->
         for i = 1 to per_writer do
           let id = (d * 1000) + i in
           let reuse = if i mod 2 = 0 then Pr.Monotone else Pr.No_reuse in
           write_line req_write
             (request_line (solve_req ~id ~reuse (60 + (i mod 3))))
         done));
  write_line req_write (request_line Pr.Stats);
  write_line req_write (request_line Pr.Shutdown);
  Unix.close req_write;
  let engine = fresh_engine () in
  let dump = open_out Filename.null in
  let oc = Unix.out_channel_of_descr resp_write in
  Svc.Daemon.serve_channels ~engine ~dump ~workers
    (Unix.in_channel_of_descr req_read)
    oc;
  close_out dump;
  close_out oc;
  let ic = Unix.in_channel_of_descr resp_read in
  let rec read_lines acc =
    match input_line ic with
    | line -> read_lines (parse_response line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let responses = read_lines [] in
  close_in ic;
  Alcotest.(check int) "cold + hits + coalesced = solves"
    (writers * per_writer)
    (served () - served_before);
  responses

let solved_ids responses =
  List.sort compare
    (List.filter_map
       (function Pr.Solved { id; _ } -> id | _ -> None)
       responses)

let expected_ids ~writers ~per_writer =
  List.sort compare
    (List.concat_map
       (fun d -> List.init per_writer (fun i -> (d * 1000) + i + 1))
       (List.init writers Fun.id))

let test_parallel_daemon_stress () =
  let writers = max 2 test_domains and per_writer = 8 in
  let requests_before = Telemetry.value Telemetry.service_requests in
  let responses =
    daemon_session ~workers:(max 4 test_domains) ~writers ~per_writer
  in
  (* Every solve answered exactly once, no torn lines (parse_response
     already failed otherwise), Bye strictly last. *)
  Alcotest.(check (list int)) "every client id answered exactly once"
    (expected_ids ~writers ~per_writer)
    (solved_ids responses);
  (match List.rev responses with
   | Pr.Bye :: rest ->
     Alcotest.(check bool) "exactly one Bye" true
       (not (List.exists (function Pr.Bye -> true | _ -> false) rest))
   | _ -> Alcotest.fail "Bye must be the final response");
  Alcotest.(check bool) "stats answered during the session" true
    (List.exists (function Pr.Stats_reply _ -> true | _ -> false) responses);
  let requests_after = Telemetry.value Telemetry.service_requests in
  Alcotest.(check bool) "request counter saw every solve" true
    (requests_after - requests_before >= writers * per_writer)

let test_parallel_daemon_matches_sequential () =
  (* Same request stream through 1 worker and N workers: completion
     order may differ. No_reuse answers are cold solves and must match
     exactly. A Monotone answer may legally come from any cached split
     of a larger target, and which one is cached first depends on the
     schedule, so it is held to what that rung guarantees: a feasible
     allocation, costing what it claims, no cheaper than the target's
     optimum. *)
  let writers = 2 and per_writer = 6 in
  let target_of id = 60 + (id mod 1000 mod 3) in
  let monotone id = id mod 1000 mod 2 = 0 in
  let solved responses =
    List.sort compare
      (List.filter_map
         (function
           | Pr.Solved { id = Some id; cost; rho; machines; _ } ->
             Some (id, cost, rho, machines)
           | _ -> None)
         responses)
  in
  let cold answers =
    List.filter_map
      (fun (id, cost, _, _) -> if monotone id then None else Some (id, cost))
      answers
  in
  let optimum target =
    (Option.get (Rentcost.Ilp.optimize illustrating_instance ~target)
       .Rentcost.Ilp.allocation)
      .AL.cost
  in
  let check_monotone label answers =
    List.iter
      (fun (id, cost, rho, machines) ->
        if monotone id then begin
          let target = target_of id in
          let a = AL.make illustrating ~rho ~machines in
          let what = Printf.sprintf "%s monotone id %d" label id in
          Alcotest.(check bool) (what ^ " feasible") true
            (AL.feasible illustrating ~target a);
          Alcotest.(check int) (what ^ " costs what it claims") a.AL.cost cost;
          Alcotest.(check bool) (what ^ " no cheaper than the optimum") true
            (cost >= optimum target)
        end)
      answers
  in
  let sequential = solved (daemon_session ~workers:1 ~writers ~per_writer) in
  let parallel =
    solved
      (daemon_session ~workers:(max 4 test_domains) ~writers ~per_writer)
  in
  Alcotest.(check (list int)) "same ids answered as the sequential daemon"
    (List.map (fun (id, _, _, _) -> id) sequential)
    (List.map (fun (id, _, _, _) -> id) parallel);
  Alcotest.(check (list (pair int int)))
    "same (id, cost) No_reuse answers as the sequential daemon"
    (cold sequential) (cold parallel);
  check_monotone "sequential" sequential;
  check_monotone "parallel" parallel

let test_shutdown_drains_backlog () =
  (* All requests (shutdown included) are buffered in the pipe before
     the daemon starts: the reader reaches Shutdown while the queue
     still holds work, and must still answer everything before Bye. *)
  let responses = daemon_session ~workers:2 ~writers:1 ~per_writer:10 in
  Alcotest.(check (list int)) "backlog fully answered"
    (expected_ids ~writers:1 ~per_writer:10)
    (solved_ids responses);
  match List.rev responses with
  | Pr.Bye :: _ -> ()
  | _ -> Alcotest.fail "Bye must come after the drained backlog"

let test_daemon_cache_holds_its_capacity () =
  (* Four cold solves of one problem fill a 4-slot cache under two
     workers, and every replay is an exact hit: one fingerprint may use
     every slot whatever the worker count. The replays are sent only
     after the first round is answered, so none can ride an open
     flight. Exact_only keeps the first round cold, so every target is
     cached. *)
  let engine = fresh_engine ~cache_capacity:4 () in
  let req_read, req_write = Unix.pipe () in
  let resp_read, resp_write = Unix.pipe () in
  let daemon =
    Domain.spawn (fun () ->
        let dump = open_out Filename.null in
        let oc = Unix.out_channel_of_descr resp_write in
        Svc.Daemon.serve_channels ~engine ~dump ~workers:2
          (Unix.in_channel_of_descr req_read)
          oc;
        close_out dump;
        close_out oc)
  in
  let ic = Unix.in_channel_of_descr resp_read in
  let targets = [ 60; 70; 80; 90 ] in
  let round () =
    List.iteri
      (fun id target ->
        write_line req_write
          (request_line (solve_req ~id ~reuse:Pr.Exact_only target)))
      targets;
    List.sort compare
      (List.map
         (fun _ ->
           match parse_response (input_line ic) with
           | Pr.Solved { id = Some id; served; _ } ->
             (id, Pr.served_to_string served)
           | _ -> Alcotest.fail "expected a solved response")
         targets)
  in
  let first = round () in
  let replays = round () in
  write_line req_write (request_line Pr.Shutdown);
  Unix.close req_write;
  Domain.join daemon;
  close_in ic;
  Alcotest.(check (list (pair int string))) "first round solved cold"
    (List.mapi (fun id _ -> (id, "cold")) targets)
    first;
  Alcotest.(check (list (pair int string))) "every replay an exact hit"
    (List.mapi (fun id _ -> (id, "exact-hit")) targets)
    replays;
  Alcotest.(check int) "no evictions" 0 (Svc.Cache.evictions (E.cache engine))

(* Serve [lines] and then a shutdown through a daemon with [workers]
   workers; every reply, in the order written. *)
let serve_lines ~engine ~workers lines =
  let req_read, req_write = Unix.pipe () in
  let resp_read, resp_write = Unix.pipe () in
  List.iter (write_line req_write) (lines @ [ request_line Pr.Shutdown ]);
  Unix.close req_write;
  let dump = open_out Filename.null in
  let oc = Unix.out_channel_of_descr resp_write in
  Svc.Daemon.serve_channels ~engine ~dump ~workers
    (Unix.in_channel_of_descr req_read)
    oc;
  close_out dump;
  close_out oc;
  let ic = Unix.in_channel_of_descr resp_read in
  let rec read_all acc =
    match input_line ic with
    | line -> read_all (parse_response line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let responses = read_all [] in
  close_in ic;
  responses

let bad_inline ~id =
  Printf.sprintf
    {|{"op":"solve","id":%d,"trace_id":"bad-%d","problem":"types x","target":60}|}
    id id

let test_decode_error_echoes_id () =
  (* Under two workers, replies arrive in completion order, so a
     request that fails to decode must say which one it was. *)
  let responses =
    serve_lines ~engine:(fresh_engine ()) ~workers:2
      [ {|{"op":"solve","id":1,"trace_id":"bad-1","ref":"app","target":"sixty"}|};
        request_line (solve_req ~id:2 60) ]
  in
  (match
     List.filter_map
       (function
         | Pr.Error { id; trace_id; message } -> Some (id, trace_id, message)
         | _ -> None)
       responses
   with
   | [ (id, trace_id, message) ] ->
     Alcotest.(check (option int)) "error carries the bad request's id"
       (Some 1) id;
     Alcotest.(check (option string)) "and its trace id" (Some "bad-1")
       trace_id;
     Alcotest.(check bool) ("names the field: " ^ message) true
       (String.starts_with ~prefix:{|solve: bad "target"|} message)
   | _ -> Alcotest.fail "expected exactly one error response");
  Alcotest.(check (list int)) "the good request solved" [ 2 ]
    (solved_ids responses)

(* Malformed inline text is parsed when the solve is served, not when
   it is decoded: it still answers its own error under its id and
   trace id, whatever the worker count, and a failed parse leaves no
   entry behind, however often it is sent. *)
let test_malformed_inline_text () =
  List.iter
    (fun workers ->
      let engine = fresh_engine () in
      let responses =
        serve_lines ~engine ~workers
          [ bad_inline ~id:1; request_line (solve_req ~id:2 60); bad_inline ~id:3 ]
      in
      let errors =
        List.filter_map
          (function
            | Pr.Error { id; trace_id; message } -> Some (id, trace_id, message)
            | _ -> None)
          responses
      in
      let what = Printf.sprintf "%d worker(s): %s" workers in
      Alcotest.(check (list (pair (option int) (option string))))
        (what "errors carry their ids and trace ids")
        [ (Some 1, Some "bad-1"); (Some 3, Some "bad-3") ]
        (List.sort compare (List.map (fun (id, tr, _) -> (id, tr)) errors));
      List.iter
        (fun (_, _, message) ->
          Alcotest.(check bool) (what ("names the line: " ^ message)) true
            (String.starts_with ~prefix:"solve: Problem_format: line 1" message))
        errors;
      Alcotest.(check (list int)) (what "the good request solved") [ 2 ]
        (solved_ids responses);
      let stat name =
        match List.assoc_opt name (E.stats engine) with
        | Some (J.Int n) -> n
        | _ -> Alcotest.failf "stats carry no integer %S" name
      in
      Alcotest.(check int) (what "no text kept") 0 (stat "inline_texts");
      Alcotest.(check int) (what "only the registered instance") 1
        (stat "instances"))
    [ 1; 2 ]

let suite =
  ( "parallel",
    [ Alcotest.test_case "shared cache bounded and digest-correct under race"
        `Quick test_shared_cache_race;
      Alcotest.test_case "engine drain_next and wait_for_work" `Quick
        test_engine_drain_next_and_wait;
      Alcotest.test_case "engine admission race stays exact" `Quick
        test_engine_submit_race;
      Alcotest.test_case "engine parallel workers drain the queue" `Quick
        test_engine_parallel_workers_drain;
      Alcotest.test_case "effort counts its own domain only" `Quick
        test_effort_counts_own_domain;
      Alcotest.test_case "parallel daemon under concurrent clients" `Quick
        test_parallel_daemon_stress;
      Alcotest.test_case "parallel daemon matches sequential answers" `Quick
        test_parallel_daemon_matches_sequential;
      Alcotest.test_case "shutdown drains the backlog before Bye" `Quick
        test_shutdown_drains_backlog;
      Alcotest.test_case "daemon cache holds its capacity under workers"
        `Quick test_daemon_cache_holds_its_capacity;
      Alcotest.test_case "decode errors echo id and trace id" `Quick
        test_decode_error_echoes_id;
      Alcotest.test_case "malformed inline text errors at solve time" `Quick
        test_malformed_inline_text ] )
