let is_blank line = String.trim line = ""

let respond oc response =
  output_string oc (Json.to_string (Protocol.response_to_json response));
  output_char oc '\n';
  flush oc

(* The shutdown dump is the [metrics] exposition with the engine's
   stats folded in — one JSON line, same encoding either way. *)
let dump_stats dump engine =
  output_string dump
    (Json.to_string
       (Json.Obj
          [
            ("stats", Json.Obj (Engine.stats engine));
            ("metrics", Metrics.json ());
          ]));
  output_char dump '\n';
  flush dump

(* One connection: read request lines until shutdown or EOF. Only
   what happens to a parsed request depends on [workers]. With one
   worker the reader answers it inline through [Engine.handle], in
   arrival order. With more, the reader only routes: solves are
   enqueued through [Engine.submit] and answered by whichever worker
   domain drains them, so responses come back in completion order —
   clients correlate by id. One mutex around [respond] keeps each JSON
   line whole. Shutdown (request or EOF) flips the stop flag and wakes
   the workers, which drain the remaining queue before exiting — a
   shutdown with a non-empty queue still answers everything, and Bye
   is the last response. *)
let serve_connection engine ~workers ic oc =
  let om = Mutex.create () in
  let respond r = Mutex.protect om (fun () -> respond oc r) in
  let stop = Atomic.make false in
  let worker () =
    while Engine.wait_for_work engine ~stop:(fun () -> Atomic.get stop) do
      (* A vanished client must not kill the worker — keep draining so
         shutdown still converges. *)
      List.iter
        (fun r -> try respond r with Sys_error _ | Unix.Unix_error _ -> ())
        (Engine.drain_next engine)
    done
  in
  let worker_domains =
    if workers = 1 then [] else List.init workers (fun _ -> Domain.spawn worker)
  in
  let joined = ref false in
  let join_workers () =
    if not !joined then begin
      joined := true;
      Atomic.set stop true;
      Engine.wake_all engine;
      List.iter Domain.join worker_domains
    end
  in
  let dispatch request =
    if workers = 1 then List.iter respond (Engine.handle engine request)
    else begin
      (* Workers finish the backlog first, so Bye really is last. *)
      (match request with Protocol.Shutdown -> join_workers () | _ -> ());
      (* [] = admitted or coalesced onto an open flight; a worker
         answers it. Non-empty = immediate-op replies or the
         [Overloaded] responses sheds and evictions now owe. *)
      List.iter respond (Engine.submit engine request)
    end
  in
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> `Eof
    | line when is_blank line -> loop ()
    | line -> (
      match Json.of_string line with
      | Error msg ->
        respond
          (Protocol.Error
             { id = None; trace_id = None; message = "bad json: " ^ msg });
        loop ()
      | Ok json -> (
        match Protocol.request_of_json json with
        | Error message ->
          (* Replies may come back out of order, so a request that
             fails to decode still carries its id and trace id. *)
          respond
            (Protocol.Error
               { id = Json.get_int "id" json;
                 trace_id = Json.get_string "trace_id" json; message });
          loop ()
        | Ok Protocol.Shutdown ->
          dispatch Protocol.Shutdown;
          `Stop
        | Ok request ->
          dispatch request;
          loop ()))
  in
  (* Whatever ends the connection — EOF, shutdown, a client that
     vanished mid-line — the workers are joined before we return, so
     the socket accept loop never accumulates orphan domains. *)
  Fun.protect ~finally:join_workers loop

let make_engine ?audit engine config =
  let e = match engine with Some e -> e | None -> Engine.create ?config () in
  (match audit with
   | Some path -> Audit.open_file (Engine.audit e) path
   | None -> ());
  e

let check_workers workers =
  if workers < 1 then invalid_arg "Daemon: workers < 1"

let serve_channels ?engine ?config ?(dump = stderr) ?(workers = 1) ?audit ic
    oc =
  check_workers workers;
  let engine = make_engine ?audit engine config in
  let (_ : [ `Eof | `Stop ]) = serve_connection engine ~workers ic oc in
  dump_stats dump engine;
  Audit.close (Engine.audit engine)

let serve_socket ?engine ?config ?(dump = stderr) ?(workers = 1) ?audit ~path
    () =
  check_workers workers;
  let engine = make_engine ?audit engine config in
  (match Sys.signal Sys.sigpipe Sys.Signal_ignore with
   | (_ : Sys.signal_behavior) -> ()
   | exception Invalid_argument _ -> ());
  if Sys.file_exists path then Sys.remove path;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      (try Sys.remove path with Sys_error _ -> ());
      dump_stats dump engine;
      Audit.close (Engine.audit engine))
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 8;
      let rec accept_loop () =
        let client, _addr = Unix.accept sock in
        let ic = Unix.in_channel_of_descr client
        and oc = Unix.out_channel_of_descr client in
        let verdict =
          try serve_connection engine ~workers ic oc
          with Sys_error _ | Unix.Unix_error _ ->
            (* A client that vanished mid-line is its own problem. *)
            `Eof
        in
        (try Unix.close client with Unix.Unix_error _ -> ());
        match verdict with `Eof -> accept_loop () | `Stop -> ()
      in
      accept_loop ())
