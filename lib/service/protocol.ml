module Solver = Rentcost.Solver
module Budget = Rentcost.Budget
module Objective = Rentcost.Objective
module Pricebook = Rentcost.Pricebook
module Problem_format = Rentcost.Problem_format
module Controller = Rentcost_autoscale.Controller

type reuse =
  | No_reuse
  | Exact_only
  | Warm
  | Monotone

let reuse_to_string = function
  | No_reuse -> "none"
  | Exact_only -> "exact"
  | Warm -> "warm"
  | Monotone -> "monotone"

let reuse_of_string s =
  match String.lowercase_ascii s with
  | "none" -> Some No_reuse
  | "exact" -> Some Exact_only
  | "warm" -> Some Warm
  | "monotone" -> Some Monotone
  | _ -> None

type source =
  | Ref of string
  | Inline of string

type request =
  | Register of { name : string; problem : Rentcost.Problem.t }
  | Solve of {
      id : int option;
      trace_id : string option;
          (* client-supplied request trace id; the engine assigns one
             when absent and echoes it in every response *)
      tenant : string option;  (* labels the per-tenant request counters *)
      source : source;
      objective : Objective.t;
      pricebook : Pricebook.t option;
      spec : Solver.spec;
      budget : Budget.t option;
      reuse : reuse;
    }
  | Track of {
      session : string;
      source : source;
      ticks_per_hour : int;
      deadband : float;
      headroom : float;
      spec : Solver.spec;
    }
  | Tick of { id : int option; session : string; demand : int }
  | Untrack of { session : string }
  | Stats
  | Metrics
  | Audit of { last : int option }
  | Shutdown

type served =
  | Cold
  | Exact_hit
  | Monotone_hit
  | Warm_started
  | Coalesced

let served_to_string = function
  | Cold -> "cold"
  | Exact_hit -> "exact-hit"
  | Monotone_hit -> "monotone-hit"
  | Warm_started -> "warm-started"
  | Coalesced -> "coalesced"

let served_of_string = function
  | "cold" -> Some Cold
  | "exact-hit" -> Some Exact_hit
  | "monotone-hit" -> Some Monotone_hit
  | "warm-started" -> Some Warm_started
  | "coalesced" -> Some Coalesced
  | _ -> None

type response =
  | Solved of {
      id : int option;
      trace_id : string option;
      status : Solver.status;
      cost : int;
      rho : int array;
      machines : int array;
      served : served;
      engine : string;
      wall_time : float;
    }
  | Registered of { name : string; fingerprint : string }
  | Tracking of { session : string; fingerprint : string }
  | Plan of {
      id : int option;
      session : string;
      plan : Controller.plan;
      total_charged : int;
    }
  | Untracked of {
      session : string;
      ticks : int;
      replans : int;
      holds : int;
      violations : int;
      total_charged : int;
    }
  | Stats_reply of (string * Json.t) list
  | Metrics_reply of { metrics : Json.t; text : string }
  | Audit_reply of Audit.record list
  | Overloaded of {
      id : int option;
      trace_id : string option;
      retry_after_ms : int option;
    }
  | Error of { id : int option; trace_id : string option; message : string }
  | Bye

let status_of_string = function
  | "optimal" -> Some Solver.Optimal
  | "feasible" -> Some Solver.Feasible
  | "budget-exhausted" -> Some Solver.Budget_exhausted
  | "infeasible" -> Some Solver.Infeasible
  | _ -> None

(* --- request decoding --- *)

let ( let* ) = Result.bind

let parse_problem ~what text =
  match Problem_format.of_string text with
  | p -> Ok p
  | exception Failure msg -> Result.Error (Printf.sprintf "%s: %s" what msg)
  | exception Invalid_argument msg -> Result.Error (Printf.sprintf "%s: %s" what msg)

let load_problem path =
  match Problem_format.load path with
  | p -> Ok p
  | exception Sys_error msg -> Result.Error (Printf.sprintf "register: %s" msg)
  | exception Failure msg -> Result.Error (Printf.sprintf "register: %s: %s" path msg)
  | exception Invalid_argument msg ->
    Result.Error (Printf.sprintf "register: %s: %s" path msg)

(* One request field, typed. An absent key is [Ok None]; a key present
   with another JSON type ([null] included) is an error that names the
   field. A mistyped field is never read as absent, so a client's cap,
   deadline or policy is never silently replaced by its default. *)
let optional ~what (coerce, expected) key j =
  match Json.member key j with
  | None -> Ok None
  | Some v -> (
    match coerce v with
    | Some x -> Ok (Some x)
    | None ->
      Result.Error (Printf.sprintf "%s: bad %S: expected %s" what key expected))

let integer = (Json.to_int, "an integer")
let number = (Json.to_float, "a number")
let text = (Json.to_str, "a string")

let decode_register j =
  let field kind key = optional ~what:"register" kind key j in
  let* name = field text "name" in
  let* name = Option.to_result ~none:"register: missing \"name\"" name in
  let* problem_text = field text "problem" in
  let* path = field text "path" in
  let* problem =
    match (problem_text, path) with
    | Some text, None -> parse_problem ~what:"register" text
    | None, Some path -> load_problem path
    | Some _, Some _ -> Result.Error "register: give \"problem\" or \"path\", not both"
    | None, None -> Result.Error "register: missing \"problem\" or \"path\""
  in
  Ok (Register { name; problem })

let decode_budget j =
  let field kind key = optional ~what:"solve" kind key j in
  let* deadline = field number "deadline" in
  let* node_cap = field integer "nodes" in
  let* eval_cap = field integer "evals" in
  let* () =
    match deadline with
    | Some d when d < 0.0 -> Result.Error "solve: negative \"deadline\""
    | _ -> Ok ()
  in
  let* () =
    match (node_cap, eval_cap) with
    | Some n, _ when n < 0 -> Result.Error "solve: negative \"nodes\""
    | _, Some n when n < 0 -> Result.Error "solve: negative \"evals\""
    | _ -> Ok ()
  in
  match (deadline, node_cap, eval_cap) with
  | None, None, None -> Ok None
  | _ -> Ok (Some { Budget.deadline; node_cap; eval_cap })

let parse_pricebook ~what text =
  match Pricebook.of_string text with
  | pb -> Ok pb
  | exception Failure msg -> Result.Error (Printf.sprintf "%s: %s" what msg)
  | exception Invalid_argument msg ->
    Result.Error (Printf.sprintf "%s: %s" what msg)

let load_pricebook path =
  match Pricebook.load path with
  | pb -> Ok pb
  | exception Sys_error msg -> Result.Error (Printf.sprintf "solve: %s" msg)
  | exception Failure msg -> Result.Error (Printf.sprintf "solve: %s: %s" path msg)
  | exception Invalid_argument msg ->
    Result.Error (Printf.sprintf "solve: %s: %s" path msg)

let decode_objective j =
  let field kind key = optional ~what:"solve" kind key j in
  let* kind = field text "objective" in
  let* kind =
    match kind with
    | None -> Ok `Min_cost
    | Some s ->
      Option.to_result
        ~none:(Printf.sprintf "solve: unknown objective %S" s)
        (Objective.kind_of_string s)
  in
  match kind with
  | `Min_cost ->
    let* target = field integer "target" in
    let* target =
      Option.to_result ~none:"solve: missing integer \"target\"" target
    in
    let* () =
      if target < 0 then Result.Error "solve: negative \"target\"" else Ok ()
    in
    Ok (Objective.min_cost ~target)
  | `Max_throughput ->
    let* budget = field integer "budget" in
    let* budget =
      Option.to_result
        ~none:"solve: objective \"max-throughput\" needs integer \"budget\""
        budget
    in
    let* () =
      if budget < 0 then Result.Error "solve: negative \"budget\"" else Ok ()
    in
    Ok (Objective.max_throughput ~budget)

let decode_pricebook j =
  let* book = optional ~what:"solve" text "pricebook" j in
  let* path = optional ~what:"solve" text "pricebook_path" j in
  match (book, path) with
  | None, None -> Ok None
  | Some text, None ->
    let* pb = parse_pricebook ~what:"solve" text in
    Ok (Some pb)
  | None, Some path ->
    let* pb = load_pricebook path in
    Ok (Some pb)
  | Some _, Some _ ->
    Result.Error "solve: give \"pricebook\" or \"pricebook_path\", not both"

(* The problem a solve or track names: a registered "ref" or an inline
   "problem", exactly one of them. Inline text is kept as sent; the
   engine parses it the first time it sees it. *)
let decode_source ~what j =
  let* name = optional ~what text "ref" j in
  let* problem = optional ~what text "problem" j in
  match (name, problem) with
  | Some name, None -> Ok (Ref name)
  | None, Some text -> Ok (Inline text)
  | Some _, Some _ ->
    Result.Error (Printf.sprintf "%s: give \"ref\" or \"problem\", not both" what)
  | None, None -> Result.Error (Printf.sprintf "%s: missing \"ref\" or \"problem\"" what)

let decode_spec ~what j =
  let* spec = optional ~what text "spec" j in
  match spec with
  | None -> Ok Solver.Auto
  | Some s ->
    Option.to_result
      ~none:(Printf.sprintf "%s: unknown spec %S" what s)
      (Solver.spec_of_string s)

let decode_solve j =
  let field kind key = optional ~what:"solve" kind key j in
  let* id = field integer "id" in
  let* trace_id = field text "trace_id" in
  let* tenant = field text "tenant" in
  let* source = decode_source ~what:"solve" j in
  let* objective = decode_objective j in
  let* pricebook = decode_pricebook j in
  let* spec = decode_spec ~what:"solve" j in
  let* reuse = field text "reuse" in
  let* reuse =
    match reuse with
    | None -> Ok Monotone
    | Some s ->
      Option.to_result
        ~none:(Printf.sprintf "solve: unknown reuse policy %S" s)
        (reuse_of_string s)
  in
  let* budget = decode_budget j in
  Ok (Solve { id; trace_id; tenant; source; objective; pricebook; spec; budget; reuse })

let decode_audit j =
  let* last = optional ~what:"audit" integer "last" j in
  match last with
  | Some n when n < 0 -> Result.Error "audit: negative \"last\""
  | last -> Ok (Audit { last })

let decode_session ~what j =
  let* session = optional ~what text "session" j in
  Ok (Option.value ~default:"default" session)

let decode_track j =
  let field kind key = optional ~what:"track" kind key j in
  let* session = decode_session ~what:"track" j in
  let* source = decode_source ~what:"track" j in
  let* ticks_per_hour = field integer "ticks_per_hour" in
  let* ticks_per_hour =
    match ticks_per_hour with
    | None -> Ok Controller.default_config.Controller.ticks_per_hour
    | Some n when n > 0 -> Ok n
    | Some _ -> Result.Error "track: \"ticks_per_hour\" must be > 0"
  in
  let* deadband = field number "deadband" in
  let* deadband =
    match deadband with
    | None -> Ok Controller.default_config.Controller.deadband
    | Some d when Float.is_finite d && d >= 0. && d < 1. -> Ok d
    | Some _ -> Result.Error "track: \"deadband\" must lie in [0, 1)"
  in
  let* headroom = field number "headroom" in
  let* headroom =
    match headroom with
    | None -> Ok Controller.default_config.Controller.headroom
    | Some h when Float.is_finite h && h >= 0. -> Ok h
    | Some _ -> Result.Error "track: \"headroom\" must be >= 0"
  in
  let* spec = decode_spec ~what:"track" j in
  Ok (Track { session; source; ticks_per_hour; deadband; headroom; spec })

let decode_tick j =
  let field kind key = optional ~what:"tick" kind key j in
  let* id = field integer "id" in
  let* session = decode_session ~what:"tick" j in
  let* demand = field integer "demand" in
  let* demand =
    match demand with
    | Some d when d >= 0 -> Ok d
    | Some _ -> Result.Error "tick: negative \"demand\""
    | None -> Result.Error "tick: missing integer \"demand\""
  in
  Ok (Tick { id; session; demand })

let decode_untrack j =
  let* session = decode_session ~what:"untrack" j in
  Ok (Untrack { session })

let request_of_json j =
  (* Every request is versioned; an absent "version" means 1. Unknown
     versions are rejected up front with a structured error, so future
     protocol fields stay forward-compatible. *)
  let* () =
    match Json.member "version" j with
    | None -> Ok ()
    | Some v ->
      (match Json.to_int v with
       | Some 1 -> Ok ()
       | Some n ->
         Result.Error
           (Printf.sprintf "unsupported protocol version %d (supported: 1)" n)
       | None -> Result.Error "bad \"version\": expected an integer")
  in
  match Json.get_string "op" j with
  | None -> Result.Error "missing \"op\""
  | Some "register" -> decode_register j
  | Some "solve" -> decode_solve j
  | Some "track" -> decode_track j
  | Some "tick" -> decode_tick j
  | Some "untrack" -> decode_untrack j
  | Some "stats" -> Ok Stats
  | Some "metrics" -> Ok Metrics
  | Some "audit" -> decode_audit j
  | Some "shutdown" -> Ok Shutdown
  | Some op -> Result.Error (Printf.sprintf "unknown op %S" op)

(* --- request encoding (clients, tests) --- *)

let opt_field key enc = function None -> [] | Some v -> [ (key, enc v) ]

(* An inline problem goes back out as the very text it arrived as. *)
let source_field = function
  | Ref name -> ("ref", Json.String name)
  | Inline text -> ("problem", Json.String text)

let request_to_json = function
  | Register { name; problem } ->
    Json.Obj
      [
        ("op", Json.String "register");
        ("name", Json.String name);
        ("problem", Json.String (Problem_format.to_string problem));
      ]
  | Solve { id; trace_id; tenant; source; objective; pricebook; spec; budget; reuse }
    ->
    (* Min-cost keeps the historical shape (a bare "target"), so v1
       clients and transcripts stay byte-compatible. *)
    let objective_fields =
      match objective with
      | Objective.Min_cost { target } -> [ ("target", Json.Int target) ]
      | Objective.Max_throughput { budget } ->
        [ ("objective", Json.String "max-throughput");
          ("budget", Json.Int budget) ]
    in
    let pricebook_field =
      opt_field "pricebook"
        (fun pb -> Json.String (Pricebook.to_string pb))
        pricebook
    in
    let budget_fields =
      match budget with
      | None -> []
      | Some b ->
        opt_field "deadline" (fun d -> Json.Float d) b.Budget.deadline
        @ opt_field "nodes" (fun n -> Json.Int n) b.Budget.node_cap
        @ opt_field "evals" (fun n -> Json.Int n) b.Budget.eval_cap
    in
    Json.Obj
      ([ ("op", Json.String "solve") ]
      @ opt_field "id" (fun i -> Json.Int i) id
      @ opt_field "trace_id" (fun s -> Json.String s) trace_id
      @ opt_field "tenant" (fun s -> Json.String s) tenant
      @ (source_field source :: objective_fields)
      @ pricebook_field
      @ [
          ("spec", Json.String (Solver.spec_to_string spec));
          ("reuse", Json.String (reuse_to_string reuse));
        ]
      @ budget_fields)
  | Track { session; source; ticks_per_hour; deadband; headroom; spec } ->
    Json.Obj
      [
        ("op", Json.String "track");
        ("session", Json.String session);
        source_field source;
        ("ticks_per_hour", Json.Int ticks_per_hour);
        ("deadband", Json.Float deadband);
        ("headroom", Json.Float headroom);
        ("spec", Json.String (Solver.spec_to_string spec));
      ]
  | Tick { id; session; demand } ->
    Json.Obj
      ([ ("op", Json.String "tick") ]
      @ opt_field "id" (fun i -> Json.Int i) id
      @ [ ("session", Json.String session); ("demand", Json.Int demand) ])
  | Untrack { session } ->
    Json.Obj
      [ ("op", Json.String "untrack"); ("session", Json.String session) ]
  | Stats -> Json.Obj [ ("op", Json.String "stats") ]
  | Metrics -> Json.Obj [ ("op", Json.String "metrics") ]
  | Audit { last } ->
    Json.Obj
      ([ ("op", Json.String "audit") ]
      @ opt_field "last" (fun n -> Json.Int n) last)
  | Shutdown -> Json.Obj [ ("op", Json.String "shutdown") ]

(* --- response encoding --- *)

let int_array a = Json.List (Array.to_list (Array.map (fun i -> Json.Int i) a))

let response_to_json = function
  | Solved
      { id; trace_id; status; cost; rho; machines; served; engine; wall_time }
    ->
    Json.Obj
      (opt_field "id" (fun i -> Json.Int i) id
      @ opt_field "trace_id" (fun s -> Json.String s) trace_id
      @ [
          ("ok", Json.Bool true);
          ("status", Json.String (Solver.status_to_string status));
          ("cost", Json.Int cost);
          ("rho", int_array rho);
          ("machines", int_array machines);
          ("throughput", Json.Int (Array.fold_left ( + ) 0 rho));
          ("served", Json.String (served_to_string served));
          ("engine", Json.String engine);
          ("wall_time", Json.Float wall_time);
        ])
  | Registered { name; fingerprint } ->
    Json.Obj
      [
        ("ok", Json.Bool true);
        ("registered", Json.String name);
        ("fingerprint", Json.String fingerprint);
      ]
  | Tracking { session; fingerprint } ->
    Json.Obj
      [
        ("ok", Json.Bool true);
        ("tracking", Json.String session);
        ("fingerprint", Json.String fingerprint);
      ]
  | Plan { id; session; plan; total_charged } ->
    Json.Obj
      (opt_field "id" (fun i -> Json.Int i) id
      @ [
          ("ok", Json.Bool true);
          ("session", Json.String session);
          ("tick", Json.Int plan.Controller.tick);
          ("demand", Json.Int plan.Controller.demand);
          ("target", Json.Int plan.Controller.target);
          ( "action",
            Json.String (Controller.action_to_string plan.Controller.action) );
          ("rent", int_array plan.Controller.rent);
          ("renew", int_array plan.Controller.renew);
          ("release", int_array plan.Controller.release);
          ("machines", int_array plan.Controller.machines);
          ("rho", int_array plan.Controller.rho);
          ("charged", Json.Int plan.Controller.charged);
          ("total_charged", Json.Int total_charged);
          ("violation", Json.Bool plan.Controller.violation);
        ])
  | Untracked { session; ticks; replans; holds; violations; total_charged } ->
    Json.Obj
      [
        ("ok", Json.Bool true);
        ("untracked", Json.String session);
        ("ticks", Json.Int ticks);
        ("replans", Json.Int replans);
        ("holds", Json.Int holds);
        ("violations", Json.Int violations);
        ("total_charged", Json.Int total_charged);
      ]
  | Stats_reply fields ->
    Json.Obj [ ("ok", Json.Bool true); ("stats", Json.Obj fields) ]
  | Metrics_reply { metrics; text } ->
    Json.Obj
      [
        ("ok", Json.Bool true);
        ("metrics", metrics);
        ("text", Json.String text);
      ]
  | Audit_reply records ->
    Json.Obj
      [
        ("ok", Json.Bool true);
        ("audit", Json.List (List.map Audit.record_to_json records));
      ]
  | Overloaded { id; trace_id; retry_after_ms } ->
    Json.Obj
      (opt_field "id" (fun i -> Json.Int i) id
      @ opt_field "trace_id" (fun s -> Json.String s) trace_id
      @ [ ("ok", Json.Bool false); ("status", Json.String "overloaded") ]
      @ opt_field "retry_after_ms" (fun n -> Json.Int n) retry_after_ms)
  | Error { id; trace_id; message } ->
    Json.Obj
      (opt_field "id" (fun i -> Json.Int i) id
      @ opt_field "trace_id" (fun s -> Json.String s) trace_id
      @ [ ("ok", Json.Bool false); ("error", Json.String message) ])
  | Bye -> Json.Obj [ ("ok", Json.Bool true); ("status", Json.String "bye") ]

(* --- response decoding (clients, tests) --- *)

let decode_int_array = function
  | Json.List items ->
    let rec go acc = function
      | [] -> Some (Array.of_list (List.rev acc))
      | v :: rest -> (
        match Json.to_int v with
        | Some i -> go (i :: acc) rest
        | None -> None)
    in
    go [] items
  | _ -> None

let rec response_of_json j =
  let id = Json.get_int "id" j in
  let trace_id = Json.get_string "trace_id" j in
  match Json.get_string "error" j with
  | Some message -> Ok (Error { id; trace_id; message })
  | None -> (
    match (Json.get_string "status" j, Json.member "cost" j) with
    | Some "overloaded", _ ->
      Ok
        (Overloaded
           { id; trace_id; retry_after_ms = Json.get_int "retry_after_ms" j })
    | Some "bye", _ -> Ok Bye
    | Some status_s, Some _ ->
      let* status =
        Option.to_result
          ~none:(Printf.sprintf "unknown status %S" status_s)
          (status_of_string status_s)
      in
      let field name coerce =
        Option.to_result
          ~none:(Printf.sprintf "missing or bad %S" name)
          (Option.bind (Json.member name j) coerce)
      in
      let* cost = field "cost" Json.to_int in
      let* rho = field "rho" decode_int_array in
      let* machines = field "machines" decode_int_array in
      let* served_s = field "served" Json.to_str in
      let* served =
        Option.to_result
          ~none:(Printf.sprintf "unknown served tag %S" served_s)
          (served_of_string served_s)
      in
      let* engine = field "engine" Json.to_str in
      let* wall_time = field "wall_time" Json.to_float in
      Ok
        (Solved
           { id; trace_id; status; cost; rho; machines; served; engine; wall_time })
    | _ -> (
      match (Json.get_string "registered" j, Json.member "stats" j) with
      | Some name, _ ->
        let* fingerprint =
          Option.to_result ~none:"missing \"fingerprint\""
            (Json.get_string "fingerprint" j)
        in
        Ok (Registered { name; fingerprint })
      | None, Some (Json.Obj fields) -> Ok (Stats_reply fields)
      | None, None -> (
        match Json.member "metrics" j with
        | Some metrics ->
          let* text =
            Option.to_result ~none:"missing \"text\""
              (Json.get_string "text" j)
          in
          Ok (Metrics_reply { metrics; text })
        | None -> (
          match Json.member "audit" j with
          | Some (Json.List items) ->
            let* records =
              List.fold_left
                (fun acc item ->
                  let* acc = acc in
                  let* r = Audit.record_of_json item in
                  Ok (r :: acc))
                (Ok []) items
              |> Result.map List.rev
            in
            Ok (Audit_reply records)
          | Some _ -> Result.Error "bad \"audit\": expected a list"
          | None -> decode_track_response ~id j))
      | _ -> Result.Error "unrecognized response shape"))

and decode_track_response ~id j =
  let field name coerce =
    Option.to_result
      ~none:(Printf.sprintf "missing or bad %S" name)
      (Option.bind (Json.member name j) coerce)
  in
  match
    (Json.get_string "tracking" j, Json.get_string "untracked" j,
     Json.get_string "action" j)
  with
  | Some session, _, _ ->
    let* fingerprint =
      Option.to_result ~none:"missing \"fingerprint\""
        (Json.get_string "fingerprint" j)
    in
    Ok (Tracking { session; fingerprint })
  | None, Some session, _ ->
    let* ticks = field "ticks" Json.to_int in
    let* replans = field "replans" Json.to_int in
    let* holds = field "holds" Json.to_int in
    let* violations = field "violations" Json.to_int in
    let* total_charged = field "total_charged" Json.to_int in
    Ok (Untracked { session; ticks; replans; holds; violations; total_charged })
  | None, None, Some action_s ->
    let* action =
      Option.to_result
        ~none:(Printf.sprintf "unknown action %S" action_s)
        (Controller.action_of_string action_s)
    in
    let* session =
      Option.to_result ~none:"missing \"session\""
        (Json.get_string "session" j)
    in
    let* tick = field "tick" Json.to_int in
    let* demand = field "demand" Json.to_int in
    let* target = field "target" Json.to_int in
    let* rent = field "rent" decode_int_array in
    let* renew = field "renew" decode_int_array in
    let* release = field "release" decode_int_array in
    let* machines = field "machines" decode_int_array in
    let* rho = field "rho" decode_int_array in
    let* charged = field "charged" Json.to_int in
    let* total_charged = field "total_charged" Json.to_int in
    let* violation =
      Option.to_result ~none:"missing or bad \"violation\""
        (Option.bind (Json.member "violation" j) Json.to_bool)
    in
    Ok
      (Plan
         {
           id;
           session;
           total_charged;
           plan =
             {
               Controller.tick;
               demand;
               target;
               action;
               rent;
               renew;
               release;
               machines;
               rho;
               charged;
               violation;
             };
         })
  | None, None, None -> Result.Error "unrecognized response shape"
