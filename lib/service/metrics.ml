(* One shared exposition of the Telemetry state, used by the daemon's
   [metrics] request, the shutdown dump and the [rentcost stats] CLI —
   one encoding, three consumers. Deliberately independent of Engine:
   the engine passes its own stats snapshot in, so this module sits
   below it in the dependency order. *)

(* --- spans --- *)

let span_to_json (s : Telemetry.Span.t) =
  let attrs =
    match s.Telemetry.Span.attrs with
    | [] -> []
    | kvs ->
      [ ("attrs", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) kvs)) ]
  in
  Json.Obj
    ([
       ("id", Json.Int s.Telemetry.Span.id);
       ("parent", Json.Int s.Telemetry.Span.parent);
       ("depth", Json.Int s.Telemetry.Span.depth);
       ("name", Json.String s.Telemetry.Span.name);
       ("start", Json.Float s.Telemetry.Span.start);
       ("duration", Json.Float s.Telemetry.Span.duration);
     ]
    @ attrs)

(* --- aggregate exposition --- *)

let histogram_to_json (h : Telemetry.histogram_snapshot) =
  Json.Obj
    [
      ("name", Json.String h.Telemetry.h_name);
      ( "bounds",
        Json.List
          (Array.to_list
             (Array.map (fun b -> Json.Float b) h.Telemetry.h_bounds)) );
      ( "counts",
        Json.List
          (Array.to_list (Array.map (fun c -> Json.Int c) h.Telemetry.h_counts))
      );
      ("sum", Json.Float h.Telemetry.h_sum);
      ("count", Json.Int h.Telemetry.h_count);
    ]

let json ?stats () =
  let counters =
    List.map (fun (name, v) -> (name, Json.Int v)) (Telemetry.all ())
  in
  let gauges =
    List.map (fun (name, v) -> (name, Json.Float v)) (Telemetry.gauges ())
  in
  let histograms = List.map histogram_to_json (Telemetry.histograms ()) in
  let spans = List.map span_to_json (Telemetry.Span.recent ()) in
  (* Numeric health at a glance: which LP engine answers first and how
     many relaxations the exact fallback had to take over. The counters
     also appear under "counters"; this section names the engines so a
     scrape needs no out-of-band knowledge of the fallback protocol. *)
  let numeric =
    Json.Obj
      [
        ("fast_kernel", Json.String Lp.Simplex.fast_kernel);
        ("exact_kernel", Json.String Lp.Simplex.exact_kernel);
        ("fast_solves", Json.Int (Telemetry.value Telemetry.numeric_fast_solves));
        ("fallbacks", Json.Int (Telemetry.value Telemetry.numeric_fallbacks));
      ]
  in
  Json.Obj
    ([
       ("counters", Json.Obj counters);
       ("gauges", Json.Obj gauges);
       ("histograms", Json.List histograms);
       ("spans", Json.List spans);
       ("numeric", numeric);
     ]
    @ match stats with None -> [] | Some s -> [ ("service", Json.Obj s) ])

let text () = Telemetry.text_exposition ()

(* --- JSONL trace sink --- *)

let trace_channel = ref None

let close_trace () =
  match !trace_channel with
  | None -> ()
  | Some oc ->
    Telemetry.Span.set_sink None;
    trace_channel := None;
    (try close_out oc with Sys_error _ -> ())

let install_trace ~path =
  close_trace ();
  let oc = open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path in
  trace_channel := Some oc;
  Telemetry.Span.set_sink
    (Some
       (fun span ->
         (* Flush per line so a killed daemon still leaves a readable
            trace; traces are a debugging surface, not a hot path. *)
         try
           output_string oc (Json.to_string (span_to_json span));
           output_char oc '\n';
           flush oc
         with Sys_error _ -> ()))
