(* Telemetry: span nesting and ordering, ring wraparound, the
   kill-switch's zero-allocation guarantee, histogram bucket laws
   (qcheck), the span JSONL codec round-trip, and registration under
   concurrent domains.

   Spans and the enabled flag are global state; every test that
   touches them restores enabled = true and clears the ring so tests
   stay order-independent. *)

module T = Telemetry
module M = Rentcost_service.Metrics
module J = Rentcost_service.Json

(* A deterministic clock: each read advances one tick, so durations
   count the clock reads (and nested spans get distinct, predictable
   timings). *)
let install_tick_clock () =
  let t = ref 0.0 in
  T.set_clock (fun () ->
      t := !t +. 1.0;
      !t)

let restore () =
  T.set_clock Unix.gettimeofday;
  T.set_enabled true;
  T.Span.set_sink None;
  T.Span.clear ()

let with_clean f () = Fun.protect ~finally:restore f

(* --- spans --- *)

let test_span_nesting =
  with_clean (fun () ->
      install_tick_clock ();
      T.Span.clear ();
      let v =
        T.Span.with_span "outer" (fun () ->
            T.Span.with_span "inner_a" (fun () -> ());
            T.Span.with_span ~attrs:[ ("k", "v") ] "inner_b" (fun () -> 17))
      in
      Alcotest.(check int) "body value" 17 v;
      match T.Span.recent () with
      | [ a; b; outer ] ->
        Alcotest.(check string) "first completed" "inner_a" a.T.Span.name;
        Alcotest.(check string) "second completed" "inner_b" b.T.Span.name;
        Alcotest.(check string) "parent completes last" "outer" outer.T.Span.name;
        Alcotest.(check int) "inner_a parented" outer.T.Span.id a.T.Span.parent;
        Alcotest.(check int) "inner_b parented" outer.T.Span.id b.T.Span.parent;
        Alcotest.(check int) "outer is a root" 0 outer.T.Span.parent;
        Alcotest.(check int) "outer depth" 0 outer.T.Span.depth;
        Alcotest.(check int) "inner depth" 1 a.T.Span.depth;
        Alcotest.(check (list (pair string string)))
          "attrs kept" [ ("k", "v") ] b.T.Span.attrs;
        Alcotest.(check bool) "ids increase" true
          (outer.T.Span.id < a.T.Span.id && a.T.Span.id < b.T.Span.id);
        (* The tick clock makes every duration a positive whole number
           of clock reads, and the parent encloses the children. *)
        Alcotest.(check bool) "durations positive" true
          (List.for_all
             (fun s -> s.T.Span.duration > 0.0)
             [ a; b; outer ]);
        Alcotest.(check bool) "parent encloses children" true
          (outer.T.Span.duration > a.T.Span.duration +. b.T.Span.duration
           -. 1.0)
      | l ->
        Alcotest.failf "expected 3 spans, got %d" (List.length l))

let test_span_exception =
  with_clean (fun () ->
      T.Span.clear ();
      (try
         T.Span.with_span "boom" (fun () -> failwith "expected")
       with Failure _ -> ());
      match T.Span.recent () with
      | [ s ] ->
        Alcotest.(check string) "span recorded on raise" "boom" s.T.Span.name;
        (* The parent context must be restored after the raise. *)
        T.Span.with_span "after" (fun () -> ());
        let after = List.nth (T.Span.recent ()) 1 in
        Alcotest.(check int) "nesting state restored" 0 after.T.Span.parent
      | l -> Alcotest.failf "expected 1 span, got %d" (List.length l))

let test_ring_wraparound =
  with_clean (fun () ->
      let saved = T.Span.capacity () in
      Fun.protect
        ~finally:(fun () -> T.Span.set_capacity saved)
        (fun () ->
          T.Span.set_capacity 4;
          for i = 1 to 6 do
            T.Span.record
              ~name:(Printf.sprintf "s%d" i)
              ~start:(float_of_int i) ~duration:1.0 ()
          done;
          Alcotest.(check int) "total recorded" 6 (T.Span.recorded ());
          let names =
            List.map (fun s -> s.T.Span.name) (T.Span.recent ())
          in
          Alcotest.(check (list string))
            "ring keeps the newest, oldest first"
            [ "s3"; "s4"; "s5"; "s6" ] names))

let test_disabled_zero_alloc =
  with_clean (fun () ->
      T.set_enabled false;
      let f () = 7 in
      (* Warm up any one-time allocation paths. *)
      for _ = 1 to 3 do
        ignore (T.Span.with_span "off" f)
      done;
      let c = T.counter "test.zero_alloc" in
      let h = T.histogram "test.zero_alloc_hist" ~bounds:[| 1.0 |] in
      (* A labelled cell resolved up front is an ordinary counter, and
         the engine-style guarded lookup skips the registry entirely —
         both must be free when the switch is off. *)
      let vec = T.counter_vec "test.zero_alloc_vec" ~labels:[ "tenant" ] in
      let cell = T.counter_with vec [ "acme" ] in
      let before = Gc.minor_words () in
      for _ = 1 to 1000 do
        ignore (T.Span.with_span "off" f);
        T.bump c;
        T.bump cell;
        if T.enabled () then T.bump (T.counter_with vec [ "acme" ]);
        T.observe h 0.5
      done;
      let allocated = Gc.minor_words () -. before in
      Alcotest.(check bool)
        (Printf.sprintf "disabled instruments allocate nothing (%.0f words)"
           allocated)
        true (allocated = 0.0);
      Alcotest.(check int) "counter frozen" 0 (T.read c);
      Alcotest.(check int) "labelled cell frozen" 0 (T.read cell);
      Alcotest.(check int) "histogram frozen" 0 (T.snapshot h).T.h_count;
      Alcotest.(check int) "no spans" 0 (T.Span.recorded ()))

(* --- labelled families --- *)

let test_labelled_counters () =
  let vec = T.counter_vec "test.vec_basics" ~labels:[ "tenant"; "rung" ] in
  let a = T.counter_with vec [ "acme"; "cold" ] in
  T.bump a;
  T.add a 2;
  (* Equal label values find the same cell, so increments accumulate. *)
  T.bump (T.counter_with vec [ "acme"; "cold" ]);
  T.bump (T.counter_with vec [ "acme"; "exact" ]);
  Alcotest.(check int) "same values, same cell" 4 (T.read a);
  (match
     List.find_opt
       (fun (n, _, _) -> n = "test.vec_basics")
       (T.counter_vecs ())
   with
  | None -> Alcotest.fail "family not in the snapshot"
  | Some (_, labels, cells) ->
    Alcotest.(check (list string)) "label names kept" [ "tenant"; "rung" ]
      labels;
    Alcotest.(check
                (list (pair (list string) int)))
      "cells sorted by label values"
      [ ([ "acme"; "cold" ], 4); ([ "acme"; "exact" ], 1) ]
      cells);
  (* Re-registering the family with equal labels is the find half of
     find-or-create; different labels are a programming error. *)
  ignore (T.counter_vec "test.vec_basics" ~labels:[ "tenant"; "rung" ]);
  Alcotest.(check bool) "label-name mismatch raises" true
    (match T.counter_vec "test.vec_basics" ~labels:[ "rung" ] with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "arity mismatch raises" true
    (match T.counter_with vec [ "acme" ] with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* Four domains race find-or-create on the *same* (name, label-vector):
   every increment must land on the one shared cell. *)
let test_labelled_concurrent () =
  let per_domain = 500 in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              let vec =
                T.counter_vec "test.vec_conc" ~labels:[ "tenant"; "rung" ]
              in
              T.bump (T.counter_with vec [ "shared"; "cold" ]);
              (* A per-domain series interleaved with the shared one,
                 so cell creation races cell lookup. *)
              if i mod 7 = 0 then
                T.bump
                  (T.counter_with vec [ Printf.sprintf "d%d" d; "warm" ])
            done))
  in
  List.iter Domain.join domains;
  let vec = T.counter_vec "test.vec_conc" ~labels:[ "tenant"; "rung" ] in
  Alcotest.(check int) "no lost increments on the shared cell"
    (4 * per_domain)
    (T.read (T.counter_with vec [ "shared"; "cold" ]));
  List.iter
    (fun d ->
      Alcotest.(check int)
        (Printf.sprintf "domain %d series intact" d)
        (per_domain / 7)
        (T.read (T.counter_with vec [ Printf.sprintf "d%d" d; "warm" ])))
    [ 0; 1; 2; 3 ]

(* --- gauges --- *)

let test_gauges =
  with_clean (fun () ->
      let v = ref 1.5 in
      T.gauge "test.gauge" (fun () -> !v);
      Alcotest.(check (option (float 1e-9))) "read at scrape" (Some 1.5)
        (List.assoc_opt "test.gauge" (T.gauges ()));
      v := 4.0;
      (* Gauges are callbacks, not recorded state: the kill switch does
         not freeze them. *)
      T.set_enabled false;
      Alcotest.(check (option (float 1e-9))) "live while disabled" (Some 4.0)
        (List.assoc_opt "test.gauge" (T.gauges ()));
      T.set_enabled true;
      (* Re-registering replaces the callback. *)
      T.gauge "test.gauge" (fun () -> 9.0);
      Alcotest.(check (option (float 1e-9))) "replaced" (Some 9.0)
        (List.assoc_opt "test.gauge" (T.gauges ()));
      let names = List.map fst (T.gauges ()) in
      List.iter
        (fun p ->
          Alcotest.(check bool) (p ^ " registered") true (List.mem p names))
        [
          "process.uptime_seconds"; "process.heap_words";
          "process.major_collections";
        ])

(* --- golden exposition block ---

   The full exposition includes every instrument other tests have
   registered, so the golden compare extracts just the families this
   test owns (unique names) and pins their rendered lines exactly:
   HELP escaping, TYPE lines, the _total suffix, plain-then-labelled
   ordering, and label-value escaping. *)

let test_exposition_golden () =
  let c = T.counter ~help:"Requests served.\nBy anyone." "test.golden_req" in
  T.add c 3;
  let vec = T.counter_vec "test.golden_req" ~labels:[ "tenant"; "rung" ] in
  T.add (T.counter_with vec [ "a\"cme\\x"; "cold\nstart" ]) 2;
  T.bump (T.counter_with vec [ "zeta"; "warm" ]);
  T.gauge ~help:"A level." "test.golden_level" (fun () -> 2.5);
  let h =
    T.histogram ~help:"Sizes." "test.golden_size" ~bounds:[| 1.0; 10.0 |]
  in
  List.iter (T.observe h) [ 0.5; 5.0; 50.0 ];
  let lines = String.split_on_char '\n' (T.text_exposition ()) in
  let block prefix =
    List.filter
      (fun line ->
        let mentions sub =
          let n = String.length sub and m = String.length line in
          let rec go i = i + n <= m && (String.sub line i n = sub || go (i + 1)) in
          go 0
        in
        mentions prefix)
      lines
  in
  Alcotest.(check (list string)) "counter family block"
    [
      "# HELP test_golden_req_total Requests served.\\nBy anyone.";
      "# TYPE test_golden_req_total counter";
      "test_golden_req_total 3";
      "test_golden_req_total{tenant=\"a\\\"cme\\\\x\",rung=\"cold\\nstart\"} 2";
      "test_golden_req_total{tenant=\"zeta\",rung=\"warm\"} 1";
    ]
    (block "test_golden_req");
  Alcotest.(check (list string)) "gauge block"
    [
      "# HELP test_golden_level A level.";
      "# TYPE test_golden_level gauge";
      "test_golden_level 2.5";
    ]
    (block "test_golden_level");
  Alcotest.(check (list string)) "histogram block"
    [
      "# HELP test_golden_size Sizes.";
      "# TYPE test_golden_size histogram";
      "test_golden_size_bucket{le=\"1\"} 1";
      "test_golden_size_bucket{le=\"10\"} 2";
      "test_golden_size_bucket{le=\"+Inf\"} 3";
      "test_golden_size_sum 55.5";
      "test_golden_size_count 3";
    ]
    (block "test_golden_size")

(* --- histograms --- *)

let test_histogram_basics () =
  let h = T.histogram "test.hist_basics" ~bounds:[| 1.0; 10.0; 100.0 |] in
  List.iter (T.observe h) [ 0.5; 1.0; 5.0; 10.0; 50.0; 1000.0 ];
  let s = T.snapshot h in
  (* le semantics: 1.0 lands in the first bucket, 10.0 in the second. *)
  Alcotest.(check (list int)) "bucket counts (le semantics, overflow last)"
    [ 2; 2; 1; 1 ]
    (Array.to_list s.T.h_counts);
  Alcotest.(check int) "count" 6 s.T.h_count;
  Alcotest.(check (float 1e-9)) "sum" 1066.5 s.T.h_sum;
  Alcotest.check_raises "bounds mismatch rejected"
    (Invalid_argument
       "Telemetry.histogram: \"test.hist_basics\" already registered with \
        different bounds")
    (fun () -> ignore (T.histogram "test.hist_basics" ~bounds:[| 2.0 |]))

let prop name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:300 ~name gen f)

(* Every observation lands in exactly one bucket: counts sum to the
   observation count, and each value lands in the first bucket whose
   bound is >= the value. *)
let hist_gen =
  QCheck2.Gen.(
    pair
      (list_size (int_range 1 6) (float_bound_inclusive 100.0))
      (list_size (int_range 0 40) (float_bound_inclusive 120.0)))

let bucket_prop (raw_bounds, values) =
  (* Distinct sorted bounds; a fresh histogram name per shape so
     re-registration rules don't interfere. *)
  let bounds =
    Array.of_list (List.sort_uniq compare raw_bounds)
  in
  let name =
    Printf.sprintf "test.prop_%d_%f" (Array.length bounds)
      (Array.fold_left ( +. ) 0.0 bounds)
  in
  let h = T.histogram name ~bounds in
  let before = T.snapshot h in
  List.iter (T.observe h) values;
  let after = T.snapshot h in
  let added = Array.map2 ( - ) after.T.h_counts before.T.h_counts in
  let expect = Array.make (Array.length bounds + 1) 0 in
  List.iter
    (fun v ->
      let rec first i =
        if i >= Array.length bounds then i
        else if v <= bounds.(i) then i
        else first (i + 1)
      in
      let b = first 0 in
      expect.(b) <- expect.(b) + 1)
    values;
  Array.for_all2 ( = ) added expect
  && after.T.h_count - before.T.h_count = List.length values
  && Array.fold_left ( + ) 0 added = List.length values

(* --- trace ids --- *)

let test_trace_id =
  with_clean (fun () ->
      T.Span.clear ();
      Alcotest.(check (option string)) "no ambient id" None (T.Span.trace_id ());
      T.Span.with_trace_id "req-outer" (fun () ->
          Alcotest.(check (option string)) "id set" (Some "req-outer")
            (T.Span.trace_id ());
          T.Span.with_span "a" (fun () -> ());
          T.Span.with_trace_id "req-inner" (fun () ->
              T.Span.with_span "b" (fun () -> ()));
          (* The outer id is restored after the nested scope... *)
          T.Span.record ~name:"manual" ~start:1.0 ~duration:0.5 ());
      (* ...and cleared entirely outside every scope. *)
      T.Span.with_span "outside" (fun () -> ());
      let attr_of name =
        match
          List.find_opt (fun s -> s.T.Span.name = name) (T.Span.recent ())
        with
        | None -> Alcotest.failf "span %s not recorded" name
        | Some s -> List.assoc_opt "trace_id" s.T.Span.attrs
      in
      Alcotest.(check (option string)) "with_span stamped" (Some "req-outer")
        (attr_of "a");
      Alcotest.(check (option string)) "nested id wins" (Some "req-inner")
        (attr_of "b");
      Alcotest.(check (option string)) "record stamped, outer restored"
        (Some "req-outer") (attr_of "manual");
      Alcotest.(check (option string)) "no id outside" None
        (attr_of "outside"))

(* --- convergence progress --- *)

let test_progress_collect =
  with_clean (fun () ->
      install_tick_clock ();
      T.Span.clear ();
      Alcotest.(check bool) "no collector at rest" false
        (T.Progress.collecting ());
      (* Emitting without a collector is a silent no-op. *)
      T.Progress.emit ~incumbent:1.0 ~source:"nobody" ();
      let (), outer =
        T.Progress.collect (fun () ->
            Alcotest.(check bool) "collector active" true
              (T.Progress.collecting ());
            T.Progress.emit ~incumbent:250.0 ~source:"h32jump" ();
            let (), inner =
              T.Progress.collect (fun () ->
                  T.Progress.emit ~incumbent:210.0 ~bound:180.0 ~source:"milp"
                    ())
            in
            (* Nested collectors both see the inner event, each with
               its own elapsed origin. *)
            Alcotest.(check int) "inner sees one event" 1 (List.length inner);
            T.Progress.emit ~bound:199.0 ~source:"milp" ())
      in
      (match outer with
      | [ e1; e2; e3 ] ->
        Alcotest.(check string) "sources in emission order" "h32jump,milp,milp"
          (String.concat "," [ e1.T.Progress.source; e2.T.Progress.source;
                               e3.T.Progress.source ]);
        Alcotest.(check (option (float 1e-9))) "incumbent kept" (Some 210.0)
          e2.T.Progress.incumbent;
        Alcotest.(check (option (float 1e-9))) "bound-only event" None
          e3.T.Progress.incumbent;
        Alcotest.(check (option (float 1e-9))) "bound kept" (Some 199.0)
          e3.T.Progress.bound;
        Alcotest.(check bool) "elapsed non-decreasing" true
          (e1.T.Progress.elapsed <= e2.T.Progress.elapsed
          && e2.T.Progress.elapsed <= e3.T.Progress.elapsed)
      | l -> Alcotest.failf "expected 3 events, got %d" (List.length l));
      Alcotest.(check int) "each emission recorded a progress span" 3
        (List.length
           (List.filter
              (fun s -> s.T.Span.name = "solver.progress")
              (T.Span.recent ())));
      (* The kill switch silences emission even under a collector. *)
      T.set_enabled false;
      let (), dark =
        T.Progress.collect (fun () ->
            T.Progress.emit ~incumbent:1.0 ~source:"off" ())
      in
      Alcotest.(check int) "disabled emits nothing" 0 (List.length dark))

(* --- the span JSONL codec --- *)

let span_eq : T.Span.t Alcotest.testable =
  Alcotest.testable
    (fun fmt s -> Format.fprintf fmt "%s#%d" s.T.Span.name s.T.Span.id)
    ( = )

let test_span_json_roundtrip =
  with_clean (fun () ->
      install_tick_clock ();
      T.Span.clear ();
      T.Span.with_span "outer" (fun () ->
          T.Span.with_span ~attrs:[ ("engine", "ilp"); ("target", "70") ]
            "inner" (fun () -> ()));
      let spans = T.Span.recent () in
      List.iter
        (fun s ->
          (* Through the JSON value and through the printed line, as a
             trace file reader would see it. *)
          (match M.span_of_json (M.span_to_json s) with
           | Ok s' -> Alcotest.check span_eq "value round-trip" s s'
           | Error e -> Alcotest.fail e);
          match J.of_string (J.to_string (M.span_to_json s)) with
          | Error e -> Alcotest.fail ("reparse: " ^ e)
          | Ok j -> (
            match M.span_of_json j with
            | Ok s' -> Alcotest.check span_eq "line round-trip" s s'
            | Error e -> Alcotest.fail e))
        spans)

let test_trace_sink =
  with_clean (fun () ->
      T.Span.clear ();
      let path = Filename.temp_file "rentcost_trace" ".jsonl" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          M.install_trace ~path;
          T.Span.with_span "a" (fun () ->
              T.Span.with_span "b" (fun () -> ()));
          M.close_trace ();
          let ic = open_in path in
          let lines = ref [] in
          (try
             while true do
               lines := input_line ic :: !lines
             done
           with End_of_file -> close_in ic);
          let decoded =
            List.rev_map
              (fun line ->
                match J.of_string line with
                | Error e -> Alcotest.fail ("trace line: " ^ e)
                | Ok j -> (
                  match M.span_of_json j with
                  | Error e -> Alcotest.fail ("trace span: " ^ e)
                  | Ok s -> s))
              !lines
          in
          Alcotest.(check (list string))
            "sink saw both spans in completion order" [ "b"; "a" ]
            (List.map (fun s -> s.T.Span.name) decoded)))

(* --- concurrent registration (regression: Telemetry.all while other
   domains register) --- *)

let test_concurrent_registration () =
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to 199 do
              let c =
                T.counter (Printf.sprintf "test.conc.%d.%d" d (i mod 50))
              in
              T.bump c;
              ignore
                (T.histogram
                   (Printf.sprintf "test.conc_hist.%d.%d" d (i mod 10))
                   ~bounds:[| 1.0; 2.0 |])
            done))
  in
  (* Snapshot and render concurrently with the registrations; the laws
     here are "never raises" and "snapshots are sorted". *)
  for _ = 1 to 50 do
    let names = List.map fst (T.all ()) in
    Alcotest.(check bool) "counter snapshot sorted" true
      (List.sort compare names = names);
    ignore (T.histograms ());
    ignore (T.text_exposition ())
  done;
  List.iter Domain.join domains;
  let found = List.filter (fun (n, _) -> String.length n >= 10 && String.sub n 0 10 = "test.conc.") (T.all ()) in
  Alcotest.(check int) "all concurrent counters registered" 200
    (List.length found)

let suite =
  ( "telemetry",
    [
      Alcotest.test_case "span nesting and ordering" `Quick test_span_nesting;
      Alcotest.test_case "span survives exceptions" `Quick test_span_exception;
      Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
      Alcotest.test_case "disabled mode allocates nothing" `Quick
        test_disabled_zero_alloc;
      Alcotest.test_case "labelled counter families" `Quick
        test_labelled_counters;
      Alcotest.test_case "labelled find-or-create is domain-safe" `Quick
        test_labelled_concurrent;
      Alcotest.test_case "gauges read at scrape" `Quick test_gauges;
      Alcotest.test_case "golden exposition blocks" `Quick
        test_exposition_golden;
      Alcotest.test_case "histogram le-bucket semantics" `Quick
        test_histogram_basics;
      prop "every observation lands in exactly one bucket" hist_gen bucket_prop;
      Alcotest.test_case "trace ids stamp spans" `Quick test_trace_id;
      Alcotest.test_case "progress collect and emit" `Quick
        test_progress_collect;
      Alcotest.test_case "span json round-trip" `Quick test_span_json_roundtrip;
      Alcotest.test_case "jsonl trace sink round-trip" `Quick test_trace_sink;
      Alcotest.test_case "registration is domain-safe" `Quick
        test_concurrent_registration;
    ] )
