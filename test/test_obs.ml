(* Tests for the observability layer (lib/obs): the injectable clock,
   the span tracer and its counter glossary, the in-memory stats sink,
   and the Chrome trace_event JSON writer.

   The two headline properties, checked on random instances:

   - counters are consistent: a complete traced analysis on the
     exhaustive scan (~prune:false) reports exactly the counts the
     paper's scan structure predicts (candidate_intervals = theta_evals
     = sum over partition blocks of n(n-1)/2 candidate points,
     tasks_scanned = sum of |block|*(n-1)); the pruned scan plans the
     same candidates and work items but evaluates at most as many;

   - tracing is write-only: a traced run's Analysis.result is
     bit-identical to the untraced run's. *)

open Helpers

(* ------------------------------------------------------------------ *)
(* Expected counter values, derived from the public API only           *)
(* ------------------------------------------------------------------ *)

type expected = {
  e_intervals : int;  (* Candidate_intervals = Theta_evals *)
  e_scanned : int;  (* Tasks_scanned *)
  e_items : int;  (* executed work items on a complete run *)
}

let expected_counts system app =
  let w = Rtlb.Est_lct.compute system app in
  let est = w.Rtlb.Est_lct.est and lct = w.Rtlb.Est_lct.lct in
  let compute =
    Array.init (Rtlb.App.n_tasks app) (fun i ->
        (Rtlb.App.task app i).Rtlb.Task.compute)
  in
  List.fold_left
    (fun acc r ->
      let tasks = Rtlb.App.tasks_using app r in
      let p = Rtlb.Partition.compute ~est ~lct tasks in
      List.fold_left2
        (fun acc block (lo, hi) ->
          if lo >= hi then acc
          else
            let n =
              List.length
                (Rtlb.Lower_bound.candidate_points ~est ~lct ~compute block
                   ~lo ~hi)
            in
            {
              e_intervals = acc.e_intervals + (n * (n - 1) / 2);
              e_scanned = acc.e_scanned + (List.length block * (n - 1));
              e_items = acc.e_items + (n - 1);
            })
        acc p.Rtlb.Partition.blocks p.Rtlb.Partition.spans)
    { e_intervals = 0; e_scanned = 0; e_items = 0 }
    (Rtlb.App.resource_set app)

let traced_run ?pool ?prune system app =
  let tracer = Rtlb_obs.Tracer.make ~clock:(Rtlb_obs.Clock.fake ()) () in
  let analysis = Rtlb.Analysis.run ?pool ?prune ~tracer system app in
  (tracer, analysis)

let counter = Rtlb_obs.Tracer.counter

(* [pruned]: dominance pruning may skip evaluations and whole kernels,
   so theta_evals and tasks_scanned are only bounded by the plan. *)
let check_counters ?(pruned = false) label tracer expected =
  check_int (label ^ ": candidate_intervals") expected.e_intervals
    (counter tracer Rtlb_obs.Tracer.Candidate_intervals);
  if pruned then begin
    check_bool (label ^ ": theta_evals <= candidate_intervals") true
      (counter tracer Rtlb_obs.Tracer.Theta_evals <= expected.e_intervals);
    check_bool (label ^ ": tasks_scanned <= planned") true
      (counter tracer Rtlb_obs.Tracer.Tasks_scanned <= expected.e_scanned)
  end
  else begin
    check_int (label ^ ": theta_evals") expected.e_intervals
      (counter tracer Rtlb_obs.Tracer.Theta_evals);
    check_int (label ^ ": tasks_scanned") expected.e_scanned
      (counter tracer Rtlb_obs.Tracer.Tasks_scanned)
  end;
  check_int (label ^ ": no deadline cancellations") 0
    (counter tracer Rtlb_obs.Tracer.Deadline_cancels);
  let workers = Rtlb_obs.Tracer.worker_stats tracer in
  let sum f = List.fold_left (fun a w -> a + f w) 0 workers in
  check_int
    (label ^ ": worker items sum to executed work items")
    expected.e_items
    (sum (fun (_, _, items) -> items));
  check_int
    (label ^ ": chunks_claimed = sum of per-worker chunks")
    (counter tracer Rtlb_obs.Tracer.Chunks_claimed)
    (sum (fun (_, chunks, _) -> chunks))

(* ------------------------------------------------------------------ *)
(* Counter consistency                                                 *)
(* ------------------------------------------------------------------ *)

let paper = Rtlb.Paper_example.app

let counters_on_paper_example () =
  let expected = expected_counts Rtlb.Paper_example.shared paper in
  let tracer, _ = traced_run ~prune:false Rtlb.Paper_example.shared paper in
  check_counters "sequential" tracer expected;
  let tracer, _ = traced_run ~prune:true Rtlb.Paper_example.shared paper in
  check_counters ~pruned:true "sequential, pruned" tracer expected;
  Rtlb_par.Pool.with_pool ~jobs:Test_par.test_jobs (fun pool ->
      let tracer, _ =
        traced_run ~pool ~prune:false Rtlb.Paper_example.shared paper
      in
      check_counters "pooled" tracer expected;
      let tracer, _ =
        traced_run ~pool ~prune:true Rtlb.Paper_example.shared paper
      in
      check_counters ~pruned:true "pooled, pruned" tracer expected)

let counters_prop =
  qtest ~count:100 "traced counters match the scan plan (random instances)"
    (arb_instance ~max_tasks:14 ()) (fun i ->
      let system = shared_of i in
      let expected = expected_counts system i.app in
      let items tracer =
        List.fold_left
          (fun a (_, _, items) -> a + items)
          0
          (Rtlb_obs.Tracer.worker_stats tracer)
      in
      let tracer, _ = traced_run ~prune:false system i.app in
      let pruned, _ = traced_run ~prune:true system i.app in
      counter tracer Rtlb_obs.Tracer.Candidate_intervals = expected.e_intervals
      && counter tracer Rtlb_obs.Tracer.Theta_evals = expected.e_intervals
      && counter tracer Rtlb_obs.Tracer.Tasks_scanned = expected.e_scanned
      && items tracer = expected.e_items
      && counter pruned Rtlb_obs.Tracer.Candidate_intervals
         = expected.e_intervals
      && counter pruned Rtlb_obs.Tracer.Theta_evals
         <= counter pruned Rtlb_obs.Tracer.Candidate_intervals
      && items pruned = expected.e_items)

(* ------------------------------------------------------------------ *)
(* Tracing is write-only telemetry                                     *)
(* ------------------------------------------------------------------ *)

let traced_identical_prop =
  qtest ~count:100 "traced analysis bit-identical to untraced"
    (arb_instance ~max_tasks:14 ()) (fun i ->
      let system = shared_of i in
      let untraced = Rtlb.Analysis.run system i.app in
      let _, traced = traced_run system i.app in
      Test_par.analyses_identical untraced traced)

let traced_identical_pooled () =
  Rtlb_par.Pool.with_pool ~jobs:Test_par.test_jobs (fun pool ->
      List.iter
        (fun system ->
          let untraced = Rtlb.Analysis.run system paper in
          let _, traced = traced_run ~pool system paper in
          check_bool "pooled traced run bit-identical" true
            (Test_par.analyses_identical untraced traced))
        [ Rtlb.Paper_example.shared; Rtlb.Paper_example.dedicated ])

let traced_sensitivity_identical () =
  let factors = [ 0.8; 1.0; 1.5 ] in
  let tracer = Rtlb_obs.Tracer.make ~clock:(Rtlb_obs.Clock.fake ()) () in
  let plain =
    Rtlb.Sensitivity.deadline_sweep Rtlb.Paper_example.shared paper ~factors
  in
  let traced =
    Rtlb.Sensitivity.deadline_sweep ~tracer Rtlb.Paper_example.shared paper
      ~factors
  in
  check_bool "traced sweep = untraced sweep" true (plain = traced);
  (* one "factor %g" span per sweep point, each containing an analysis *)
  let events = Rtlb_obs.Tracer.events tracer in
  List.iter
    (fun f ->
      let name = Printf.sprintf "factor %g" f in
      check_int name 1
        (List.length
           (List.filter
              (fun e -> e.Rtlb_obs.Tracer.ev_name = name)
              events)))
    factors;
  check_int "one analyze span per factor" (List.length factors)
    (List.length
       (List.filter (fun e -> e.Rtlb_obs.Tracer.ev_name = "analyze") events))

(* ------------------------------------------------------------------ *)
(* Span structure                                                      *)
(* ------------------------------------------------------------------ *)

let interval (e : Rtlb_obs.Tracer.event) =
  (e.Rtlb_obs.Tracer.ev_ts_ns, Int64.add e.Rtlb_obs.Tracer.ev_ts_ns e.ev_dur_ns)

(* Two spans on one domain must nest or be disjoint; overlap without
   containment means with_span's lexical scoping was violated. *)
let well_nested events =
  let rec pairs = function
    | [] -> true
    | e :: rest ->
        List.for_all
          (fun e' ->
            let a1, a2 = interval e and b1, b2 = interval e' in
            let disjoint = a2 <= b1 || b2 <= a1 in
            let a_in_b = b1 <= a1 && a2 <= b2 in
            let b_in_a = a1 <= b1 && b2 <= a2 in
            disjoint || a_in_b || b_in_a)
          rest
        && pairs rest
  in
  pairs events

let by_tid events =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let tid = e.Rtlb_obs.Tracer.ev_tid in
      Hashtbl.replace tbl tid (e :: (try Hashtbl.find tbl tid with Not_found -> [])))
    events;
  Hashtbl.fold (fun _ es acc -> es :: acc) tbl []

let contains outer inner =
  let o1, o2 = interval outer and i1, i2 = interval inner in
  o1 <= i1 && i2 <= o2

let find_span name events =
  match
    List.filter (fun e -> e.Rtlb_obs.Tracer.ev_name = name) events
  with
  | [ e ] -> e
  | es ->
      Alcotest.failf "expected exactly one %S span, found %d" name
        (List.length es)

let spans_well_nested () =
  let tracer, _ = traced_run Rtlb.Paper_example.shared paper in
  let events = Rtlb_obs.Tracer.events tracer in
  List.iter
    (fun per_tid ->
      check_bool "per-domain spans are well-nested" true
        (well_nested per_tid))
    (by_tid events);
  let root = find_span "analyze" events in
  List.iter
    (fun name ->
      let child = find_span name events in
      check_bool
        (Printf.sprintf "%S inside \"analyze\"" name)
        true (contains root child))
    [ "est_lct"; "lower_bounds"; "cost" ];
  let lbs = find_span "lower_bounds" events in
  List.iter
    (fun name ->
      check_bool
        (Printf.sprintf "%S inside \"lower_bounds\"" name)
        true
        (contains lbs (find_span name events)))
    [ "plan"; "reduce" ]

let spans_well_nested_pooled () =
  (* Real clock, real pool: nesting must hold per executing domain, and
     the submitter-side spans still nest under the root. *)
  Rtlb_par.Pool.with_pool ~jobs:Test_par.test_jobs (fun pool ->
      let tracer = Rtlb_obs.Tracer.make () in
      let _ = Rtlb.Analysis.run ~pool ~tracer Rtlb.Paper_example.shared paper in
      let events = Rtlb_obs.Tracer.events tracer in
      List.iter
        (fun per_tid ->
          check_bool "pooled per-domain spans are well-nested" true
            (well_nested per_tid))
        (by_tid events);
      let root = find_span "analyze" events in
      let root_tid = root.Rtlb_obs.Tracer.ev_tid in
      List.iter
        (fun e ->
          if e.Rtlb_obs.Tracer.ev_tid = root_tid && e != root then
            check_bool
              (Printf.sprintf "submitter span %S inside the root"
                 e.Rtlb_obs.Tracer.ev_name)
              true (contains root e))
        events)

let with_span_exception_safe () =
  let tracer = Rtlb_obs.Tracer.make ~clock:(Rtlb_obs.Clock.fake ()) () in
  (try
     Rtlb_obs.Tracer.with_span tracer "outer" (fun () ->
         Rtlb_obs.Tracer.with_span tracer "inner" (fun () ->
             failwith "boom"))
   with Failure _ -> ());
  let events = Rtlb_obs.Tracer.events tracer in
  check_int "both spans recorded despite the raise" 2 (List.length events);
  check_bool "raising spans still nest" true
    (contains (find_span "outer" events) (find_span "inner" events))

(* ------------------------------------------------------------------ *)
(* Chrome trace_event JSON                                             *)
(* ------------------------------------------------------------------ *)

let trace_json () =
  let tracer, _ = traced_run Rtlb.Paper_example.shared paper in
  let json = Rtlb_obs.Trace_event.to_string tracer in
  let parsed = Rtfmt.Json.parse json in
  let events =
    match Rtfmt.Json.member "traceEvents" parsed with
    | Rtfmt.Json.List es -> es
    | _ -> Alcotest.fail "traceEvents is not an array"
  in
  check_bool "trace has events" true (events <> []);
  let phases =
    List.map
      (fun ev ->
        (* every event carries the fields the viewers require *)
        let ph =
          match Rtfmt.Json.member "ph" ev with
          | Rtfmt.Json.Str s -> s
          | _ -> Alcotest.fail "ph is not a string"
        in
        List.iter
          (fun field ->
            match Rtfmt.Json.member field ev with
            | Rtfmt.Json.Int _ -> ()
            | _ -> Alcotest.failf "%s is not an integer" field
            | exception Not_found -> Alcotest.failf "missing %s" field)
          [ "ts"; "pid"; "tid" ];
        (match Rtfmt.Json.member "name" ev with
        | Rtfmt.Json.Str _ -> ()
        | _ -> Alcotest.fail "name is not a string");
        if ph = "X" then begin
          match Rtfmt.Json.member "dur" ev with
          | Rtfmt.Json.Int d ->
              check_bool "X event has non-negative dur" true (d >= 0)
          | _ -> Alcotest.fail "X event missing integer dur"
        end;
        ph)
      events
  in
  check_bool "only M/X/C phases" true
    (List.for_all (fun ph -> ph = "M" || ph = "X" || ph = "C") phases);
  check_bool "has a counter snapshot" true (List.mem "C" phases);
  (* the C event carries every glossary counter *)
  let c_event =
    List.find
      (fun ev -> Rtfmt.Json.member "ph" ev = Rtfmt.Json.Str "C")
      events
  in
  let args = Rtfmt.Json.member "args" c_event in
  List.iter
    (fun c ->
      let name = Rtlb_obs.Tracer.counter_name c in
      match Rtfmt.Json.member name args with
      | Rtfmt.Json.Int v ->
          check_int ("C event " ^ name) (counter tracer c) v
      | _ -> Alcotest.failf "counter %s missing from C event" name)
    Rtlb_obs.Tracer.all_counters

let trace_deterministic () =
  let once () =
    let tracer, _ = traced_run Rtlb.Paper_example.shared paper in
    (Rtlb_obs.Trace_event.to_string tracer, Rtlb_obs.Stats.of_tracer tracer)
  in
  let trace_a, stats_a = once () in
  let trace_b, stats_b = once () in
  check_string "fake-clock traces are byte-identical" trace_a trace_b;
  check_bool "fake-clock stats are identical" true (stats_a = stats_b)

(* ------------------------------------------------------------------ *)
(* Stats sink                                                          *)
(* ------------------------------------------------------------------ *)

let stats_aggregation () =
  let tracer = Rtlb_obs.Tracer.make ~clock:(Rtlb_obs.Clock.fake ()) () in
  Rtlb_obs.Tracer.with_span tracer "b" (fun () ->
      Rtlb_obs.Tracer.with_span tracer "a" ignore);
  Rtlb_obs.Tracer.with_span tracer "a" ignore;
  Rtlb_obs.Tracer.add tracer Rtlb_obs.Tracer.Theta_evals 7;
  let s = Rtlb_obs.Stats.of_tracer tracer in
  check_bool "span lines sorted by name" true
    (List.map (fun l -> l.Rtlb_obs.Stats.sl_name) s.Rtlb_obs.Stats.spans
    = [ "a"; "b" ]);
  let line name =
    List.find (fun l -> l.Rtlb_obs.Stats.sl_name = name) s.Rtlb_obs.Stats.spans
  in
  check_int "two spans named a" 2 (line "a").Rtlb_obs.Stats.sl_count;
  check_int "one span named b" 1 (line "b").Rtlb_obs.Stats.sl_count;
  check_bool "span_total_ns of a recorded name" true
    (Rtlb_obs.Stats.span_total_ns s "a" > 0L);
  check_bool "span_total_ns of an absent name" true
    (Rtlb_obs.Stats.span_total_ns s "zzz" = 0L);
  check_bool "every glossary counter present, glossary order" true
    (List.map fst s.Rtlb_obs.Stats.counters
    = List.map Rtlb_obs.Tracer.counter_name Rtlb_obs.Tracer.all_counters);
  check_int "counter value survives aggregation" 7
    (List.assoc "theta_evals" s.Rtlb_obs.Stats.counters);
  let rendered = Rtfmt.Stats_render.render s in
  List.iter
    (fun needle ->
      check_bool
        (Printf.sprintf "render mentions %S" needle)
        true
        (string_contains ~needle rendered))
    [ "-- spans --"; "-- counters --"; "theta_evals"; "7" ]

(* ------------------------------------------------------------------ *)
(* Null tracer and clocks                                              *)
(* ------------------------------------------------------------------ *)

let null_tracer_noop () =
  let t = Rtlb_obs.Tracer.null in
  check_bool "null is disabled" false (Rtlb_obs.Tracer.enabled t);
  check_int "with_span is transparent" 41
    (Rtlb_obs.Tracer.with_span t "x" (fun () -> 41));
  (try
     ignore
       (Rtlb_obs.Tracer.with_span t "x" (fun () ->
            if true then failwith "boom" else 0));
     Alcotest.fail "expected the exception to propagate"
   with Failure _ -> ());
  Rtlb_obs.Tracer.add t Rtlb_obs.Tracer.Theta_evals 5;
  Rtlb_obs.Tracer.record_chunk t ~items:3;
  check_int "null counters read 0" 0
    (counter t Rtlb_obs.Tracer.Theta_evals);
  check_bool "null records no events" true (Rtlb_obs.Tracer.events t = []);
  check_bool "null has no workers" true (Rtlb_obs.Tracer.worker_stats t = [])

(* The tracer of a long-lived process that reads only counters records
   no span, so it does not grow with the work it counts. *)
let counters_only_tracer () =
  let t = Rtlb_obs.Tracer.make ~spans:false () in
  check_bool "counters-only is enabled" true (Rtlb_obs.Tracer.enabled t);
  check_int "with_span is transparent" 41
    (Rtlb_obs.Tracer.with_span t "x" (fun () -> 41));
  Rtlb_obs.Tracer.add t Rtlb_obs.Tracer.Theta_evals 5;
  Rtlb_obs.Tracer.record_chunk t ~items:3;
  check_int "counters count" 5 (counter t Rtlb_obs.Tracer.Theta_evals);
  check_int "chunks count" 1 (counter t Rtlb_obs.Tracer.Chunks_claimed);
  check_bool "no events recorded" true (Rtlb_obs.Tracer.events t = [])

let clocks () =
  let a = Rtlb_obs.Clock.now_ns Rtlb_obs.Clock.monotonic in
  let b = Rtlb_obs.Clock.now_ns Rtlb_obs.Clock.monotonic in
  check_bool "monotonic clock is positive" true (a > 0L);
  check_bool "monotonic clock never goes backwards" true (b >= a);
  check_bool "monotonic is not fake" false
    (Rtlb_obs.Clock.is_fake Rtlb_obs.Clock.monotonic);
  let fake = Rtlb_obs.Clock.fake ~start:100L ~step:10L () in
  check_bool "fake clock starts at start" true
    (Rtlb_obs.Clock.now_ns fake = 100L);
  check_bool "fake clock advances by step" true
    (Rtlb_obs.Clock.now_ns fake = 110L);
  check_bool "fake is fake" true (Rtlb_obs.Clock.is_fake fake)

let suite =
  [
    ( "obs",
      [
        Alcotest.test_case "counters match the scan plan (paper example)"
          `Quick counters_on_paper_example;
        Alcotest.test_case "traced run bit-identical (pooled, paper)" `Quick
          traced_identical_pooled;
        Alcotest.test_case "traced sensitivity sweep identical + spanned"
          `Quick traced_sensitivity_identical;
        Alcotest.test_case "spans well-nested (fake clock)" `Quick
          spans_well_nested;
        Alcotest.test_case "spans well-nested (real clock, pooled)" `Quick
          spans_well_nested_pooled;
        Alcotest.test_case "with_span records on exceptions" `Quick
          with_span_exception_safe;
        Alcotest.test_case "trace JSON schema (ph/ts/pid/tid on every event)"
          `Quick trace_json;
        Alcotest.test_case "fake-clock trace is deterministic" `Quick
          trace_deterministic;
        Alcotest.test_case "stats sink aggregation and rendering" `Quick
          stats_aggregation;
        Alcotest.test_case "null tracer is a no-op" `Quick null_tracer_noop;
        Alcotest.test_case "counters-only tracer records no span" `Quick
          counters_only_tracer;
        Alcotest.test_case "clocks: monotonic and fake" `Quick clocks;
        counters_prop;
        traced_identical_prop;
      ] );
  ]
