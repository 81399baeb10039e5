(* Tests for the slack/criticality report and structural invariance
   properties of the whole analysis. *)

open Helpers

let paper = Rtlb.Paper_example.app
let analysis = Rtlb.Analysis.run Rtlb.Paper_example.shared paper
let report = Rtlb.Slack.analyse analysis

let paper_critical_tasks () =
  (* Nearly the whole example runs with zero slack — its windows equal its
     computation times everywhere except tasks 11, 13 and 14. *)
  Alcotest.(check (list int))
    "critical set"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 11; 14 ]
    (List.sort compare report.Rtlb.Slack.r_critical)

let slack_values () =
  let by_task i =
    List.find (fun s -> s.Rtlb.Slack.ts_task = i) report.Rtlb.Slack.r_slacks
  in
  check_int "T15 window" 6 (by_task 14).Rtlb.Slack.ts_window;
  check_int "T15 slack" 0 (by_task 14).Rtlb.Slack.ts_slack;
  check_int "T11 slack" 8 (by_task 10).Rtlb.Slack.ts_slack;
  (* sorted ascending by slack *)
  let slacks = List.map (fun s -> s.Rtlb.Slack.ts_slack) report.Rtlb.Slack.r_slacks in
  check_bool "sorted" true (List.sort compare slacks = slacks)

let bottlenecks_present () =
  Alcotest.(check (list string))
    "bounded resources all have witnesses"
    [ "P1"; "P2"; "r1" ]
    (List.map fst report.Rtlb.Slack.r_bottlenecks)

let report_renders () =
  let text = Rtlb.Slack.render paper report in
  List.iter
    (fun needle ->
      check_bool ("mentions " ^ needle) true (string_contains ~needle text))
    [ "critical tasks"; "T12"; "bottleneck" ]

(* ------------------------------------------------------------------ *)
(* Structural invariance: renaming/permuting task ids must not change  *)
(* any bound (the analysis is about structure, not labels).            *)
(* ------------------------------------------------------------------ *)

let permute i =
  let app = i.app in
  let n = Rtlb.App.n_tasks app in
  (* deterministic permutation derived from the seed *)
  let perm = Array.init n Fun.id in
  let rng = Workload.Prng.create (i.config.Workload.Gen.seed + 17) in
  Workload.Prng.shuffle rng perm;
  let tasks =
    Array.to_list (Rtlb.App.tasks app)
    |> List.map (fun (t : Rtlb.Task.t) ->
           Rtlb.Task.make ~id:perm.(t.Rtlb.Task.id) ~name:t.Rtlb.Task.name
             ~compute:t.Rtlb.Task.compute ~release:t.Rtlb.Task.release
             ~deadline:t.Rtlb.Task.deadline ~proc:t.Rtlb.Task.proc
             ~resources:t.Rtlb.Task.resources ~preemptive:t.Rtlb.Task.preemptive
             ())
  in
  let edges =
    Dag.fold_edges (Rtlb.App.graph app) ~init:[] ~f:(fun acc ~src ~dst m ->
        (perm.(src), perm.(dst), m) :: acc)
  in
  (Rtlb.App.make ~tasks ~edges, perm)

let prop_tests =
  [
    qtest ~count:100 "bounds invariant under task renumbering"
      (arb_instance ~max_tasks:12 ()) (fun i ->
        let system = shared_of i in
        let a = Rtlb.Analysis.run system i.app in
        let permuted, _ = permute i in
        let b = Rtlb.Analysis.run system permuted in
        List.for_all2
          (fun (x : Rtlb.Lower_bound.bound) (y : Rtlb.Lower_bound.bound) ->
            String.equal x.Rtlb.Lower_bound.resource y.Rtlb.Lower_bound.resource
            && x.Rtlb.Lower_bound.lb = y.Rtlb.Lower_bound.lb)
          a.Rtlb.Analysis.bounds b.Rtlb.Analysis.bounds);
    qtest ~count:100 "windows invariant under task renumbering"
      (arb_instance ~max_tasks:12 ()) (fun i ->
        let system = shared_of i in
        let a = Rtlb.Analysis.run system i.app in
        let permuted, perm = permute i in
        let b = Rtlb.Analysis.run system permuted in
        List.for_all
          (fun t ->
            a.Rtlb.Analysis.windows.Rtlb.Windows.est.(t)
            = b.Rtlb.Analysis.windows.Rtlb.Windows.est.(perm.(t))
            && a.Rtlb.Analysis.windows.Rtlb.Windows.lct.(t)
               = b.Rtlb.Analysis.windows.Rtlb.Windows.lct.(perm.(t)))
          (List.init (Rtlb.App.n_tasks i.app) Fun.id));
    qtest ~count:150 "slack is non-negative exactly when windows feasible"
      (arb_instance ~max_tasks:12 ()) (fun i ->
        let a = Rtlb.Analysis.run (shared_of i) i.app in
        let r = Rtlb.Slack.analyse a in
        let min_slack =
          List.fold_left
            (fun acc s -> min acc s.Rtlb.Slack.ts_slack)
            max_int r.Rtlb.Slack.r_slacks
        in
        Rtlb.Analysis.is_infeasible a = (min_slack < 0));
  ]

let suite =
  [
    ( "slack",
      [
        Alcotest.test_case "paper critical tasks" `Quick paper_critical_tasks;
        Alcotest.test_case "slack values" `Quick slack_values;
        Alcotest.test_case "bottlenecks" `Quick bottlenecks_present;
        Alcotest.test_case "rendering" `Quick report_renders;
      ]
      @ prop_tests );
  ]
