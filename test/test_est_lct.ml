(* Tests for the Section 4 EST/LCT merging analysis, including the
   reproduction of the paper's Table 1 and the worked derivations, and
   exhaustive verification of the greedy merge (Theorems 1 and 2). *)

open Helpers

let paper = Rtlb.Paper_example.app
let paper_shared = Rtlb.Paper_example.shared
let paper_dedicated = Rtlb.Paper_example.dedicated
let windows = Rtlb.Est_lct.compute paper_shared paper

(* Paper task numbers are 1-based. *)
let est n = windows.Rtlb.Est_lct.est.(n - 1)
let lct n = windows.Rtlb.Est_lct.lct.(n - 1)

let table1_est () =
  Array.iteri
    (fun i expected ->
      check_int (Printf.sprintf "E_%d" (i + 1)) expected
        windows.Rtlb.Est_lct.est.(i))
    Rtlb.Paper_example.expected_est

let table1_lct () =
  (* All LCTs match the paper except L_11, whose printed value (35) is
     impossible: task 11 feeds task 15 (C=6, L=36), so its completion can
     never exceed lst({15}) = 30.  The repaired column pins that cell to
     30. *)
  Array.iteri
    (fun i expected ->
      check_int (Printf.sprintf "L_%d" (i + 1)) expected
        windows.Rtlb.Est_lct.lct.(i))
    Rtlb.Paper_example.expected_lct_repaired;
  let diffs = ref 0 in
  Array.iteri
    (fun i paper_value ->
      if paper_value <> windows.Rtlb.Est_lct.lct.(i) then incr diffs)
    Rtlb.Paper_example.expected_lct;
  check_int "exactly one repaired cell" 1 !diffs

let same_windows_in_dedicated_model () =
  (* Section 8: "a set of tasks which are mergeable in the shared model
     are also mergeable in the dedicated model" — the two models give the
     same Table 1 here. *)
  let w = Rtlb.Est_lct.compute paper_dedicated paper in
  Alcotest.(check (array int))
    "EST equal" windows.Rtlb.Est_lct.est w.Rtlb.Est_lct.est;
  Alcotest.(check (array int))
    "LCT equal" windows.Rtlb.Est_lct.lct w.Rtlb.Est_lct.lct

(* The worked derivation of L_9 in Section 8:
   lms_15 = 26, lms_14 = 18, lms_13 = 19; no-merge LCT 18; merging task 14
   lifts it to 19; merging 13 as well gives 19 again, so the process
   stops. *)
let worked_l9 () =
  let l = windows.Rtlb.Est_lct.lct in
  check_int "lms_15" 26 (Rtlb.Est_lct.lms paper ~lct:l ~src:8 ~dst:14);
  check_int "lms_14" 18 (Rtlb.Est_lct.lms paper ~lct:l ~src:8 ~dst:13);
  check_int "lms_13" 19 (Rtlb.Est_lct.lms paper ~lct:l ~src:8 ~dst:12);
  let tr = windows.Rtlb.Est_lct.lct_trace.(8) in
  check_int "no-merge bound" 18 tr.Rtlb.Est_lct.no_merge_bound;
  check_int "L_9" 19 (lct 9);
  (match tr.Rtlb.Est_lct.steps with
  | first :: second :: _ ->
      check_int "first candidate is task 14" 13 first.Rtlb.Est_lct.candidate;
      (match first.Rtlb.Est_lct.decision with
      | Rtlb.Est_lct.Merged 19 -> ()
      | _ -> Alcotest.fail "task 14 should merge, lifting L to 19");
      check_int "second candidate is task 13" 12 second.Rtlb.Est_lct.candidate;
      (match second.Rtlb.Est_lct.decision with
      | Rtlb.Est_lct.Rejected_no_gain 19 -> ()
      | _ -> Alcotest.fail "task 13 gives no gain (19 again)")
  | _ -> Alcotest.fail "expected two merge steps");
  check_int_list "G_9 = {14}" [ 13 ] windows.Rtlb.Est_lct.lct_merged.(8)

(* The worked derivation of L_5: lms_9 = 7, lms_8 = 15; merging task 9
   lifts the bound to 15; task 8 runs on the other processor type, so the
   merge process stops there. *)
let worked_l5 () =
  let l = windows.Rtlb.Est_lct.lct in
  check_int "lms_9" 7 (Rtlb.Est_lct.lms paper ~lct:l ~src:4 ~dst:8);
  check_int "lms_8" 15 (Rtlb.Est_lct.lms paper ~lct:l ~src:4 ~dst:7);
  check_int "L_5" 15 (lct 5);
  check_int_list "G_5 = {9}" [ 8 ] windows.Rtlb.Est_lct.lct_merged.(4);
  let tr = windows.Rtlb.Est_lct.lct_trace.(4) in
  check_bool "task 8 never considered (not mergeable)" true
    (List.for_all
       (fun s -> s.Rtlb.Est_lct.candidate <> 7)
       tr.Rtlb.Est_lct.steps)

let merge_sets () =
  let m = windows.Rtlb.Est_lct.est_merged and g = windows.Rtlb.Est_lct.lct_merged in
  check_int_list "M_4 = {1}" [ 0 ] m.(3);
  check_int_list "M_5 = {2}" [ 1 ] m.(4);
  check_int_list "M_9 = {5}" [ 4 ] m.(8);
  check_int_list "M_13 = {9}" [ 8 ] m.(12);
  check_int_list "M_14 = {9}" [ 8 ] m.(13);
  check_int_list "G_1 = {4}" [ 3 ] g.(0);
  check_int_list "G_10 = {15}" [ 14 ] g.(9);
  check_int_list "G_11 = {15}" [ 14 ] g.(10);
  check_int_list "no merges for task 8" [] m.(7)

let boundary_cases () =
  check_int "source EST = release" 10 (est 7);
  check_int "sink LCT = deadline" 36 (lct 15);
  check_int "E_12 = L_12 = 30 (milestone)" 30 (est 12);
  check_int "L_12" 30 (lct 12)

let feasibility_check () =
  (match Rtlb.Windows.feasible paper (Rtlb.Est_lct.windows windows) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* Shrinking T15's deadline to 33 leaves [30, 33] too small for C=6. *)
  let squeezed =
    Rtlb.App.map_tasks paper ~f:(fun t ->
        if t.Rtlb.Task.id = 14 then Rtlb.Task.with_deadline t 33 else t)
  in
  let w = Rtlb.Est_lct.compute paper_shared squeezed in
  match Rtlb.Windows.feasible squeezed (Rtlb.Est_lct.windows w) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected infeasible window"

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let subsets l =
  List.fold_left
    (fun acc x -> acc @ List.map (fun s -> x :: s) acc)
    [ [] ] l

(* Exhaustive Theorem 1/2 check: the greedy merge result equals the best
   over every mergeable subset of neighbours. *)
let optimal_vs_exhaustive system_of i =
  let app = i.app in
  let system = system_of i in
  let w = Rtlb.Est_lct.compute system app in
  let est = w.Rtlb.Est_lct.est and lct = w.Rtlb.Est_lct.lct in
  List.for_all
    (fun t ->
      let best_est =
        subsets (Rtlb.App.preds app t)
        |> List.filter_map (Rtlb.Est_lct.est_of_merge_set system app ~est t)
        |> List.fold_left min max_int
      in
      let best_lct =
        subsets (Rtlb.App.succs app t)
        |> List.filter_map (Rtlb.Est_lct.lct_of_merge_set system app ~lct t)
        |> List.fold_left max min_int
      in
      let est_ok =
        if Rtlb.App.preds app t = [] then
          est.(t) = (Rtlb.App.task app t).Rtlb.Task.release
        else est.(t) = best_est
      in
      let lct_ok =
        if Rtlb.App.succs app t = [] then
          lct.(t) = (Rtlb.App.task app t).Rtlb.Task.deadline
        else lct.(t) = best_lct
      in
      est_ok && lct_ok)
    (List.init (Rtlb.App.n_tasks app) Fun.id)

let prop_tests =
  [
    qtest ~count:150 "analysis is a pure function of the instance"
      (arb_instance ~max_tasks:12 ()) (fun i ->
        let a = Rtlb.Est_lct.compute (shared_of i) i.app in
        let b = Rtlb.Est_lct.compute (shared_of i) i.app in
        a.Rtlb.Est_lct.est = b.Rtlb.Est_lct.est
        && a.Rtlb.Est_lct.lct = b.Rtlb.Est_lct.lct
        && a.Rtlb.Est_lct.est_merged = b.Rtlb.Est_lct.est_merged);
    qtest ~count:150 "traces are an accepted prefix plus one rejection"
      (arb_instance ~max_tasks:12 ()) (fun i ->
        let w = Rtlb.Est_lct.compute (shared_of i) i.app in
        let well_formed (tr : Rtlb.Est_lct.trace) =
          let rec shape = function
            | [] -> true
            | [ { Rtlb.Est_lct.decision = Rtlb.Est_lct.Rejected_no_gain _; _ } ]
              ->
                true
            | { Rtlb.Est_lct.decision = Rtlb.Est_lct.Merged _; _ } :: rest ->
                shape rest
            | _ -> false
          in
          shape tr.Rtlb.Est_lct.steps
          && List.length tr.Rtlb.Est_lct.merged
             = List.length
                 (List.filter
                    (fun s ->
                      match s.Rtlb.Est_lct.decision with
                      | Rtlb.Est_lct.Merged _ -> true
                      | Rtlb.Est_lct.Rejected_no_gain _ -> false)
                    tr.Rtlb.Est_lct.steps)
        in
        Array.for_all well_formed w.Rtlb.Est_lct.est_trace
        && Array.for_all well_formed w.Rtlb.Est_lct.lct_trace);
    qtest ~count:150 "greedy EST/LCT merge is optimal (shared, Thm 1-2)"
      (arb_instance ~max_tasks:9 ())
      (optimal_vs_exhaustive shared_of);
    qtest ~count:150 "greedy EST/LCT merge is optimal (dedicated, Thm 1-2)"
      (arb_instance ~max_tasks:9 ())
      (optimal_vs_exhaustive dedicated_of);
    qtest ~count:200 "E_i >= predecessor completion, L mirror"
      (arb_instance ~max_tasks:14 ()) (fun i ->
        let w = Rtlb.Est_lct.compute (shared_of i) i.app in
        let e = w.Rtlb.Est_lct.est and l = w.Rtlb.Est_lct.lct in
        let compute t = (Rtlb.App.task i.app t).Rtlb.Task.compute in
        List.for_all
          (fun t ->
            List.for_all
              (fun p -> e.(t) >= e.(p) + compute p)
              (Rtlb.App.preds i.app t)
            && List.for_all
                 (fun s -> l.(t) <= l.(s) - compute s)
                 (Rtlb.App.succs i.app t))
          (List.init (Rtlb.App.n_tasks i.app) Fun.id));
    qtest ~count:200 "windows respect release and deadline"
      (arb_instance ~max_tasks:14 ()) (fun i ->
        let w = Rtlb.Est_lct.compute (shared_of i) i.app in
        List.for_all
          (fun t ->
            let task = Rtlb.App.task i.app t in
            w.Rtlb.Est_lct.est.(t) >= task.Rtlb.Task.release
            && w.Rtlb.Est_lct.lct.(t) <= task.Rtlb.Task.deadline)
          (List.init (Rtlb.App.n_tasks i.app) Fun.id));
    qtest ~count:200 "dedicated windows never looser than shared"
      (arb_instance ~max_tasks:14 ()) (fun i ->
        (* Fewer merge opportunities can only shrink windows; the
           dedicated model's mergeability is a subset of the shared
           one's. *)
        let ws = Rtlb.Est_lct.compute (shared_of i) i.app in
        let wd = Rtlb.Est_lct.compute (dedicated_of i) i.app in
        List.for_all
          (fun t ->
            wd.Rtlb.Est_lct.est.(t) >= ws.Rtlb.Est_lct.est.(t)
            && wd.Rtlb.Est_lct.lct.(t) <= ws.Rtlb.Est_lct.lct.(t))
          (List.init (Rtlb.App.n_tasks i.app) Fun.id));
    qtest ~count:200 "zero-communication windows ignore merging"
      (arb_instance ~max_tasks:14 ()) (fun i ->
        (* With m = 0 everywhere, est_i({}) is already optimal: E is the
           plain longest-path recursion. *)
        let stripped =
          Rtlb.App.make
            ~tasks:(Array.to_list (Rtlb.App.tasks i.app))
            ~edges:
              (Dag.fold_edges (Rtlb.App.graph i.app) ~init:[]
                 ~f:(fun acc ~src ~dst _ -> (src, dst, 0) :: acc))
        in
        let w = Rtlb.Est_lct.compute (shared_of i) stripped in
        List.for_all
          (fun t ->
            let expected =
              List.fold_left
                (fun acc p ->
                  max acc
                    (w.Rtlb.Est_lct.est.(p)
                    + (Rtlb.App.task stripped p).Rtlb.Task.compute))
                (Rtlb.App.task stripped t).Rtlb.Task.release
                (Rtlb.App.preds stripped t)
            in
            w.Rtlb.Est_lct.est.(t) = expected)
          (List.init (Rtlb.App.n_tasks stripped) Fun.id));
  ]

let suite =
  [
    ( "est-lct",
      [
        Alcotest.test_case "Table 1: EST column" `Quick table1_est;
        Alcotest.test_case "Table 1: LCT column" `Quick table1_lct;
        Alcotest.test_case "shared and dedicated agree on the example" `Quick
          same_windows_in_dedicated_model;
        Alcotest.test_case "worked derivation of L_9" `Quick worked_l9;
        Alcotest.test_case "worked derivation of L_5" `Quick worked_l5;
        Alcotest.test_case "merge sets of Table 1" `Quick merge_sets;
        Alcotest.test_case "sources and sinks" `Quick boundary_cases;
        Alcotest.test_case "feasibility check" `Quick feasibility_check;
      ]
      @ prop_tests );
  ]
