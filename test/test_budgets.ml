(* Live-memory budgets: reachable words per task of what a parse and an
   analysis keep, on a fixed layered_frames instance read from its
   text, as the CLI reads it.  The application is its columns and its
   graph; the result adds the two window arrays, the partitions, the
   bounds and the cost; no per-task record or merge trace stays
   reachable. *)

open Helpers

let instance =
  lazy
    (let app = Workload.Gen.layered_frames ~seed:7 ~frames:20 () in
     let text =
       Rtfmt.Appfile.to_string ~system:(Workload.Gen.frame_system ()) app
     in
     match Rtfmt.Appfile.parse text with
     | { Rtfmt.Appfile.app; system = Some system } -> (app, system)
     | { Rtfmt.Appfile.system = None; _ } -> Alcotest.fail "no system read")

let words_per_task app v =
  float_of_int (Obj.reachable_words (Obj.repr v))
  /. float_of_int (Rtlb.App.n_tasks app)

let within what bound per_task =
  if per_task > bound then
    Alcotest.failf "%s: %.1f words per task, budget %.1f" what per_task bound

let app_words () =
  let app, _ = Lazy.force instance in
  check_int "tasks" 2000 (Rtlb.App.n_tasks app);
  within "App.t" 21.0 (words_per_task app app)

let analysis_words () =
  let app, system = Lazy.force instance in
  let a = Rtlb.Analysis.run system app in
  within "Analysis.t with its app" 28.0 (words_per_task app a);
  within "its windows" 2.5 (words_per_task app a.Rtlb.Analysis.windows)

let suite =
  [
    ( "budgets",
      [
        Alcotest.test_case "reachable words: App.t" `Quick app_words;
        Alcotest.test_case "reachable words: Analysis.t and its windows"
          `Quick analysis_words;
      ] );
  ]
