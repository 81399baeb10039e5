(* Memory budgets on a fixed layered_frames instance read from its
   text, as the CLI reads it.  Reachable words per task of what a parse
   and an analysis keep: the application is its columns and its graph;
   the result adds the two window arrays, the partitions, the bounds and
   the cost; no per-task record or merge trace stays reachable.  And the
   words [check] allocates, against a parse and the windows. *)

open Helpers

let text =
  lazy
    (Rtfmt.Appfile.to_string ~system:(Workload.Gen.frame_system ())
       (Workload.Gen.layered_frames ~seed:7 ~frames:20 ()))

let read text =
  match Rtfmt.Appfile.parse text with
  | { Rtfmt.Appfile.app; system = Some system } -> (app, system)
  | { Rtfmt.Appfile.system = None; _ } -> Alcotest.fail "no system read"

let instance = lazy (read (Lazy.force text))

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

(* Words [f] allocates, minor and major heap together.  The minor
   collections on both sides keep words allocated before the call from
   being promoted, and so subtracted, inside it. *)
let allocated_words f =
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor ();
  (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8)

(* [rtlb check] reads its text once: the declaration checks on the
   reader's columns and the window phase on the instance built from
   them cost at most twice a parse and the windows of the same text.
   Turning the columns into spec records, checking those with string
   tables and parsing again took 301.5 words per task, against 39.0
   for the parse and the windows; the one read takes 47.7. *)
let check_allocation () =
  let text = Lazy.force text in
  let per_task words = words /. 2000.0 in
  let read_and_windows =
    per_task
      (allocated_words (fun () ->
           let app, system = read text in
           Rtlb.Analysis.windows system app))
  in
  let check = per_task (allocated_words (fun () -> Rtfmt.Appfile.check text)) in
  if check > 2.0 *. read_and_windows then
    Alcotest.failf
      "Appfile.check allocated %.1f words per task, over twice the %.1f of \
       Appfile.parse and Analysis.windows"
      check read_and_windows

let suite =
  [
    ( "budgets",
      [
        Alcotest.test_case "reachable words: App.t" `Quick app_words;
        Alcotest.test_case "reachable words: Analysis.t and its windows"
          `Quick analysis_words;
        Alcotest.test_case "allocation: check within twice parse + windows"
          `Quick check_allocation;
      ] );
  ]
