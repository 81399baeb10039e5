(* Tests for the validation & diagnostics subsystem: stable codes with
   source lines from crafted app files, the exhaustive (not fail-fast)
   contract, the corruption properties (every Workload.Mutate corruption
   is caught, every generated instance passes the spec phase), the
   satellite line-number fixes in the strict Appfile parser, and the
   appfile round-trip including systems. *)

open Helpers

let codes ds = List.map (fun d -> d.Rtlb.Validate.d_code) ds
let has_code c ds = List.mem c (codes ds)

let find_code c ds =
  match List.find_opt (fun d -> d.Rtlb.Validate.d_code = c) ds with
  | Some d -> d
  | None ->
      Alcotest.failf "no %s among [%s]" c (String.concat "; " (codes ds))

let check_src src = Rtfmt.Appfile.check (Rtfmt.Appfile.parse_spec src)

(* ------------------------------------------------------------------ *)
(* One crafted file per code, with the line number asserted             *)
(* ------------------------------------------------------------------ *)

let code_cycle () =
  let ds =
    check_src
      "task a compute=1 deadline=10 proc=P\n\
       task b compute=1 deadline=10 proc=P\n\
       edge a b 0\n\
       edge b a 0\n"
  in
  let d = find_code "E101" ds in
  check_bool "cycle names both tasks" true
    (string_contains ~needle:"a" d.Rtlb.Validate.d_message);
  Alcotest.(check (option int))
    "cycle reported at its first edge" (Some 3) d.Rtlb.Validate.d_line

let code_self_loop () =
  let ds =
    check_src "task a compute=1 deadline=10 proc=P\nedge a a 0\n"
  in
  let d = find_code "E101" ds in
  Alcotest.(check (option int)) "self loop line" (Some 2) d.Rtlb.Validate.d_line

let code_task_window () =
  let ds = check_src "task a compute=7 release=2 deadline=8 proc=P\n" in
  let d = find_code "E102" ds in
  Alcotest.(check (option int)) "window line" (Some 1) d.Rtlb.Validate.d_line

let code_estlct_window () =
  (* Task-level windows are fine; only the Section 4 propagation exposes
     that b cannot start before a finishes. *)
  let ds =
    check_src
      "task a compute=5 deadline=20 proc=P\n\
       task b compute=5 deadline=9 proc=P\n\
       edge a b 0\n"
  in
  (* The propagation squeezes both endpoints: a's LCT drops to 4 via the
     backward pass, b's EST rises to 5 via the forward pass. *)
  let e102s = List.filter (fun d -> d.Rtlb.Validate.d_code = "E102") ds in
  let subject_of (d : Rtlb.Validate.diag) =
    (d.Rtlb.Validate.d_subject, d.Rtlb.Validate.d_line)
  in
  check_bool "task a squeezed by the backward pass" true
    (List.mem ("task a", Some 1) (List.map subject_of e102s));
  check_bool "task b squeezed by the forward pass" true
    (List.mem ("task b", Some 2) (List.map subject_of e102s))

let code_dangling_edge () =
  let ds =
    check_src "task a compute=1 deadline=10 proc=P\nedge a ghost 0\n"
  in
  let d = find_code "E103" ds in
  Alcotest.(check (option int)) "edge line" (Some 2) d.Rtlb.Validate.d_line

let code_dangling_proc () =
  let ds =
    check_src "task a compute=1 deadline=10 proc=P2\nshared P1=5\n" in
  check_bool "missing proc cost is E103" true (has_code "E103" ds)

let code_negative_quantity () =
  let ds =
    check_src
      "task a compute=-1 deadline=10 proc=P\n\
       task b compute=1 deadline=10 proc=P\n\
       edge a b -4\n"
  in
  let es = List.filter (fun d -> d.Rtlb.Validate.d_code = "E104") ds in
  check_int "negative compute and negative message both reported" 2
    (List.length es)

(* Quantities near max_int.  A declared window whose release + compute
   wraps is refused like any window too small for its task, and an
   instance whose demand sums leave int range is refused before any
   analysis sums them — where both once passed, the second with a lower
   bound of 0 against the paper's ceil(6e18 / 4e18) = 2. *)
let big = 3_000_000_000_000_000_000
let bigger = 4_000_000_000_000_000_000

let overflow_refused () =
  (match
     Rtlb.Task.make ~id:0 ~compute:big ~release:big ~deadline:bigger ~proc:"P"
       ()
   with
  | _ -> Alcotest.fail "Task.make accepted a window that wraps"
  | exception Invalid_argument _ -> ());
  let ds =
    check_src
      (Printf.sprintf "task a compute=%d release=%d deadline=%d proc=P\n" big
         big bigger)
  in
  Alcotest.(check (option int))
    "wrapping window: E102 at its line" (Some 1)
    (find_code "E102" ds).Rtlb.Validate.d_line;
  let task id =
    Rtlb.Task.make ~id ~compute:big ~deadline:bigger ~proc:"P" ()
  in
  let app = Rtlb.App.make ~tasks:[ task 0; task 1 ] ~edges:[] in
  let system = Rtlb.System.shared ~costs:[ ("P", 1) ] in
  check_bool "demand past max_int: check_range refuses" true
    (Result.is_error (Rtlb.App.check_range app));
  check_bool "demand past max_int: E104" true
    (has_code "E104" (Rtlb.Validate.check ~system app));
  (match Rtlb.Analysis.run system app with
  | a ->
      Alcotest.failf "Analysis.run answered lb %d"
        (Rtlb.Analysis.bound_for a "P")
  | exception Invalid_argument _ -> ());
  (* a what-if that pushes an instance in range out of it is refused
     by the edit (serve's S301), and leaves the handle as it was *)
  let fits = 600_000_000_000_000_000 in
  let app =
    Rtlb.App.make
      ~tasks:
        [
          Rtlb.Task.make ~id:0 ~compute:1 ~deadline:fits ~proc:"P" ();
          Rtlb.Task.make ~id:1 ~compute:1 ~deadline:fits ~proc:"P" ();
        ]
      ~edges:[]
  in
  check_bool "in range" true (Result.is_ok (Rtlb.App.check_range app));
  let handle = Rtlb.Incremental.create system app in
  (match
     Rtlb.Incremental.edit handle
       [ Rtlb.Incremental.Set_compute { task = 0; compute = fits } ]
   with
  | _ -> Alcotest.fail "a what-if past max_int was answered"
  | exception Invalid_argument _ -> ());
  check_bool "handle unchanged" true
    (Oracle.values_identical (Rtlb.Incremental.base handle)
       (Oracle.run system app))

let code_duplicate_task () =
  let ds =
    check_src
      "task a compute=1 deadline=10 proc=P\n\
       task a compute=2 deadline=10 proc=P\n"
  in
  let d = find_code "E105" ds in
  Alcotest.(check (option int))
    "duplicate reported at its own line" (Some 2) d.Rtlb.Validate.d_line

let code_duplicate_edge () =
  let ds =
    check_src
      "task a compute=1 deadline=10 proc=P\n\
       task b compute=1 deadline=10 proc=P\n\
       edge a b 0\n\
       edge a b 3\n"
  in
  let d = find_code "E105" ds in
  Alcotest.(check (option int)) "second edge" (Some 4) d.Rtlb.Validate.d_line

let code_mixed_periodic () =
  let ds =
    check_src
      "task a compute=1 period=10 proc=P\n\
       task b compute=1 deadline=10 proc=P\n"
  in
  check_bool "mixed model is E106" true (has_code "E106" ds)

let code_warnings_clean_exit () =
  let ds =
    check_src
      "task a compute=0 deadline=10 proc=P\n\
       task b compute=1 deadline=10 proc=P\n\
       shared P=1 r9=2\n"
  in
  check_bool "zero compute is W201" true (has_code "W201" ds);
  check_bool "unused resource is W202" true (has_code "W202" ds);
  check_bool "warnings are not errors" false (Rtlb.Validate.has_errors ds)

let exhaustive_not_fail_fast () =
  (* One file, many independent problems: all of them must surface. *)
  let ds =
    check_src
      "task a compute=-3 deadline=10 proc=P\n\
       task a compute=1 deadline=10 proc=P\n\
       task b compute=9 release=5 deadline=6 proc=P\n\
       edge a ghost 2\n\
       edge b b 0\n"
  in
  List.iter
    (fun c -> check_bool ("found " ^ c) true (has_code c ds))
    [ "E104"; "E105"; "E102"; "E103"; "E101" ]

let to_string_format () =
  let d =
    {
      Rtlb.Validate.d_code = "E102";
      d_severity = Rtlb.Validate.Error;
      d_subject = "task a";
      d_message = "boom";
      d_line = Some 7;
    }
  in
  check_string "one-line diagnostic format" "app.app:7: E102 task a: boom"
    (Rtlb.Validate.to_string ~file:"app.app" d);
  check_string "prefix shrinks without a line" "E102 task a: boom"
    (Rtlb.Validate.to_string { d with Rtlb.Validate.d_line = None })

(* ------------------------------------------------------------------ *)
(* Strict parser: located errors, no leaked exceptions (satellite)      *)
(* ------------------------------------------------------------------ *)

let expect_parse_error ~line ~needle src =
  match Rtfmt.Appfile.parse src with
  | _ -> Alcotest.failf "parse accepted %S" src
  | exception Rtfmt.Appfile.Parse_error (l, m) ->
      check_int ("line of " ^ needle) line l;
      check_bool
        (Printf.sprintf "message %S mentions %S" m needle)
        true
        (string_contains ~needle m)

let parse_located_errors () =
  expect_parse_error ~line:3 ~needle:"duplicate task name"
    "task a compute=1 deadline=9 proc=P\n\
     task b compute=1 deadline=9 proc=P\n\
     task a compute=2 deadline=9 proc=P\n";
  expect_parse_error ~line:2 ~needle:"unknown task"
    "task a compute=1 deadline=9 proc=P\nedge a ghost 0\n";
  expect_parse_error ~line:2 ~needle:"self loop"
    "task a compute=1 deadline=9 proc=P\nedge a a 0\n";
  expect_parse_error ~line:4 ~needle:"duplicate edge"
    "task a compute=1 deadline=9 proc=P\n\
     task b compute=1 deadline=9 proc=P\n\
     edge a b 0\n\
     edge a b 1\n";
  expect_parse_error ~line:1 ~needle:"task a"
    "task a compute=-1 deadline=9 proc=P\n"

let parse_cycle_is_parse_error () =
  (* Dag.Cycle used to escape Appfile.parse; it must surface as a located
     Parse_error naming the cycle. *)
  expect_parse_error ~line:4 ~needle:"precedence cycle"
    "task a compute=1 deadline=9 proc=P\n\
     task b compute=1 deadline=9 proc=P\n\
     task c compute=1 deadline=9 proc=P\n\
     edge a b 0\n\
     edge b c 0\n\
     edge c a 0\n"

(* ------------------------------------------------------------------ *)
(* Properties over generated instances                                  *)
(* ------------------------------------------------------------------ *)

let spec_phase_accepts_valid =
  qtest "constructed apps never trip the spec phase"
    (arb_instance ()) (fun i ->
      let tasks, edges = Rtlb.Validate.spec_of_app i.app in
      let ds =
        Rtlb.Validate.check_spec ~system:(Some (shared_of i)) ~tasks ~edges
      in
      not (Rtlb.Validate.has_errors ds))

let check_agrees_with_feasibility =
  qtest "has_errors(check) = window infeasibility on valid apps"
    (arb_instance ()) (fun i ->
      let system = shared_of i in
      let ds = Rtlb.Validate.check ~system i.app in
      let infeasible =
        Result.is_error
          (Rtlb.Windows.feasible i.app
             (Rtlb.Est_lct.windows (Rtlb.Est_lct.compute system i.app)))
      in
      Rtlb.Validate.has_errors ds = infeasible)

let corruptions_always_caught =
  qtest "every corruption yields at least one E* diagnostic"
    (arb_instance ()) (fun i ->
      List.for_all
        (fun c ->
          match Workload.Mutate.corrupt i.app c with
          | None -> true (* instance lacks the structure; nothing to check *)
          | Some (tasks, edges) ->
              let ds = Rtlb.Validate.check_spec ~system:None ~tasks ~edges in
              Rtlb.Validate.has_errors ds
              || QCheck.Test.fail_reportf "corruption %s went undetected"
                   (Workload.Mutate.corruption_name c))
        Workload.Mutate.corruptions)

(* ------------------------------------------------------------------ *)
(* Appfile round-trip, including systems                                *)
(* ------------------------------------------------------------------ *)

let apps_equal a b =
  Rtlb.App.tasks a = Rtlb.App.tasks b
  && Dag.fold_edges (Rtlb.App.graph a) ~init:[] ~f:(fun acc ~src ~dst m ->
         (src, dst, m) :: acc)
     = Dag.fold_edges (Rtlb.App.graph b) ~init:[] ~f:(fun acc ~src ~dst m ->
           (src, dst, m) :: acc)

let roundtrip_with_shared =
  qtest "parse (to_string ~system:shared app) round-trips"
    (arb_instance ()) (fun i ->
      let system = shared_of i in
      let { Rtfmt.Appfile.app; system = sys' } =
        Rtfmt.Appfile.parse (Rtfmt.Appfile.to_string ~system i.app)
      in
      apps_equal i.app app && sys' = Some system)

let roundtrip_with_dedicated =
  qtest "parse (to_string ~system:dedicated app) round-trips"
    (arb_instance ()) (fun i ->
      let system = dedicated_of i in
      let { Rtfmt.Appfile.app; system = sys' } =
        Rtfmt.Appfile.parse (Rtfmt.Appfile.to_string ~system i.app)
      in
      apps_equal i.app app && sys' = Some system)

let roundtrip_spec_is_clean =
  qtest "rendered valid apps pass the full check"
    (arb_instance ()) (fun i ->
      let src = Rtfmt.Appfile.to_string ~system:(shared_of i) i.app in
      let ds = Rtfmt.Appfile.check (Rtfmt.Appfile.parse_spec src) in
      (* E102 may legitimately fire (generated instances can be window-
         infeasible); everything else would be a validator bug. *)
      List.for_all
        (fun (d : Rtlb.Validate.diag) ->
          match d.Rtlb.Validate.d_severity with
          | Rtlb.Validate.Warning -> true
          | Rtlb.Validate.Error -> d.Rtlb.Validate.d_code = "E102")
        ds)

(* ------------------------------------------------------------------ *)
(* The window phase against the record windows                          *)
(* ------------------------------------------------------------------ *)

(* [Validate.check_windows] as it read the record engine: the same
   diagnostics from the windows of [Est_lct.compute], stably sorted by
   line with unlocated ones last. *)
let record_check_windows ~line_of ~system app =
  let open Rtlb.Validate in
  let application_error code e =
    {
      d_code = code;
      d_severity = Error;
      d_subject = "application";
      d_message = e;
      d_line = None;
    }
  in
  match Rtlb.System.validate_for system app with
  | Error e -> [ application_error "E103" e ]
  | Ok () -> (
      match Rtlb.App.check_range app with
      | Error e -> [ application_error "E104" e ]
      | Ok () ->
          let windows = Rtlb.Est_lct.compute system app in
          let acc = ref [] in
          Array.iter
            (fun (task : Rtlb.Task.t) ->
              let i = task.Rtlb.Task.id in
              let e = windows.Rtlb.Est_lct.est.(i)
              and l = windows.Rtlb.Est_lct.lct.(i)
              and c = task.Rtlb.Task.compute in
              let diag code severity message =
                acc :=
                  {
                    d_code = code;
                    d_severity = severity;
                    d_subject = "task " ^ task.Rtlb.Task.name;
                    d_message = message;
                    d_line = line_of task.Rtlb.Task.name;
                  }
                  :: !acc
              in
              if e + c > l then
                diag "E102" Error
                  (Printf.sprintf
                     "EST/LCT window [%d, %d] cannot hold compute %d \
                      (infeasible on every system of this model)"
                     e l c)
              else if c > 0 && e + c = l then
                diag "W203" Warning
                  (Printf.sprintf
                     "zero slack: EST/LCT window [%d, %d] exactly holds \
                      compute %d"
                     e l c))
            (Rtlb.App.tasks app);
          List.stable_sort
            (fun a b ->
              let key d = match d.d_line with Some l -> l | None -> max_int in
              compare (key a) (key b))
            (List.rev !acc))

(* Lines for some names only, several names to a line, so that the
   sort's stability and the unlocated tail are exercised. *)
let some_lines name =
  let h = Hashtbl.hash name in
  if h mod 3 = 0 then None else Some (h mod 5)

let windows_match_record_engine =
  qtest ~count:100
    "check_windows = its record-window reference (families, squeezed, \
     both models)"
    Test_soa.arb_family (fun f ->
      List.for_all
        (fun (k, tight) ->
          let app = Test_soa.transform ~k ~tight f.Test_soa.f_app in
          List.for_all
            (fun system ->
              Rtlb.Validate.check_windows ~line_of:some_lines ~system app
              = record_check_windows ~line_of:some_lines ~system app
              || QCheck.Test.fail_reportf "%s (x%d%s) differs:\n%s"
                   f.Test_soa.label k
                   (if tight then ", tight" else "")
                   (Rtfmt.Appfile.to_string ~system app))
            [ f.Test_soa.f_shared; f.Test_soa.f_dedicated ])
        [ (1, false); (1, true); (1_000, true) ])

let suite =
  [
    ( "validate",
      [
        Alcotest.test_case "E101 cycle with line" `Quick code_cycle;
        Alcotest.test_case "E101 self loop" `Quick code_self_loop;
        Alcotest.test_case "E102 task-level window" `Quick code_task_window;
        Alcotest.test_case "E102 after EST/LCT propagation" `Quick
          code_estlct_window;
        Alcotest.test_case "E103 dangling edge endpoint" `Quick
          code_dangling_edge;
        Alcotest.test_case "E103 processor missing from system" `Quick
          code_dangling_proc;
        Alcotest.test_case "E104 negative quantities" `Quick
          code_negative_quantity;
        Alcotest.test_case "times near max_int are refused, not wrapped"
          `Quick overflow_refused;
        Alcotest.test_case "E105 duplicate task" `Quick code_duplicate_task;
        Alcotest.test_case "E105 duplicate edge" `Quick code_duplicate_edge;
        Alcotest.test_case "E106 mixed periodic/one-shot" `Quick
          code_mixed_periodic;
        Alcotest.test_case "W201/W202 are warnings, not errors" `Quick
          code_warnings_clean_exit;
        Alcotest.test_case "validation is exhaustive, not fail-fast" `Quick
          exhaustive_not_fail_fast;
        Alcotest.test_case "diagnostic line format" `Quick to_string_format;
        Alcotest.test_case "strict parse errors carry source lines" `Quick
          parse_located_errors;
        Alcotest.test_case "cycles are Parse_error, not Dag.Cycle" `Quick
          parse_cycle_is_parse_error;
        spec_phase_accepts_valid;
        check_agrees_with_feasibility;
        corruptions_always_caught;
        roundtrip_with_shared;
        roundtrip_with_dedicated;
        roundtrip_spec_is_clean;
        windows_match_record_engine;
      ] );
  ]
