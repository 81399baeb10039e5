(* Tests for the validation & diagnostics subsystem: stable codes with
   source lines from crafted app files, the exhaustive (not fail-fast)
   contract, cycle reports that name a real cycle in linear time, the
   corruption properties (every corruption of a rendered file is caught,
   every rendered generated instance passes the declaration checks), the
   line-number fixes in the strict Appfile parser, and the appfile
   round-trip including systems. *)

open Helpers

let codes ds = List.map (fun d -> d.Rtlb.Validate.d_code) ds
let has_code c ds = List.mem c (codes ds)

let find_code c ds =
  match List.find_opt (fun d -> d.Rtlb.Validate.d_code = c) ds with
  | Some d -> d
  | None ->
      Alcotest.failf "no %s among [%s]" c (String.concat "; " (codes ds))

let check_src = Rtfmt.Appfile.check

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
    (has_code "E104" (Rtlb.Validate.check_windows ~system app));
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

(* A task declared before a cycle it only hangs below: the walk once
   started there and reported "z -> z", with no line. *)
let below_cycle =
  "task z compute=1 deadline=10 proc=P\n\
   task x compute=1 deadline=10 proc=P\n\
   task y compute=1 deadline=10 proc=P\n\
   edge x y 0\n\
   edge y x 0\n\
   edge y z 0\n"

let cycle_below_is_real () =
  (match Rtfmt.Appfile.parse below_cycle with
  | _ -> Alcotest.fail "parse accepted a cycle"
  | exception Rtfmt.Appfile.Parse_error (line, m) ->
      check_int "parse: line" 4 line;
      check_string "parse: the cycle" "precedence cycle: x -> y -> x" m);
  let d = find_code "E101" (check_src below_cycle) in
  Alcotest.(check (option int)) "check: line" (Some 4) d.Rtlb.Validate.d_line;
  check_string "check: the cycle" "precedence cycle: x -> y -> x"
    d.Rtlb.Validate.d_message;
  (* a cycle the walk meets first is named once around, not closed
     twice *)
  match
    Rtfmt.Appfile.parse
      "task a compute=1 deadline=9 proc=P\n\
       task b compute=1 deadline=9 proc=P\n\
       edge a b 0\n\
       edge b a 0\n"
  with
  | _ -> Alcotest.fail "parse accepted a cycle"
  | exception Rtfmt.Appfile.Parse_error (line, m) ->
      check_int "2-cycle: line" 3 line;
      check_string "2-cycle" "precedence cycle: a -> b -> a" m

(* A ring of 40,000 tasks: marking the cycle's edges took a list search
   per edge in both the parse and the check, 4x the time per doubling. *)
let long_cycle_linear () =
  let n = 40_000 in
  let b = Buffer.create (n * 64) in
  for i = 0 to n - 1 do
    Printf.bprintf b "task t%d compute=1 deadline=9 proc=P\n" i
  done;
  for i = 0 to n - 1 do
    Printf.bprintf b "edge t%d t%d 0\n" i ((i + 1) mod n)
  done;
  let text = Buffer.contents b in
  let expected =
    "precedence cycle: "
    ^ String.concat " -> " (List.init (n + 1) (fun i -> Printf.sprintf "t%d" (i mod n)))
  in
  let within what f =
    let start = Sys.time () in
    let result = f () in
    let took = Sys.time () -. start in
    if took > 2.0 then Alcotest.failf "%s took %.2f s of CPU" what took;
    result
  in
  (match within "parse" (fun () -> Rtfmt.Appfile.parse text) with
  | _ -> Alcotest.fail "parse accepted a ring"
  | exception Rtfmt.Appfile.Parse_error (line, m) ->
      check_int "parse: line of the first edge" (n + 1) line;
      check_bool "parse: the ring" true (String.equal expected m));
  let d = find_code "E101" (within "check" (fun () -> check_src text)) in
  Alcotest.(check (option int))
    "check: line of the first edge" (Some (n + 1)) d.Rtlb.Validate.d_line;
  check_bool "check: the ring" true (String.equal expected d.Rtlb.Validate.d_message)

(* Window-phase lines for names that contain '@': a one-shot task is
   found by its index, a periodic job "t@k" at the line of t, its name
   cut at its last '@'.  Cutting at the first '@' gave a@1 the line of
   a, or none, and the jobs of x@y the line of x. *)
let at_sign_lines () =
  let lines_of code ds =
    List.filter_map
      (fun (d : Rtlb.Validate.diag) ->
        if d.Rtlb.Validate.d_code = code then
          Some (d.Rtlb.Validate.d_subject, d.Rtlb.Validate.d_line)
        else None)
      ds
  in
  Alcotest.(check (list (pair string (option int))))
    "one-shot a@1 beside a"
    [ ("task a", Some 1); ("task a@1", Some 2) ]
    (lines_of "E102"
       (check_src
          "task a compute=5 deadline=20 proc=P\n\
           task a@1 compute=5 deadline=9 proc=P\n\
           edge a a@1 0\n"));
  Alcotest.(check (list (pair string (option int))))
    "one-shot a@1 alone"
    [ ("task b", Some 1); ("task a@1", Some 2) ]
    (lines_of "E102"
       (check_src
          "task b compute=5 deadline=20 proc=P\n\
           task a@1 compute=5 deadline=9 proc=P\n\
           edge b a@1 0\n"));
  Alcotest.(check (list (pair string (option int))))
    "periodic x@y beside x"
    [ ("task x@y@0", Some 2) ]
    (lines_of "W203"
       (check_src
          "task x period=10 compute=1 deadline=5 proc=P\n\
           task x@y period=10 compute=2 deadline=2 proc=P\n"))

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

let check_agrees_with_feasibility =
  qtest "has_errors(check) = window infeasibility on valid apps"
    (arb_instance ()) (fun i ->
      let system = shared_of i in
      let ds = check_src (Rtfmt.Appfile.to_string ~system i.app) in
      let infeasible =
        Result.is_error
          (Rtlb.Windows.feasible i.app
             (Rtlb.Est_lct.windows (Rtlb.Est_lct.compute system i.app)))
      in
      Rtlb.Validate.has_errors ds = infeasible)

(* Edits of a valid instance's rendered file that leave the valid
   instances, each in a way the check must catch with an E*: *)
type corruption =
  | Reverse_edge  (* an edge closed into a 2-cycle (E101) *)
  | Shrink_window  (* a deadline below release + compute (E102) *)
  | Dangling_edge  (* an edge to an undeclared task (E103) *)
  | Negative_message  (* a message size of -1 (E104) *)
  | Negative_compute  (* a compute of -1 (E104) *)
  | Duplicate_task  (* the first task declared again (E105) *)

let corruptions =
  [
    Reverse_edge;
    Shrink_window;
    Dangling_edge;
    Negative_message;
    Negative_compute;
    Duplicate_task;
  ]

let corruption_name = function
  | Reverse_edge -> "reverse-edge"
  | Shrink_window -> "shrink-window"
  | Dangling_edge -> "dangling-edge"
  | Negative_message -> "negative-message"
  | Negative_compute -> "negative-compute"
  | Duplicate_task -> "duplicate-task"

let words line = String.split_on_char ' ' line

(* The value of [key=] on a declaration line. *)
let field key line =
  let prefix = key ^ "=" in
  List.find_map
    (fun w ->
      if String.starts_with ~prefix w then
        int_of_string_opt
          (String.sub w (String.length prefix)
             (String.length w - String.length prefix))
      else None)
    (words line)

let set_field key value line =
  let prefix = key ^ "=" in
  words line
  |> List.map (fun w ->
         if String.starts_with ~prefix w then prefix ^ string_of_int value else w)
  |> String.concat " "

(* [text] with a corruption applied; [None] when it lacks the needed
   declaration (no edge to reverse, no task with work to squeeze). *)
let corrupt text c =
  let lines = String.split_on_char '\n' text in
  let first kind =
    List.find_opt (String.starts_with ~prefix:(kind ^ " ")) lines
  in
  let edit_first p f =
    match List.find_opt p lines with
    | None -> None
    | Some target ->
        let hit = ref false in
        Some
          (List.map
             (fun l ->
               if (not !hit) && l == target then begin
                 hit := true;
                 f l
               end
               else l)
             lines
          |> String.concat "\n")
  in
  let append line = Some (text ^ line ^ "\n") in
  match c with
  | Reverse_edge -> (
      match Option.map words (first "edge") with
      | Some [ _; src; dst; _ ] -> append (Printf.sprintf "edge %s %s 0" dst src)
      | _ -> None)
  | Shrink_window ->
      edit_first
        (fun l ->
          String.starts_with ~prefix:"task " l
          && Option.value (field "compute" l) ~default:0 > 0)
        (fun l ->
          let get k = Option.get (field k l) in
          set_field "deadline" (get "release" + get "compute" - 1) l)
  | Dangling_edge -> (
      match Option.map words (first "task") with
      | Some (_ :: name :: _) -> append ("edge " ^ name ^ " __undeclared__ 0")
      | _ -> None)
  | Negative_message ->
      edit_first (String.starts_with ~prefix:"edge ") (fun l ->
          match words l with
          | [ e; src; dst; _ ] -> String.concat " " [ e; src; dst; "-1" ]
          | _ -> l)
  | Negative_compute ->
      edit_first (String.starts_with ~prefix:"task ") (set_field "compute" (-1))
  | Duplicate_task -> Option.bind (first "task") append

let corruptions_always_caught =
  qtest "every corruption yields at least one E* diagnostic"
    (arb_instance ()) (fun i ->
      let text = Rtfmt.Appfile.to_string ~system:(shared_of i) i.app in
      List.for_all
        (fun c ->
          match corrupt text c with
          | None -> true (* instance lacks the structure; nothing to check *)
          | Some text ->
              Rtlb.Validate.has_errors (check_src text)
              || QCheck.Test.fail_reportf "corruption %s went undetected:\n%s"
                   (corruption_name c) text)
        corruptions)

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
      (* The window phase's E102 may legitimately fire (generated
         instances can be window-infeasible); any other error, the
         declared-window E102 included, would be a validator bug. *)
      List.for_all
        (fun (d : Rtlb.Validate.diag) ->
          match d.Rtlb.Validate.d_severity with
          | Rtlb.Validate.Warning -> true
          | Rtlb.Validate.Error ->
              d.Rtlb.Validate.d_code = "E102"
              && String.starts_with ~prefix:"EST/LCT window"
                   d.Rtlb.Validate.d_message
              || QCheck.Test.fail_reportf "%s on\n%s"
                   (Rtlb.Validate.to_string d) src)
        (check_src src))

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
                    d_line = line_of i;
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

(* Lines for some tasks only, several tasks to a line, so that the
   sort's stability and the unlocated tail are exercised. *)
let some_lines i =
  let h = Hashtbl.hash (i * 7919) in
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
        Alcotest.test_case "a cycle report names a real cycle" `Quick
          cycle_below_is_real;
        Alcotest.test_case "cycle reports take linear time" `Quick
          long_cycle_linear;
        Alcotest.test_case "window-phase lines for names with '@'" `Quick
          at_sign_lines;
        Alcotest.test_case "diagnostic line format" `Quick to_string_format;
        Alcotest.test_case "strict parse errors carry source lines" `Quick
          parse_located_errors;
        Alcotest.test_case "cycles are Parse_error, not Dag.Cycle" `Quick
          parse_cycle_is_parse_error;
        check_agrees_with_feasibility;
        corruptions_always_caught;
        roundtrip_with_shared;
        roundtrip_with_dedicated;
        roundtrip_spec_is_clean;
        windows_match_record_engine;
      ] );
  ]
