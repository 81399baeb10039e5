(* The application-file reader: whitespace rules, agreement with the
   list-based reference reader (Appfile_ref), totality on byte-mutated
   input, and parse (to_string app) = app on every generator family. *)

open Helpers

let read path = In_channel.with_open_bin path In_channel.input_all

let corpus_dir rel =
  let dir = repo_path rel in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".app")
  |> List.sort compare
  |> List.map (fun f -> read (Filename.concat dir f))

(* examples/*.app and the invalid golden corpus *)
let corpus =
  lazy (corpus_dir "examples" @ corpus_dir "test/golden/invalid")

let paper_text = lazy (read (repo_path "examples/paper_example.app"))

(* What [parse] made of a text: the application rendered back, or the
   located error; any other exception by name. *)
let outcome parse text =
  match parse text with
  | { Rtfmt.Appfile.app; system } ->
      Ok (Rtfmt.Appfile.to_string ?system app)
  | exception Rtfmt.Appfile.Parse_error (line, m) -> Error (line, m)
  | exception e -> Error (-1, Printexc.to_string e)

(* What [rtlb check] prints for a text, file name aside. *)
let check_output text =
  match Rtfmt.Appfile.parse_spec text with
  | spec ->
      List.map (Rtlb.Validate.to_string ~file:"f") (Rtfmt.Appfile.check spec)
  | exception Rtfmt.Appfile.Parse_error (line, m) ->
      [ Printf.sprintf "E100 %d %s" line m ]

let crlf text =
  String.split_on_char '\n' text |> String.concat "\r\n"

let tabs text = String.map (fun c -> if c = ' ' then '\t' else c) text

let mixed_blanks text =
  String.split_on_char ' ' text |> String.concat " \t "

let show = function
  | Ok s -> s
  | Error (line, m) -> Printf.sprintf "error at line %d: %s" line m

let same_reading ~what lf variant =
  check_string (what ^ ": same application")
    (show (outcome Rtfmt.Appfile.parse lf))
    (show (outcome Rtfmt.Appfile.parse variant));
  Alcotest.(check (list string))
    (what ^ ": same check output") (check_output lf) (check_output variant)

(* Blanks at the start of every [k]-th line: the reader sizes its
   columns by each line's first byte that is not a blank, so indented
   declarations must be counted as declarations. *)
let indent k text =
  String.split_on_char '\n' text
  |> List.mapi (fun i l -> if i mod k = 0 then " \t" ^ l else l)
  |> String.concat "\n"

(* Space, tab and carriage return all separate words, so CRLF files and
   tab-indented files read exactly like the LF original. *)
let blanks_separate_words () =
  let lf = Lazy.force paper_text in
  same_reading ~what:"CRLF" lf (crlf lf);
  same_reading ~what:"tabs" lf (tabs lf);
  same_reading ~what:"tabs and spaces" lf (mixed_blanks lf);
  let frames =
    Rtfmt.Appfile.to_string ~system:(Workload.Gen.frame_system ())
      (Workload.Gen.layered_frames ~seed:3 ~frames:3 ())
  in
  same_reading ~what:"300 tasks, every line indented" frames (indent 1 frames);
  same_reading ~what:"300 tasks, every third line indented" frames
    (indent 3 frames);
  (* Tasks only: with carriage returns kept in words this read "P1\r" as
     a second processor type and checked clean. *)
  let tasks_only =
    String.split_on_char '\n' lf
    |> List.filter (fun l -> String.length l > 4 && String.sub l 0 4 = "task")
    |> String.concat "\n"
  in
  same_reading ~what:"tasks-only CRLF" tasks_only (crlf tasks_only);
  let { Rtfmt.Appfile.app; _ } = Rtfmt.Appfile.parse (crlf tasks_only) in
  Alcotest.(check (list string))
    "tasks-only CRLF resource set" [ "P1"; "P2"; "r1" ]
    (Rtlb.App.resource_set app);
  (* an error keeps its line number under CRLF *)
  check_string "CRLF error line"
    (show (outcome Rtfmt.Appfile.parse "task a compute=1 deadline=9 proc=P\nedge a b\n"))
    (show
       (outcome Rtfmt.Appfile.parse
          "task a compute=1 deadline=9 proc=P\r\nedge a b\r\n"))

(* ---------------- byte mutations ---------------- *)

(* Bytes the mutations draw from: mostly the format's own alphabet, so
   the mutants reach past the first syntax check. *)
let interesting = "0123456789=#,x- \nabcprTtaskedgeshrdnoP@_+"

let mutate ~blanks rand text =
  let byte () =
    let c =
      if Random.State.int rand 4 = 0 then Char.chr (Random.State.int rand 256)
      else interesting.[Random.State.int rand (String.length interesting)]
    in
    if (not blanks) && (c = '\t' || c = '\r') then ' ' else c
  in
  let edit t =
    let n = String.length t in
    let at = if n = 0 then 0 else Random.State.int rand n in
    match Random.State.int rand 4 with
    | 0 when n > 0 -> String.mapi (fun i c -> if i = at then byte () else c) t
    | 1 -> String.sub t 0 at ^ String.make 1 (byte ()) ^ String.sub t at (n - at)
    | 2 when n > 0 -> String.sub t 0 at ^ String.sub t (at + 1) (n - at - 1)
    | _ ->
        (* duplicate a stretch, e.g. a whole declaration *)
        let len = Random.State.int rand (min 80 (n - at) + 1) in
        String.sub t 0 at ^ String.sub t at len ^ String.sub t at (n - at)
  in
  let rec go k t = if k = 0 then t else go (k - 1) (edit t) in
  go (1 + Random.State.int rand 4) text

let arb_mutant ~blanks =
  QCheck.make ~print:String.escaped (fun rand ->
      let corpus = Lazy.force corpus in
      let text = List.nth corpus (Random.State.int rand (List.length corpus)) in
      if Random.State.int rand 8 = 0 then text else mutate ~blanks rand text)

let spec_outcome parse text =
  match parse text with
  | spec -> Ok spec
  | exception Rtfmt.Appfile.Parse_error (line, m) -> Error (line, m)
  | exception e -> Error (-1, Printexc.to_string e)

let same_spec a b =
  match (a, b) with
  | Ok (a : Rtfmt.Appfile.spec), Ok (b : Rtfmt.Appfile.spec) ->
      a.Rtfmt.Appfile.spec_tasks = b.Rtfmt.Appfile.spec_tasks
      && a.Rtfmt.Appfile.spec_edges = b.Rtfmt.Appfile.spec_edges
      && a.Rtfmt.Appfile.spec_system = b.Rtfmt.Appfile.spec_system
      && Rtfmt.Appfile.check a = Rtfmt.Appfile.check b
  | Error e, Error e' -> e = e'
  | _ -> false

let differential =
  qtest ~count:600 "reader agrees with the list-based reference"
    (arb_mutant ~blanks:false) (fun text ->
      outcome Rtfmt.Appfile.parse text = outcome Appfile_ref.parse text
      && same_spec
           (spec_outcome Rtfmt.Appfile.parse_spec text)
           (spec_outcome Appfile_ref.parse_spec text))

(* Duplicate edges are found by Dag's sorted rows, and the first one in
   file order only once something fails: it must still outrank a later
   unknown endpoint or self loop, an invalid task, a negative message
   and a cycle, and still yield to a syntax error, a redeclared name
   and an earlier faulty edge.  Edges may name tasks declared later. *)
let precedence_texts =
  let tasks = "task a compute=1 deadline=9 proc=P\ntask b compute=1 deadline=9 proc=P\n" in
  [
    (tasks ^ "edge a b 1\nedge a b 2\nedge a zz 1\n", Error (4, "duplicate edge a -> b"));
    (tasks ^ "edge a zz 1\nedge a b 1\nedge a b 2\n", Error (3, "edge: unknown task zz"));
    (tasks ^ "edge a b 1\nedge a b 2\nedge b b 1\n", Error (4, "duplicate edge a -> b"));
    ("task a compute=5 deadline=2 proc=P\ntask b compute=1 deadline=9 proc=P\n"
     ^ "edge a b 1\nedge a b 1\n", Error (4, "duplicate edge a -> b"));
    (tasks ^ "edge a b -1\nedge a b 1\n", Error (4, "duplicate edge a -> b"));
    (tasks ^ "edge a b 1\nedge b a 1\nedge a b 1\n", Error (5, "duplicate edge a -> b"));
    (tasks ^ "edge a b 1\nedge a b 1\nbogus\n", Error (5, "unknown directive \"bogus\""));
    (tasks ^ "task a compute=1 deadline=9 proc=P\nedge a b 1\nedge a b 1\n",
     Error (3, "duplicate task name a"));
    ("edge a b 1\nedge b c 1\n" ^ tasks ^ "task c compute=1 deadline=9 proc=P\n",
     outcome Rtfmt.Appfile.parse (tasks ^ "task c compute=1 deadline=9 proc=P\nedge a b 1\nedge b c 1\n"));
  ]

let error_precedence () =
  List.iter
    (fun (text, expected) ->
      let got = outcome Rtfmt.Appfile.parse text in
      check_string ("reference on " ^ String.escaped text)
        (show (outcome Appfile_ref.parse text)) (show got);
      check_string ("expected on " ^ String.escaped text) (show expected)
        (show got))
    precedence_texts

let total =
  qtest ~count:600 "reader is total on byte-mutated input"
    (arb_mutant ~blanks:true) (fun text ->
      (match Rtfmt.Appfile.parse text with
      | _ -> true
      | exception Rtfmt.Appfile.Parse_error _ -> true)
      &&
      match Rtfmt.Appfile.parse_spec text with
      | spec ->
          ignore (Rtfmt.Appfile.check spec);
          true
      | exception Rtfmt.Appfile.Parse_error _ -> true)

(* ---------------- round trips ---------------- *)

let apps_equal a b =
  Rtlb.App.n_tasks a = Rtlb.App.n_tasks b
  && Array.for_all2 Rtlb.Task.equal (Rtlb.App.tasks a) (Rtlb.App.tasks b)
  &&
  let edges app =
    Dag.fold_edges (Rtlb.App.graph app) ~init:[] ~f:(fun acc ~src ~dst w ->
        (src, dst, w) :: acc)
  in
  edges a = edges b

let roundtrips system app =
  let { Rtfmt.Appfile.app = app'; system = system' } =
    Rtfmt.Appfile.parse (Rtfmt.Appfile.to_string ~system app)
  in
  apps_equal app app' && system' = Some system

let families_roundtrip =
  qtest ~count:300 "parse (to_string ~system app) = app, every family"
    arb_family_instance (fun (_, _, shared, dedicated, app) ->
      roundtrips shared app && roundtrips dedicated app)

(* Counted demands and preemptive tasks on top of a family instance:
   each task takes its demands one to three times over, and about a
   third of the tasks become preemptive. *)
let with_counted seed app =
  let rand = Random.State.make [| seed |] in
  Rtlb.App.map_tasks app ~f:(fun (t : Rtlb.Task.t) ->
      let k = 1 + Random.State.int rand 3 in
      Rtlb.Task.make ~id:t.Rtlb.Task.id ~name:t.Rtlb.Task.name
        ~compute:t.Rtlb.Task.compute ~release:t.Rtlb.Task.release
        ~deadline:t.Rtlb.Task.deadline ~proc:t.Rtlb.Task.proc
        ~resources:
          (List.concat_map
             (fun (r, u) -> List.init (k * u) (fun _ -> r))
             t.Rtlb.Task.demands)
        ~preemptive:(t.Rtlb.Task.preemptive || Random.State.int rand 3 = 0)
        ())

(* Node types providing two or more units of their resources. *)
let counted_nodes = function
  | Rtlb.System.Dedicated nts ->
      Rtlb.System.dedicated
        (List.mapi
           (fun k (nt : Rtlb.System.node_type) ->
             Rtlb.System.node_type ~name:nt.Rtlb.System.nt_name
               ~proc:nt.Rtlb.System.nt_proc
               ~provides:
                 (List.map
                    (fun (r, c) -> (r, (1 + (k mod 3)) * c))
                    nt.Rtlb.System.nt_provides)
               ~cost:nt.Rtlb.System.nt_cost ())
           nts)
  | system -> system

let writer_matches_reference =
  qtest ~count:300 "to_string = the Printf reference writer, every family"
    arb_family_instance (fun (_, seed, shared, dedicated, app) ->
      let app = with_counted seed app in
      List.for_all
        (fun system ->
          Rtfmt.Appfile.to_string ?system app
          = Appfile_ref.to_string ?system app)
        [ None; Some shared; Some (counted_nodes dedicated) ])

(* The reader's allocation is pinned per task: declarations in columns
   sized before the read, interned processor names and demand lists
   shared by every task, and no record per task keep a frame DAG under
   8 minor words per task, its names taking most of them (the reader
   that built a Task.t per declaration took 31-33, the one that kept a
   record per declaration 80). *)
let parse_allocation () =
  let app = Workload.Gen.layered_frames ~seed:7 ~frames:20 () in
  let text =
    Rtfmt.Appfile.to_string ~system:(Workload.Gen.frame_system ()) app
  in
  let before = Gc.minor_words () in
  ignore (Rtfmt.Appfile.parse text : Rtfmt.Appfile.t);
  let per_task =
    (Gc.minor_words () -. before) /. float_of_int (Rtlb.App.n_tasks app)
  in
  if per_task > 8.0 then
    Alcotest.failf "Appfile.parse allocated %.1f minor words per task" per_task

(* A periodic file unrolls to jobs; their rendering reads back the same. *)
let periodic_roundtrips () =
  let { Rtfmt.Appfile.app; system } =
    Rtfmt.Appfile.parse
      "task fast period=5 compute=1 proc=P res=r\n\
       task slow period=10 compute=2 deadline=8 release=1 proc=P preemptive\n\
       edge fast slow 1\n\
       shared P=1 r=2\n"
  in
  check_bool "periodic file" true (roundtrips (Option.get system) app)

let suite =
  [
    ( "appfile",
      [
        Alcotest.test_case "space, tab and CR separate words" `Quick
          blanks_separate_words;
        Alcotest.test_case "periodic file round-trips" `Quick
          periodic_roundtrips;
        Alcotest.test_case "error precedence with duplicate edges" `Quick
          error_precedence;
        differential;
        total;
        families_roundtrip;
        writer_matches_reference;
        Alcotest.test_case "parse allocation per task" `Quick parse_allocation;
      ] );
  ]
