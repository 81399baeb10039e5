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

(* Space, tab and carriage return all separate words, so CRLF files and
   tab-indented files read exactly like the LF original. *)
let blanks_separate_words () =
  let lf = Lazy.force paper_text in
  same_reading ~what:"CRLF" lf (crlf lf);
  same_reading ~what:"tabs" lf (tabs lf);
  same_reading ~what:"tabs and spaces" lf (mixed_blanks lf);
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

let families =
  [|
    Workload.Gen.Layered { layers = 4; density = 0.4 };
    Workload.Gen.Series_parallel;
    Workload.Gen.Fork_join { width = 4 };
    Workload.Gen.Out_tree;
    Workload.Gen.In_tree;
    Workload.Gen.Gauss { size = 5 };
    Workload.Gen.Fft { points = 8 };
    Workload.Gen.Stencil { rows = 4; cols = 5 };
    Workload.Gen.Chain;
    Workload.Gen.Independent;
  |]

let frame_nodes =
  Rtlb.System.dedicated
    [
      Rtlb.System.node_type ~name:"full" ~proc:"P" ~provides:[ ("R", 1) ]
        ~cost:10 ();
      Rtlb.System.node_type ~name:"bare" ~proc:"P" ~cost:6 ();
    ]

(* One instance of a generator family — every [Workload.Gen] shape, or
   [layered_frames] — with its shared and its dedicated system. *)
let arb_family_instance =
  let gen =
    QCheck.Gen.(
      let* family = int_bound (Array.length families) in
      let* seed = int_bound 1_000_000 in
      let* size = int_range 2 40 in
      if family = Array.length families then
        let app =
          Workload.Gen.layered_frames ~seed ~frames:(1 + (size mod 4))
            ~tasks_per_frame:size ()
        in
        return ("layered_frames", seed, Workload.Gen.frame_system (), frame_nodes, app)
      else
        let config =
          {
            Workload.Gen.default with
            Workload.Gen.seed;
            shape = families.(family);
            n_tasks = size;
            preemptive_fraction = 0.3;
            release_spread = 0.5;
            resource_types = [ ("r1", 0.4); ("r2", 0.2) ];
          }
        in
        return
          ( Workload.Gen.shape_name families.(family),
            seed,
            Workload.Gen.shared_system config,
            Workload.Gen.dedicated_system config,
            Workload.Gen.generate config ))
  in
  QCheck.make gen ~print:(fun (name, seed, _, _, app) ->
      Printf.sprintf "%s seed=%d\n%s" name seed (Rtfmt.Appfile.to_string app))

let families_roundtrip =
  qtest ~count:300 "parse (to_string ~system app) = app, every family"
    arb_family_instance (fun (_, _, shared, dedicated, app) ->
      roundtrips shared app && roundtrips dedicated app)

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
        differential;
        total;
        families_roundtrip;
      ] );
  ]
