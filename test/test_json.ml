(* Tests for the JSON encoder/parser and the analysis/schedule encoders. *)

open Helpers

let j = Rtfmt.Json.parse
let s = Rtfmt.Json.to_string

let print_parse_roundtrip () =
  let value =
    Rtfmt.Json.(
      Obj
        [
          ("name", Str "T1");
          ("count", Int (-3));
          ("flag", Bool true);
          ("nothing", Null);
          ("items", List [ Int 1; Int 2; Str "x" ]);
          ("empty_list", List []);
          ("empty_obj", Obj []);
        ])
  in
  check_string "roundtrip" (s value) (s (j (s value)));
  check_string "compact roundtrip" (s value)
    (s (j (s ~indent:false value)))

let escaping () =
  let tricky = "quote\" backslash\\ newline\n tab\t" in
  match j (s (Rtfmt.Json.Str tricky)) with
  | Rtfmt.Json.Str back -> check_string "escapes survive" tricky back
  | _ -> Alcotest.fail "expected string"

let unicode_escapes () =
  let str text =
    match j text with
    | Rtfmt.Json.Str back -> back
    | _ -> Alcotest.fail ("expected string from " ^ text)
  in
  (* \uXXXX beyond ASCII decodes to UTF-8 (pre-fix: every such escape
     collapsed to "?"). *)
  check_string "2-byte sequence" "caf\xc3\xa9" (str {|"caf\u00e9"|});
  check_string "3-byte sequence" "\xe4\xb8\xad" (str {|"\u4e2d"|});
  check_string "surrogate pair is one astral code point" "\xf0\x9f\x98\x80"
    (str {|"\ud83d\ude00"|});
  check_string "ASCII escapes unchanged" "A" (str {|"\u0041"|});
  (* decoded non-ASCII survives a write/parse round trip: the writer
     passes UTF-8 bytes through verbatim *)
  check_string "unicode round trip" "caf\xc3\xa9 \xf0\x9f\x98\x80"
    (str (s (Rtfmt.Json.Str (str {|"caf\u00e9 \ud83d\ude00"|}))));
  let bad text =
    match j text with
    | exception Rtfmt.Json.Parse_error _ -> ()
    | _ -> Alcotest.fail ("should not parse: " ^ text)
  in
  bad {|"\ud83d"|};
  (* lone high surrogate *)
  bad {|"\ude00"|};
  (* lone low surrogate *)
  bad {|"\ud83dA"|};
  (* high surrogate not followed by a low one *)
  bad {|"\ud83dx"|};
  bad {|"\u00g1"|};
  bad {|"\u12"|}

let parse_errors () =
  let bad text =
    match j text with
    | exception Rtfmt.Json.Parse_error _ -> ()
    | _ -> Alcotest.fail ("should not parse: " ^ text)
  in
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\" 1}";
  bad "tru";
  bad "1.5";
  (* floats are rejected: everything here is integral *)
  bad "[1] trailing"

let member_access () =
  let v = j "{\"a\": 1, \"b\": [true]}" in
  (match Rtfmt.Json.member "a" v with
  | Rtfmt.Json.Int 1 -> ()
  | _ -> Alcotest.fail "member a");
  match Rtfmt.Json.member "missing" v with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "expected Not_found"

let analysis_encoding () =
  let a = Rtlb.Analysis.run Rtlb.Paper_example.shared Rtlb.Paper_example.app in
  let v = Rtfmt.Json.of_analysis a in
  (* The encoding parses back and carries the headline facts. *)
  let v = j (s v) in
  (match Rtfmt.Json.member "tasks" v with
  | Rtfmt.Json.Int 15 -> ()
  | _ -> Alcotest.fail "tasks");
  (match Rtfmt.Json.member "feasible_windows" v with
  | Rtfmt.Json.Bool true -> ()
  | _ -> Alcotest.fail "feasible");
  (match Rtfmt.Json.member "bounds" v with
  | Rtfmt.Json.List bounds ->
      check_int "three bounds" 3 (List.length bounds);
      List.iter
        (fun b ->
          match
            (Rtfmt.Json.member "resource" b, Rtfmt.Json.member "lb" b)
          with
          | Rtfmt.Json.Str r, Rtfmt.Json.Int lb ->
              check_int ("lb " ^ r) (Rtlb.Analysis.bound_for a r) lb
          | _ -> Alcotest.fail "bound shape")
        bounds
  | _ -> Alcotest.fail "bounds");
  match Rtfmt.Json.member "cost" v with
  | Rtfmt.Json.Obj _ as cost -> (
      match Rtfmt.Json.member "model" cost with
      | Rtfmt.Json.Str "shared" -> ()
      | _ -> Alcotest.fail "cost model")
  | _ -> Alcotest.fail "cost"

let schedule_encoding () =
  let app = Rtlb.Paper_example.app in
  let platform =
    Sched.Platform.shared ~procs:[ ("P1", 3); ("P2", 2) ] ~resources:[ ("r1", 2) ]
  in
  match Sched.List_scheduler.run app platform with
  | Error _ -> Alcotest.fail "setup"
  | Ok schedule -> (
      match j (s (Rtfmt.Json.of_schedule app schedule)) with
      | Rtfmt.Json.List entries ->
          check_int "all tasks present" 15 (List.length entries);
          List.iter
            (fun e ->
              match
                (Rtfmt.Json.member "start" e, Rtfmt.Json.member "finish" e)
              with
              | Rtfmt.Json.Int st, Rtfmt.Json.Int fi ->
                  check_bool "start <= finish" true (st <= fi)
              | _ -> Alcotest.fail "entry shape")
            entries
      | _ -> Alcotest.fail "expected list")

(* Random trees for the printer differential: strings mix plain
   letters with quotes, backslashes, control characters and high bytes,
   and a tree may sit under up to 40 singleton wrappers so indentation
   runs past the shared 64-space string. *)
let tree_gen =
  let open QCheck2.Gen in
  let char_gen =
    frequency
      [
        (6, char_range 'a' 'z');
        (1, oneofl [ '"'; '\\'; '\n'; '\r'; '\t'; ' ' ]);
        (1, map Char.chr (int_range 0 31));
        (1, map Char.chr (int_range 127 255));
      ]
  in
  let str = string_size ~gen:char_gen (int_range 0 10) in
  let tree =
    fix
      (fun self depth ->
        let leaf =
          oneof
            [
              return Rtfmt.Json.Null;
              map (fun b -> Rtfmt.Json.Bool b) bool;
              map (fun i -> Rtfmt.Json.Int i) int;
              map (fun x -> Rtfmt.Json.Str x) str;
            ]
        in
        if depth = 0 then leaf
        else
          frequency
            [
              (2, leaf);
              ( 1,
                map
                  (fun l -> Rtfmt.Json.List l)
                  (list_size (int_range 0 4) (self (depth - 1))) );
              ( 1,
                map
                  (fun l -> Rtfmt.Json.Obj l)
                  (list_size (int_range 0 4) (pair str (self (depth - 1)))) );
            ])
      4
  in
  let* wrappers = int_range 0 40 in
  let* key = str in
  let+ t = tree in
  let rec wrap k t =
    if k = 0 then t
    else
      wrap (k - 1)
        (if k mod 2 = 0 then Rtfmt.Json.List [ t ] else Rtfmt.Json.Obj [ (key, t) ])
  in
  wrap wrappers t

(* Byte mutations of printed trees: mostly JSON's own alphabet, and
   fragments that reach the escape, surrogate and number paths. *)
let json_fragments =
  [| "\\"; "\\u"; "\\uD83D"; "\\uDE00"; "\\u00e9"; "\""; ","; ":"; "["; "]";
     "{"; "}"; " "; "\n"; "\t"; "\r"; "-"; "0"; "7"; "99999999999999999999";
     "-4611686018427387904"; "true"; "fals"; "null"; "nul"; "x"; "\000" |]

let mutate_json rand text =
  let fragment () =
    if Random.State.int rand 4 = 0 then
      String.make 1 (Char.chr (Random.State.int rand 256))
    else json_fragments.(Random.State.int rand (Array.length json_fragments))
  in
  let edit t =
    let n = String.length t in
    let at = if n = 0 then 0 else Random.State.int rand (n + 1) in
    match Random.State.int rand 3 with
    | 0 when at < n ->
        String.sub t 0 at ^ fragment () ^ String.sub t (at + 1) (n - at - 1)
    | 1 -> String.sub t 0 at ^ fragment () ^ String.sub t at (n - at)
    | _ when n > 0 ->
        let len = Random.State.int rand (min 16 (n - at) + 1) in
        String.sub t 0 at ^ String.sub t (at + len) (n - at - len)
    | _ -> fragment ()
  in
  let rec go k t = if k = 0 then t else go (k - 1) (edit t) in
  go (1 + Random.State.int rand 3) text

let parse_outcome parse text =
  match parse text with
  | v -> Ok v
  | exception Rtfmt.Json.Parse_error m -> Error m

(* [output_analysis] into a file, read back. *)
let streamed ?stats a =
  let path = Filename.temp_file "rtlb_stream" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          Rtfmt.Json.output_analysis ?stats oc a);
      In_channel.with_open_bin path In_channel.input_all)

(* The streamed encoding allocates a constant, not per task: the
   analysis is walked straight into the writer (the tree and its
   printer took about 85 minor words per task). *)
let stream_allocation () =
  let app = Workload.Gen.layered_frames ~seed:7 ~frames:20 () in
  let a = Rtlb.Analysis.run (Workload.Gen.frame_system ()) app in
  Out_channel.with_open_bin Filename.null (fun oc ->
      let before = Gc.minor_words () in
      Rtfmt.Json.output_analysis oc a;
      let per_task =
        (Gc.minor_words () -. before) /. float_of_int (Rtlb.App.n_tasks app)
      in
      if per_task > 1.0 then
        Alcotest.failf "output_analysis allocated %.2f minor words per task"
          per_task)

let prop_tests =
  [
    qtest ~count:1000 "parse = reference parser on printed and mutated trees"
      (QCheck.make ~print:String.escaped (fun st ->
           let v = QCheck2.Gen.generate1 ~rand:st tree_gen in
           let text = s ~indent:(Random.State.bool st) v in
           if Random.State.int st 5 = 0 then text else mutate_json st text))
      (fun text ->
        parse_outcome Rtfmt.Json.parse text = parse_outcome Json_ref.parse text);
    qtest ~count:150 "streamed analysis = to_string (of_analysis a)"
      arb_family_instance (fun (_, _, shared, dedicated, app) ->
        let tracer =
          Rtlb_obs.Tracer.make ~clock:(Rtlb_obs.Clock.fake ()) ()
        in
        List.for_all
          (fun (system, deadline_ns) ->
            match Rtlb.System.validate_for system app with
            | Error _ -> true
            | Ok () ->
                let a =
                  Rtlb.Analysis.run ?deadline_ns ~tracer system app
                in
                let stats = Rtlb_obs.Stats.of_tracer tracer in
                streamed a = s (Rtfmt.Json.of_analysis a)
                && streamed ~stats a = s (Rtfmt.Json.of_analysis ~stats a))
          (* an already-expired deadline makes a partial result *)
          [ (shared, None); (dedicated, None); (shared, Some 0L);
            (dedicated, Some 0L) ]);
    qtest ~count:200 "print/parse roundtrips analysis JSON"
      (arb_instance ~max_tasks:10 ()) (fun i ->
        let a = Rtlb.Analysis.run (shared_of i) i.app in
        let v = Rtfmt.Json.of_analysis a in
        s v = s (j (s v)));
    qtest ~count:500 "printer = reference printer on random trees"
      (QCheck.make
         ~print:(fun v -> Json_ref.to_string ~indent:false v)
         (fun st -> QCheck2.Gen.generate1 ~rand:st tree_gen))
      (fun v ->
        s v = Json_ref.to_string v
        && s ~indent:false v = Json_ref.to_string ~indent:false v);
    qtest ~count:200 "output writes the bytes of to_string"
      (QCheck.make
         ~print:(fun (copies, v) ->
           Printf.sprintf "%d copies of %s" copies
             (Json_ref.to_string ~indent:false v))
         (fun st ->
           (* half the time up to 400 copies of a random tree in one list,
              so some outputs pass the 64 KB write threshold many times *)
           let copies =
             if Random.State.bool st then 1 else 1 + Random.State.int st 400
           in
           (copies, QCheck2.Gen.generate1 ~rand:st tree_gen)))
      (fun (copies, t) ->
        let v = Rtfmt.Json.List (List.init copies (fun _ -> t)) in
        List.for_all
          (fun indent ->
            let path = Filename.temp_file "rtlb_json" ".out" in
            Fun.protect
              ~finally:(fun () -> Sys.remove path)
              (fun () ->
                Out_channel.with_open_bin path (fun oc ->
                    Rtfmt.Json.output ~indent oc v);
                In_channel.with_open_bin path In_channel.input_all
                = s ~indent v))
          [ true; false ]);
  ]

let stencil_shape () =
  let cfg =
    { Workload.Gen.default with Workload.Gen.shape = Workload.Gen.Stencil { rows = 3; cols = 4 } }
  in
  let app = Workload.Gen.generate cfg in
  let g = Rtlb.App.graph app in
  check_int "tasks" 12 (Rtlb.App.n_tasks app);
  (* edges: down 2*4, right 3*3 *)
  check_int "edges" 17 (Dag.n_edges g);
  check_int_list "single source" [ 0 ] (Dag.sources g);
  check_int_list "single sink" [ 11 ] (Dag.sinks g);
  (* wavefront critical path = rows + cols - 1 cells *)
  let unit_app =
    Rtlb.App.make
      ~tasks:
        (Array.to_list (Rtlb.App.tasks app)
        |> List.map (fun (t : Rtlb.Task.t) ->
               Rtlb.Task.make ~id:t.Rtlb.Task.id ~compute:1 ~deadline:1000
                 ~proc:"P" ()))
      ~edges:
        (Dag.fold_edges g ~init:[] ~f:(fun acc ~src ~dst _ ->
             (src, dst, 0) :: acc))
  in
  check_int "wavefront depth" 6 (Rtlb.App.critical_time unit_app)

let preemptive_gantt () =
  let app =
    Rtlb.App.make
      ~tasks:
        [
          Rtlb.Task.make ~id:0 ~compute:4 ~deadline:10 ~proc:"P" ~preemptive:true ();
          Rtlb.Task.make ~id:1 ~compute:3 ~deadline:5 ~proc:"P" ~preemptive:true ();
        ]
      ~edges:[]
  in
  match Sched.Preemptive.run app ~procs:[ ("P", 1) ] with
  | Error _ -> Alcotest.fail "expected feasible"
  | Ok schedule ->
      let out = Sched.Gantt.render_preemptive app ~procs:[ ("P", 1) ] schedule in
      check_bool "row label" true (string_contains ~needle:"P#0" out);
      check_bool "task drawn" true (string_contains ~needle:"T2" out)

let suite =
  [
    ( "json-and-misc",
      [
        Alcotest.test_case "print/parse roundtrip" `Quick print_parse_roundtrip;
        Alcotest.test_case "escaping" `Quick escaping;
        Alcotest.test_case "unicode escapes" `Quick unicode_escapes;
        Alcotest.test_case "parse errors" `Quick parse_errors;
        Alcotest.test_case "member access" `Quick member_access;
        Alcotest.test_case "analysis encoding" `Quick analysis_encoding;
        Alcotest.test_case "schedule encoding" `Quick schedule_encoding;
        Alcotest.test_case "stencil workload" `Quick stencil_shape;
        Alcotest.test_case "preemptive gantt" `Quick preemptive_gantt;
        Alcotest.test_case "streamed encoding allocation" `Quick
          stream_allocation;
      ]
      @ prop_tests );
  ]
