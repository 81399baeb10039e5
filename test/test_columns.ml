(* App holds its tasks as columns.  These properties pin that the
   columns are a faithful representation: records go in and come out
   equal (App.of_arrays, App.task, App.tasks), the columns survive
   App.of_columns and the .app text under both system models, and the
   what-if edit that writes columns (Incremental.apply) agrees with the
   record fold it replaced, raised messages included. *)

open Helpers

let edges_of app =
  Dag.fold_edges (Rtlb.App.graph app) ~init:[] ~f:(fun acc ~src ~dst m ->
      (src, dst, m) :: acc)
  |> List.rev

let edge_arrays app =
  let edges = Array.of_list (edges_of app) in
  ( Array.map (fun (s, _, _) -> s) edges,
    Array.map (fun (_, d, _) -> d) edges,
    Array.map (fun (_, _, m) -> m) edges )

let same_tasks label expected app =
  let n = Array.length expected in
  Rtlb.App.n_tasks app = n
  && (let ok = ref true in
      for i = 0 to n - 1 do
        if not (Rtlb.Task.equal (Rtlb.App.task app i) expected.(i)) then
          ok := false
      done;
      !ok)
  && Array.for_all2 Rtlb.Task.equal (Rtlb.App.tasks app) expected
  || QCheck.Test.fail_reportf "%s: the records differ" label

(* Records in, records out: through App.of_arrays with the records in
   their order and reversed, through App.of_columns of the columns, and
   through the .app text with either system. *)
let roundtrips name app ~shared ~dedicated =
  let tasks = Rtlb.App.tasks app in
  let src, dst, msg = edge_arrays app in
  let reversed =
    Array.init (Array.length tasks) (fun k ->
        tasks.(Array.length tasks - 1 - k))
  in
  same_tasks (name ^ ", of_arrays") tasks
    (Rtlb.App.of_arrays ~tasks ~src ~dst ~msg)
  && same_tasks (name ^ ", of_arrays reversed") tasks
       (Rtlb.App.of_arrays ~tasks:reversed ~src ~dst ~msg)
  && same_tasks (name ^ ", of_columns") tasks
       (Rtlb.App.of_columns (Rtlb.App.columns app) ~src ~dst ~msg)
  && List.for_all
       (fun system ->
         let { Rtfmt.Appfile.app = read; _ } =
           Rtfmt.Appfile.parse (Rtfmt.Appfile.to_string ~system app)
         in
         (Rtlb.App.columns read = Rtlb.App.columns app
         || QCheck.Test.fail_reportf "%s: the text changes the columns" name)
         && same_tasks (name ^ ", text") tasks read
         && edges_of read = edges_of app)
       [ shared; dedicated ]

let family_roundtrips =
  qtest ~count:150 "records <-> columns, families and layered_frames"
    arb_family_instance (fun (name, _, shared, dedicated, app) ->
      roundtrips name app ~shared ~dedicated)

let periodic_roundtrips () =
  let pt = Rtlb.Periodic.ptask in
  let app =
    Rtlb.Periodic.unroll
      ~tasks:
        [
          pt ~name:"fast" ~period:5 ~compute:1 ~proc:"P" ~resources:[ "r"; "r" ]
            ();
          pt ~name:"slow" ~period:10 ~offset:1 ~compute:2 ~deadline:8 ~proc:"P"
            ~preemptive:true ();
        ]
      ~edges:[ ("fast", "slow", 1) ]
      ()
  in
  check_bool "periodic unroll" true
    (roundtrips "periodic" app
       ~shared:(Rtlb.System.shared ~costs:[ ("P", 2); ("r", 1) ])
       ~dedicated:
         (Rtlb.System.dedicated
            [
              Rtlb.System.node_type ~name:"n" ~proc:"P" ~provides:[ ("r", 2) ]
                ~cost:3 ();
            ]))

let rejects_bad_columns () =
  let app = Rtlb.Paper_example.app in
  let c = Rtlb.App.columns app in
  let src, dst, msg = edge_arrays app in
  let raises label message columns =
    Alcotest.check_raises label (Invalid_argument message) (fun () ->
        ignore (Rtlb.App.of_columns columns ~src ~dst ~msg : Rtlb.App.t))
  in
  let set a i v =
    let a = Array.copy a in
    a.(i) <- v;
    a
  in
  raises "compute" "Task.make: negative computation time"
    { c with Rtlb.App.compute = set c.Rtlb.App.compute 3 (-1) };
  raises "window" "Task.make: task 4 cannot meet deadline (0 + 9 > 8)"
    {
      c with
      Rtlb.App.release = set c.Rtlb.App.release 4 0;
      compute = set c.Rtlb.App.compute 4 9;
      deadline = set c.Rtlb.App.deadline 4 8;
    };
  raises "unsorted demands"
    "Task.make: demands not grouped (sorted names, positive units)"
    { c with Rtlb.App.demands = set c.Rtlb.App.demands 0 [ ("b", 1); ("a", 1) ] };
  raises "lengths" "App.of_columns: columns of different lengths"
    { c with Rtlb.App.names = Array.sub c.Rtlb.App.names 0 3 }

(* ---------------- Incremental.apply against the record fold ---------- *)

let task_of = function
  | Rtlb.Incremental.Set_release { task; _ }
  | Rtlb.Incremental.Set_deadline { task; _ }
  | Rtlb.Incremental.Set_compute { task; _ } ->
      task

(* [Incremental.apply] as it was when the application held records:
   verbatim but for module paths and [task_of] above. *)
let record_apply app edits =
  let open Rtlb in
  let open Incremental in
  let n = App.n_tasks app in
  List.iter
    (fun e ->
      let task = task_of e in
      if task < 0 || task >= n then
        invalid_arg
          (Printf.sprintf "Incremental.apply: task %d outside [0, %d)" task n))
    edits;
  let edited =
    App.map_tasks app ~f:(fun task ->
        List.fold_left
          (fun acc -> function
            | Set_release { task = i; release } when i = acc.Task.id ->
                Task.with_release acc release
            | Set_deadline { task = i; deadline } when i = acc.Task.id ->
                Task.with_deadline acc deadline
            | Set_compute { task = i; compute } when i = acc.Task.id ->
                Task.with_compute acc compute
            | _ -> acc)
          task edits)
  in
  match App.check_range edited with
  | Ok () -> edited
  | Error e -> invalid_arg ("Incremental.apply: " ^ e)

(* Edit lists that repeat tasks, leave the range of ids, and write
   negative values, values that break the window and values too large
   for [App.check_range]. *)
let gen_edits n =
  let open QCheck.Gen in
  let value =
    oneof
      [
        int_range (-3) 60;
        oneofl [ 0; 1; -1; max_int / 3; max_int ];
      ]
  in
  let task = frequency [ (8, int_bound (max 0 (n - 1))); (1, int_range (-2) (n + 2)) ] in
  list_size (int_range 0 6)
    (let* task = task and* v = value and* k = int_bound 2 in
     return
       (match k with
       | 0 -> Rtlb.Incremental.Set_release { task; release = v }
       | 1 -> Rtlb.Incremental.Set_deadline { task; deadline = v }
       | _ -> Rtlb.Incremental.Set_compute { task; compute = v }))

let outcome f =
  match f () with
  | app -> Ok (Rtlb.App.columns app)
  | exception Invalid_argument m -> Error m

let apply_matches_record_fold =
  let arb =
    QCheck.make
      QCheck.Gen.(
        let* name, seed, shared, dedicated, app = QCheck.gen arb_family_instance in
        let* edits = gen_edits (Rtlb.App.n_tasks app) in
        return ((name, seed, shared, dedicated, app), edits))
      ~print:(fun ((name, seed, _, _, _), edits) ->
        Printf.sprintf "%s seed=%d, %d edits: %s" name seed (List.length edits)
          (String.concat "; "
             (List.map
                (function
                  | Rtlb.Incremental.Set_release { task; release } ->
                      Printf.sprintf "release %d := %d" task release
                  | Rtlb.Incremental.Set_deadline { task; deadline } ->
                      Printf.sprintf "deadline %d := %d" task deadline
                  | Rtlb.Incremental.Set_compute { task; compute } ->
                      Printf.sprintf "compute %d := %d" task compute)
                edits)))
  in
  qtest ~count:500 "apply writes columns = the record fold, or its message"
    arb (fun ((_, _, _, _, app), edits) ->
      let got = outcome (fun () -> Rtlb.Incremental.apply app edits)
      and want = outcome (fun () -> record_apply app edits) in
      got = want
      || QCheck.Test.fail_reportf "column apply: %s\nrecord fold: %s"
           (match got with Ok _ -> "ok" | Error m -> m)
           (match want with Ok _ -> "ok" | Error m -> m))

(* The order of the raised message: task by task in id order, each
   task's edits in list order. *)
let apply_error_order () =
  let app = Rtlb.Paper_example.app in
  let raises label message edits =
    Alcotest.check_raises label (Invalid_argument message) (fun () ->
        ignore (Rtlb.Incremental.apply app edits : Rtlb.App.t))
  in
  raises "lower id first" "Task.with_compute: negative computation time"
    [
      Rtlb.Incremental.Set_release { task = 5; release = -1 };
      Rtlb.Incremental.Set_compute { task = 2; compute = -1 };
    ];
  raises "list order within a task" "Task.with_release: negative release time"
    [
      Rtlb.Incremental.Set_release { task = 2; release = -1 };
      Rtlb.Incremental.Set_compute { task = 2; compute = -1 };
    ];
  raises "a repeated task sees its earlier edit"
    "Task.with_deadline: deadline too tight"
    [
      Rtlb.Incremental.Set_release { task = 2; release = 4 };
      Rtlb.Incremental.Set_deadline { task = 2; deadline = 6 };
    ]

let suite =
  [
    ( "columns",
      [
        family_roundtrips;
        Alcotest.test_case "periodic unroll round-trips" `Quick
          periodic_roundtrips;
        Alcotest.test_case "of_columns checks as Task.make does" `Quick
          rejects_bad_columns;
        apply_matches_record_fold;
        Alcotest.test_case "apply raises in task order, then list order"
          `Quick apply_error_order;
      ] );
  ]
