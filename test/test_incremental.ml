(* The incremental engine's contract: a query against a cached handle
   equals a cold run on the perturbed application in every value —
   windows, bounds (values, witnesses, partitions), cost and
   completeness — against both the record oracle (test/oracle.ml) and
   Analysis.run.  Merge sets and traces are left empty, as in
   Analysis.run; Est_lct.compute alone fills them (test_est_lct pins
   them).  The properties below drive random instances on both system
   models through random edit sequences, the sweep through random
   factor lists, and the budgeted path through an expired deadline, all
   against the cold references; units pin the dirty-cone and cache
   counters, and that an edit — answered or raised — leaves its handle
   at its base. *)

open Helpers

let matches_cold system app (q : Rtlb.Analysis.t) =
  Oracle.values_identical q (Oracle.run system app)
  && Oracle.values_identical q (Rtlb.Analysis.run system app)

(* One random well-formed edit against the current application state:
   choosing each edit valid for the app accumulated so far keeps the
   whole left-to-right [apply] fold well-formed. *)
let gen_edit st app =
  let n = Rtlb.App.n_tasks app in
  let i = Random.State.int st n in
  let t = Rtlb.App.task app i in
  let release = t.Rtlb.Task.release
  and deadline = t.Rtlb.Task.deadline
  and compute = t.Rtlb.Task.compute in
  match Random.State.int st 3 with
  | 0 ->
      Rtlb.Incremental.Set_deadline
        { task = i; deadline = release + compute + Random.State.int st 21 }
  | 1 ->
      Rtlb.Incremental.Set_release
        { task = i; release = Random.State.int st (deadline - compute + 1) }
  | _ ->
      Rtlb.Incremental.Set_compute
        { task = i; compute = Random.State.int st (deadline - release + 1) }

(* Random instances, random cumulative edit sequences: every query
   equal to cold runs on the same perturbed application.  Dedicated
   systems exercise the node-type host masks of the cone sweep. *)
let edits_equal_cold ?(label = "") system_of =
  qtest ~count:100
    ("Incremental.query = cold Analysis.run under random edits" ^ label)
    QCheck.(pair (arb_instance ~max_tasks:10 ()) small_int)
    (fun (i, salt) ->
      let system = system_of i in
      let st = Random.State.make [| i.config.Workload.Gen.seed; salt |] in
      let handle = Rtlb.Incremental.create system i.app in
      assert (matches_cold system i.app (Rtlb.Incremental.base handle));
      let rec go k edits =
        k = 0
        ||
        let edits = edits @ [ gen_edit st (Rtlb.Incremental.apply i.app edits) ] in
        let app' = Rtlb.Incremental.apply i.app edits in
        matches_cold system app' (Rtlb.Incremental.query handle app')
        && matches_cold system app' (Rtlb.Incremental.edit handle edits)
        && go (k - 1) edits
      in
      go (1 + (salt mod 4)) [])

(* The incremental sweep equals the per-factor cold sweep sample by
   sample (floats, bounds, costs, partial flags). *)
let sweep_equals_cold =
  let all_factors =
    [ 0.5; 0.77; 0.8; 0.9; 0.95; 1.0; 1.01; 1.1; 1.25; 1.5; 2.0; 3.3 ]
  in
  qtest ~count:60 "deadline_sweep = deadline_sweep_cold"
    QCheck.(pair (arb_instance ~max_tasks:10 ()) small_int)
    (fun (i, salt) ->
      let st = Random.State.make [| salt |] in
      let factors =
        List.filter (fun _ -> Random.State.bool st) all_factors
      in
      let factors = if factors = [] then [ 1.0 ] else factors in
      let system = shared_of i in
      Rtlb.Sensitivity.deadline_sweep system i.app ~factors
      = Rtlb.Sensitivity.deadline_sweep_cold system i.app ~factors)

(* A handle whose base ran under an expired budget has nothing cached;
   partial results must never poison later queries: an unbudgeted query
   on the same handle is still bit-identical to a cold run. *)
let partial_base_never_poisons () =
  let config =
    {
      Workload.Gen.default with
      Workload.Gen.shape = Workload.Gen.Layered { layers = 4; density = 0.5 };
      n_tasks = 18;
      seed = 7;
      resource_types = [ ("r1", 0.5) ];
    }
  in
  let app = Workload.Gen.generate config in
  let system = Workload.Gen.shared_system config in
  let expired = Int64.sub (Rtlb_par.Pool.now_ns ()) 1L in
  let handle = Rtlb.Incremental.create ~deadline_ns:expired system app in
  check_bool "expired base is partial" true
    (Rtlb.Analysis.is_partial (Rtlb.Incremental.base handle));
  check_int "expired base cached nothing" 0
    (Rtlb.Incremental.cached_blocks handle);
  let edits =
    [ Rtlb.Incremental.Set_deadline
        { task = 0; deadline = (Rtlb.App.task app 0).Rtlb.Task.deadline + 5 } ]
  in
  let app' = Rtlb.Incremental.apply app edits in
  let q1 = Rtlb.Incremental.query ~deadline_ns:expired handle app' in
  check_bool "budgeted query is partial" true (Rtlb.Analysis.is_partial q1);
  let q2 = Rtlb.Incremental.query handle app' in
  check_bool "unbudgeted query = cold run" true (matches_cold system app' q2)

(* A chain 0 -> 1 -> 2 -> 3.  Editing the source's deadline dirties only
   the LCT of the source itself (its ancestor cone is a singleton), so
   the counter pins that zero EST recomputations happened; editing the
   sink's deadline dirties the whole ancestor chain. *)
let chain_app () =
  let task id deadline =
    Rtlb.Task.make ~id ~compute:2 ~deadline ~proc:"P1" ()
  in
  Rtlb.App.make
    ~tasks:[ task 0 10; task 1 20; task 2 30; task 3 40 ]
    ~edges:[ (0, 1, 1); (1, 2, 1); (2, 3, 1) ]

let cone_counter_pins_est_reuse () =
  let app = chain_app () in
  let system =
    Rtlb.System.shared_uniform ~resources:(Rtlb.App.resource_set app)
  in
  let handle = Rtlb.Incremental.create system app in
  let traced_cone edits =
    let tracer = Rtlb_obs.Tracer.make () in
    let analysis = Rtlb.Incremental.edit ~tracer handle edits in
    check_bool "edit = cold run" true
      (matches_cold system (Rtlb.Incremental.apply app edits) analysis);
    Rtlb_obs.Tracer.counter tracer Rtlb_obs.Tracer.Cone_tasks
  in
  check_int "source deadline edit: 1 LCT recompute, 0 EST" 1
    (traced_cone [ Rtlb.Incremental.Set_deadline { task = 0; deadline = 12 } ]);
  check_int "sink deadline edit: whole ancestor chain" 4
    (traced_cone [ Rtlb.Incremental.Set_deadline { task = 3; deadline = 44 } ]);
  check_int "sink release edit: 1 EST recompute, 0 LCT" 1
    (traced_cone [ Rtlb.Incremental.Set_release { task = 3; release = 1 } ]);
  check_int "source compute edit: descendant EST cone plus itself" 5
    (traced_cone [ Rtlb.Incremental.Set_compute { task = 0; compute = 3 } ])

(* Re-issuing the same query must be served entirely from the cache: no
   Theta evaluations, only hits. *)
let repeat_query_hits_cache () =
  let config =
    { Workload.Gen.default with Workload.Gen.n_tasks = 12; seed = 11 }
  in
  let app = Workload.Gen.generate config in
  let system = Workload.Gen.shared_system config in
  let handle = Rtlb.Incremental.create system app in
  check_bool "base populated the cache" true
    (Rtlb.Incremental.cached_blocks handle > 0);
  let app' =
    Rtlb.Incremental.apply app
      [ Rtlb.Incremental.Set_deadline
          { task = 0; deadline = (Rtlb.App.task app 0).Rtlb.Task.deadline + 3 }
      ]
  in
  ignore (Rtlb.Incremental.query handle app');
  let tracer = Rtlb_obs.Tracer.make () in
  let q = Rtlb.Incremental.query ~tracer handle app' in
  check_int "repeat query scans nothing" 0
    (Rtlb_obs.Tracer.counter tracer Rtlb_obs.Tracer.Theta_evals);
  check_bool "repeat query reuses blocks" true
    (Rtlb_obs.Tracer.counter tracer Rtlb_obs.Tracer.Cache_hits > 0);
  check_bool "repeat query still = cold run" true (matches_cold system app' q)

(* A handle answering many distinct what-ifs (a serve daemon's) keeps its
   base results and at most [max 64 b] more: each distinct edit rescans
   the blocks it touches, and keeping them all would grow the handle
   without end.  Answers stay equal to cold runs across the points where
   the query results are dropped. *)
let query_cache_bounded () =
  let config =
    { Workload.Gen.default with Workload.Gen.n_tasks = 30; seed = 11 }
  in
  let app = Workload.Gen.generate config in
  let system = Workload.Gen.shared_system config in
  let handle = Rtlb.Incremental.create system app in
  let base = Rtlb.Incremental.cached_blocks handle in
  let limit = base + max 64 base in
  let st = Random.State.make [| 11 |] in
  let most = ref 0 in
  for k = 1 to 400 do
    let edits = [ gen_edit st app ] in
    let q = Rtlb.Incremental.edit handle edits in
    most := max !most (Rtlb.Incremental.cached_blocks handle);
    if k mod 40 = 0 then
      check_bool
        (Printf.sprintf "query %d = cold run" k)
        true
        (matches_cold system (Rtlb.Incremental.apply app edits) q)
  done;
  check_bool
    (Printf.sprintf "at most %d results held (saw %d)" limit !most)
    true (!most <= limit);
  check_bool
    (Printf.sprintf "query results were kept (base %d, saw %d)" base !most)
    true (!most > base + 32)

let apply_validates () =
  let app = chain_app () in
  Alcotest.check_raises "task id out of range"
    (Invalid_argument "Incremental.apply: task 9 outside [0, 4)") (fun () ->
      ignore
        (Rtlb.Incremental.apply app
           [ Rtlb.Incremental.Set_deadline { task = 9; deadline = 5 } ]));
  check_bool "infeasible edit raises" true
    (match
       Rtlb.Incremental.apply app
         [ Rtlb.Incremental.Set_deadline { task = 0; deadline = 1 } ]
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* Queries that change anything beyond release/compute/deadline fall
   back to a cold run and still answer correctly. *)
let reshape_falls_back () =
  let app = chain_app () in
  let system =
    Rtlb.System.shared_uniform ~resources:(Rtlb.App.resource_set app)
  in
  let handle = Rtlb.Incremental.create system app in
  let reshaped =
    Rtlb.App.map_tasks app ~f:(fun t ->
        if t.Rtlb.Task.id = 1 then Rtlb.Task.with_preemptive t true else t)
  in
  check_bool "preemptability change answered via cold path" true
    (matches_cold system reshaped (Rtlb.Incremental.query handle reshaped))

(* The instance digest keys checkpoints and the serve cache, so its
   bytes must not drift: these hex digests were taken from the
   Printf-built text it replaced. *)
let fingerprint_pinned () =
  let digest system app = Rtlb.Incremental.instance_fingerprint system app in
  let { Rtfmt.Appfile.app; system } =
    Rtfmt.Appfile.parse_file (repo_path "examples/paper_example.app")
  in
  check_string "paper_example.app" "ac3bea97c2394b81d224cd2f009f908b"
    (digest (Option.get system) app);
  check_string "layered_frames seed 7, 3 frames"
    "84c6602d5fcbcc2b12e6cdd478b6b383"
    (digest (Workload.Gen.frame_system ())
       (Workload.Gen.layered_frames ~seed:7 ~frames:3 ()));
  check_string "preemptive paper example, dedicated nodes"
    "0b3d31d74153bdf4a050eaaac6950b52"
    (digest Rtlb.Paper_example.dedicated
       (Rtlb.App.map_tasks Rtlb.Paper_example.app ~f:(fun t ->
            Rtlb.Task.with_preemptive t true)))

(* A query app with its own but equal graph (here: re-read from text)
   stays on the incremental path; one edge weight changed sends it to a
   cold run.  Only the incremental path counts cone tasks. *)
let equal_graphs_stay_incremental () =
  let app = chain_app () in
  let system =
    Rtlb.System.shared_uniform ~resources:(Rtlb.App.resource_set app)
  in
  let handle = Rtlb.Incremental.create system app in
  let cone app' =
    let tracer = Rtlb_obs.Tracer.make () in
    let q = Rtlb.Incremental.query ~tracer handle app' in
    check_bool "query = cold run" true (matches_cold system app' q);
    Rtlb_obs.Tracer.counter tracer Rtlb_obs.Tracer.Cone_tasks
  in
  let reread =
    (Rtfmt.Appfile.parse (Rtfmt.Appfile.to_string app)).Rtfmt.Appfile.app
  in
  let deadline = (Rtlb.App.task reread 3).Rtlb.Task.deadline + 1 in
  let reread =
    Rtlb.Incremental.apply reread
      [ Rtlb.Incremental.Set_deadline { task = 3; deadline } ]
  in
  check_bool "distinct equal graph: incremental" true (cone reread > 0);
  let reweighted =
    Rtlb.App.make
      ~tasks:(Array.to_list (Rtlb.App.tasks reread))
      ~edges:
        (Dag.fold_edges (Rtlb.App.graph app) ~init:[]
           ~f:(fun acc ~src ~dst w -> (src, dst, w + 1) :: acc))
  in
  check_int "changed edge weight: cold run" 0 (cone reweighted)

(* An edit writes the handle's packed instance and restores it: after
   50 random what-ifs the base analysis is what it was, and later edits
   still equal cold runs. *)
let base_survives_edits () =
  let config =
    { Workload.Gen.default with Workload.Gen.n_tasks = 30; seed = 13 }
  in
  let app = Workload.Gen.generate config in
  let system = Workload.Gen.shared_system config in
  let handle = Rtlb.Incremental.create system app in
  let before = Rtlb.Incremental.base handle in
  let est = Array.copy before.Rtlb.Analysis.windows.Rtlb.Est_lct.est
  and lct = Array.copy before.Rtlb.Analysis.windows.Rtlb.Est_lct.lct in
  let st = Random.State.make [| 13 |] in
  for _ = 1 to 50 do
    ignore (Rtlb.Incremental.edit handle [ gen_edit st app ] : Rtlb.Analysis.t)
  done;
  let after = Rtlb.Incremental.base handle in
  check_bool "base windows unchanged" true
    (after.Rtlb.Analysis.windows.Rtlb.Est_lct.est = est
    && after.Rtlb.Analysis.windows.Rtlb.Est_lct.lct = lct);
  check_bool "base = cold run" true (matches_cold system app after);
  check_bool "the unedited app = cold run" true
    (matches_cold system app (Rtlb.Incremental.query handle app));
  for k = 1 to 5 do
    let edits = [ gen_edit st app ] in
    check_bool
      (Printf.sprintf "edit %d after 50 = cold run" k)
      true
      (matches_cold system (Rtlb.Incremental.apply app edits)
         (Rtlb.Incremental.edit handle edits))
  done

(* A scan item that raises aborts the edit; the handle is restored on
   the way out, so the next edit — the same one, then another — equals
   a cold run, with and without a pool. *)
let raised_edit_restores () =
  let config =
    { Workload.Gen.default with Workload.Gen.n_tasks = 30; seed = 11 }
  in
  let app = Workload.Gen.generate config in
  let system = Workload.Gen.shared_system config in
  (* a smaller compute changes the task's block key, so its block is
     scanned live *)
  let task =
    List.find
      (fun t -> t.Rtlb.Task.compute > 1)
      (Array.to_list (Rtlb.App.tasks app))
  in
  let shrink =
    [
      Rtlb.Incremental.Set_compute
        { task = task.Rtlb.Task.id; compute = task.Rtlb.Task.compute - 1 };
    ]
  in
  let relax =
    [
      Rtlb.Incremental.Set_deadline
        { task = task.Rtlb.Task.id; deadline = task.Rtlb.Task.deadline + 7 };
    ]
  in
  let run ?pool label =
    let handle = Rtlb.Incremental.create ?pool system app in
    Rtlb_par.Pool.For_testing.inject := Some (fun _ -> failwith "injected");
    let raised =
      Fun.protect ~finally:Rtlb_par.Pool.For_testing.reset (fun () ->
          match Rtlb.Incremental.edit ?pool handle shrink with
          | _ -> false
          | exception _ -> true)
    in
    check_bool (label ^ ": the scan raised") true raised;
    List.iter
      (fun edits ->
        check_bool (label ^ ": next edit = cold run") true
          (matches_cold system (Rtlb.Incremental.apply app edits)
             (Rtlb.Incremental.edit ?pool handle edits)))
      [ shrink; relax; shrink ]
  in
  run "no pool";
  Rtlb_par.Pool.with_pool ~jobs:2 (fun pool -> run ~pool "pool of 2")

let suite =
  [
    ( "incremental",
      [
        edits_equal_cold shared_of;
        edits_equal_cold ~label:" (dedicated)" dedicated_of;
        sweep_equals_cold;
        Alcotest.test_case "partial base never poisons the cache" `Quick
          partial_base_never_poisons;
        Alcotest.test_case "cone counter pins EST/LCT reuse" `Quick
          cone_counter_pins_est_reuse;
        Alcotest.test_case "repeated query served from cache" `Quick
          repeat_query_hits_cache;
        Alcotest.test_case "query results held stay bounded" `Quick
          query_cache_bounded;
        Alcotest.test_case "apply validates edits" `Quick apply_validates;
        Alcotest.test_case "reshaped query falls back to cold run" `Quick
          reshape_falls_back;
        Alcotest.test_case "instance fingerprint pinned" `Quick
          fingerprint_pinned;
        Alcotest.test_case "equal graphs stay incremental" `Quick
          equal_graphs_stay_incremental;
        Alcotest.test_case "base unchanged after 50 edits" `Quick
          base_survives_edits;
        Alcotest.test_case "an edit that raises leaves the handle at its base"
          `Quick raised_edit_restores;
      ] );
  ]
