(* Analysis.run runs the packed (structure-of-arrays) engine, whose
   contract is value-level bit-identity with the record oracle
   (test/oracle.ml): windows (est/lct values), bounds (values,
   witnesses, partitions), cost and completeness must all match exactly
   — merge sets and traces are the one documented divergence (the
   packed engine leaves them empty).  The properties below assert that
   identity over every generator family on both system models, with and
   without a pool and with and without dominance pruning, and
   round-trip the packed representation back to the application.  Units
   cover the paper example (also under a catalogue wider than one
   host-mask word), the examples/ file, the frame-structured scaling
   workload and the domain-pool path. *)

open Helpers

let roundtrips system app =
  let packed = Rtlb.Soa.pack system app in
  Rtfmt.Appfile.to_string (Rtlb.Soa.unpack packed) = Rtfmt.Appfile.to_string app

(* --- pack -> unpack round-trip ------------------------------------- *)

let roundtrip_random =
  qtest "Soa.unpack (Soa.pack app) round-trips random instances"
    (arb_instance ())
    (fun i -> roundtrips (shared_of i) i.app && roundtrips (dedicated_of i) i.app)

let roundtrip_examples () =
  (* dune runtest runs in test/; dune exec runs in the workspace root. *)
  let path =
    List.find Sys.file_exists
      [ "../examples/paper_example.app"; "examples/paper_example.app" ]
  in
  let { Rtfmt.Appfile.app; system } = Rtfmt.Appfile.parse_file path in
  let system = Option.get system in
  check_bool "examples/paper_example.app round-trips" true (roundtrips system app);
  check_bool "built-in paper example round-trips (shared)" true
    (roundtrips Rtlb.Paper_example.shared Rtlb.Paper_example.app);
  check_bool "built-in paper example round-trips (dedicated)" true
    (roundtrips Rtlb.Paper_example.dedicated Rtlb.Paper_example.app)

(* --- engine identity ----------------------------------------------- *)

let analyze_identical =
  qtest "Analysis.run = record oracle on random instances" (arb_instance ())
    (fun i ->
      Oracle.values_identical
        (Rtlb.Analysis.run (shared_of i) i.app)
        (Oracle.run (shared_of i) i.app)
      && Oracle.values_identical
           (Rtlb.Analysis.run (dedicated_of i) i.app)
           (Oracle.run (dedicated_of i) i.app))

(* Every Workload.Gen family — the random shapes, the three fixed
   kernels and the frame workload — on both system models, sequential
   and pooled, pruned and exhaustive: eight packed runs per instance,
   each against the one oracle run of its system. *)
type family_instance = {
  label : string;
  f_app : Rtlb.App.t;
  f_shared : Rtlb.System.t;
  f_dedicated : Rtlb.System.t;
}

let family_gen =
  let open QCheck2.Gen in
  let shapes =
    Helpers.shapes
    @ [
        Workload.Gen.Gauss { size = 4 };
        Workload.Gen.Fft { points = 8 };
        Workload.Gen.Stencil { rows = 3; cols = 4 };
      ]
  in
  let* k = int_bound (List.length shapes) in
  let* config = config_gen ~max_tasks:12 in
  if k < List.length shapes then
    let config = { config with Workload.Gen.shape = List.nth shapes k } in
    return
      {
        label = Workload.Gen.shape_name config.Workload.Gen.shape;
        f_app = Workload.Gen.generate config;
        f_shared = Workload.Gen.shared_system config;
        f_dedicated = Workload.Gen.dedicated_system config;
      }
  else
    let* frames = int_range 1 3 in
    let* tasks_per_frame = int_range 4 12 in
    let* resource_every = int_range 0 3 in
    let config =
      {
        config with
        Workload.Gen.proc_types = [ ("P", 1.0) ];
        resource_types = [ ("R", 0.5) ];
      }
    in
    return
      {
        label = "layered_frames";
        f_app =
          Workload.Gen.layered_frames ~seed:config.Workload.Gen.seed ~frames
            ~tasks_per_frame ~layers:3 ~resource_every ();
        f_shared = Workload.Gen.frame_system ();
        f_dedicated = Workload.Gen.dedicated_system config;
      }

let arb_family =
  QCheck.make
    ~print:(fun f -> f.label ^ "\n" ^ Rtfmt.Appfile.to_string f.f_app)
    (fun st -> QCheck2.Gen.generate1 ~rand:st family_gen)

let families_identical =
  qtest ~count:100
    "families x systems x pool x pruning = record oracle" arb_family
    (fun f ->
      Rtlb_par.Pool.with_pool ~jobs:Test_par.test_jobs (fun pool ->
          List.for_all
            (fun system ->
              let reference = Oracle.run system f.f_app in
              List.for_all
                (fun (pool, prune) ->
                  Oracle.values_identical
                    (Rtlb.Analysis.run ?pool ~prune system f.f_app)
                    reference)
                [ (None, true); (None, false); (Some pool, true);
                  (Some pool, false) ])
            [ f.f_shared; f.f_dedicated ]))

(* --- every scan path ------------------------------------------------ *)

(* The packed scan picks its path per block and per resource from the
   observed ranges: a block whose span [hi - lo] is below [8 nb + 64]
   keeps a dense slot map (marked points, theta_max and kernel events
   bucketed through it), a wider one sorts its points and binary-searches
   its slots; a resource whose EST and LCT ranges are both below
   [4 nm + 1024] is ordered by two counting passes, a wider one by a
   comparison sort.  Generated instances are small and narrow, so each
   family instance also runs with every time and message scaled by 10^6
   (wide spans and ranges), and with every deadline cut to release +
   compute, which the declared windows still hold but the propagated
   ones do not: E + C > L, and L < E across a message.  Those squeezed
   windows put kernel thresholds before the left endpoint and past the
   block's last point, and theta_max events before its first point. *)
let transform ~k ~tight app =
  let task (t : Rtlb.Task.t) =
    let c = k * t.Rtlb.Task.compute and r = k * t.Rtlb.Task.release in
    Rtlb.Task.make ~id:t.Rtlb.Task.id ~name:t.Rtlb.Task.name ~compute:c
      ~release:r
      ~deadline:(if tight then r + c else k * t.Rtlb.Task.deadline)
      ~proc:t.Rtlb.Task.proc
      ~resources:
        (List.concat_map
           (fun (r, u) -> List.init u (fun _ -> r))
           t.Rtlb.Task.demands)
      ~preemptive:t.Rtlb.Task.preemptive ()
  in
  Rtlb.App.make
    ~tasks:(List.map task (Array.to_list (Rtlb.App.tasks app)))
    ~edges:
      (Dag.fold_edges (Rtlb.App.graph app) ~init:[]
         ~f:(fun acc ~src ~dst m -> (src, dst, k * m) :: acc))

(* Which paths a result's blocks and resources take, by the scan's own
   range rules, and which squeezed windows it holds. *)
type coverage = {
  mutable dense : int;
  mutable wide : int;
  mutable counting : int;
  mutable comparison : int;
  mutable squeezed : int;  (* E + C > L *)
  mutable inverted : int;  (* L < E *)
}

let tally cov (a : Rtlb.Analysis.t) =
  let est = a.Rtlb.Analysis.windows.Rtlb.Est_lct.est
  and lct = a.Rtlb.Analysis.windows.Rtlb.Est_lct.lct in
  Array.iteri
    (fun i e ->
      let c = (Rtlb.App.task a.Rtlb.Analysis.app i).Rtlb.Task.compute in
      if e + c > lct.(i) then cov.squeezed <- cov.squeezed + 1;
      if lct.(i) < e then cov.inverted <- cov.inverted + 1)
    est;
  List.iter
    (fun (b : Rtlb.Lower_bound.bound) ->
      let p = b.Rtlb.Lower_bound.partition in
      let members = List.concat p.Rtlb.Partition.blocks in
      let range v =
        List.fold_left (fun acc i -> max acc v.(i)) min_int members
        - List.fold_left (fun acc i -> min acc v.(i)) max_int members
      in
      let limit = (4 * List.length members) + 1024 in
      if members <> [] then
        if range est < limit && range lct < limit then
          cov.counting <- cov.counting + 1
        else cov.comparison <- cov.comparison + 1;
      List.iter2
        (fun block (lo, hi) ->
          if lo < hi then
            if hi - lo < (8 * List.length block) + 64 then
              cov.dense <- cov.dense + 1
            else cov.wide <- cov.wide + 1)
        p.Rtlb.Partition.blocks p.Rtlb.Partition.spans)
    a.Rtlb.Analysis.bounds

let every_path_identical () =
  let cov =
    {
      dense = 0;
      wide = 0;
      counting = 0;
      comparison = 0;
      squeezed = 0;
      inverted = 0;
    }
  in
  let rand = Random.State.make [| 23 |] in
  Rtlb_par.Pool.with_pool ~jobs:2 (fun pool ->
      for _ = 1 to 100 do
        let f = QCheck2.Gen.generate1 ~rand family_gen in
        List.iter
          (fun (k, tight) ->
            let app = transform ~k ~tight f.f_app in
            List.iter
              (fun system ->
                let reference = Oracle.run system app in
                tally cov reference;
                List.iter
                  (fun (pool, prune) ->
                    if
                      not
                        (Oracle.values_identical
                           (Rtlb.Analysis.run ?pool ~prune system app)
                           reference)
                    then
                      Alcotest.failf
                        "%s (times x%d%s, %s, prune %b): Analysis.run <> \
                         record oracle\n%s"
                        f.label k
                        (if tight then ", tight" else "")
                        (if pool = None then "sequential" else "2 domains")
                        prune
                        (Rtfmt.Appfile.to_string app))
                  [ (None, true); (None, false); (Some pool, true);
                    (Some pool, false) ])
              [ f.f_shared; f.f_dedicated ])
          [ (1, false); (1_000_000, false); (1, true); (1_000_000, true) ]
      done);
  List.iter
    (fun (what, n) -> check_bool (what ^ " exercised") true (n > 0))
    [
      ("dense block", cov.dense);
      ("wide block", cov.wide);
      ("counting partition", cov.counting);
      ("comparison partition", cov.comparison);
      ("E + C > L window", cov.squeezed);
      ("L < E window", cov.inverted);
    ]

(* A dedicated catalogue wider than one host-mask word (61 node types
   on 64-bit): 70 decoy nodes first, so the paper's own three node
   types sit in the second word.  Analysis.run once refused this with
   "Soa.pack: more than 61 node types". *)
let many_node_types () =
  let decoys =
    List.init 70 (fun k ->
        Rtlb.System.node_type
          ~name:(Printf.sprintf "X%d" k)
          ~proc:(if k mod 2 = 0 then "P1" else "P2")
          ~cost:(20 + k) ())
  in
  let system =
    Rtlb.System.dedicated
      (decoys @ Rtlb.System.node_types Rtlb.Paper_example.dedicated)
  in
  check_int "catalogue size" 73
    (List.length (Rtlb.System.node_types system));
  let app = Rtlb.Paper_example.app in
  let reference = Oracle.run system app in
  let a = Rtlb.Analysis.run system app in
  check_bool "73 node types: Analysis.run = record oracle" true
    (Oracle.values_identical a reference);
  Rtlb_par.Pool.with_pool ~jobs:Test_par.test_jobs (fun pool ->
      check_bool "73 node types, pooled: Analysis.run = record oracle" true
        (Oracle.values_identical
           (Rtlb.Analysis.run ~pool system app)
           reference));
  Alcotest.(check (array int))
    "paper example est" Rtlb.Paper_example.expected_est
    a.Rtlb.Analysis.windows.Rtlb.Est_lct.est

let paper_example_windows () =
  let a = Rtlb.Analysis.run Rtlb.Paper_example.shared Rtlb.Paper_example.app in
  Alcotest.(check (array int))
    "paper example est" Rtlb.Paper_example.expected_est
    a.Rtlb.Analysis.windows.Rtlb.Est_lct.est;
  Alcotest.(check (array int))
    "paper example lct" Rtlb.Paper_example.expected_lct_repaired
    a.Rtlb.Analysis.windows.Rtlb.Est_lct.lct;
  check_bool "paper example = record oracle" true
    (Oracle.values_identical a
       (Oracle.run Rtlb.Paper_example.shared Rtlb.Paper_example.app))

(* --- dominance pruning ---------------------------------------------- *)

let pruned_equals_unpruned =
  qtest "pruned interval scan = unpruned reference" (arb_instance ())
    (fun i ->
      let system = shared_of i in
      let reference = Oracle.run system i.app in
      Oracle.values_identical
        (Rtlb.Analysis.run ~prune:true system i.app)
        reference
      && Oracle.values_identical
           (Rtlb.Analysis.run ~prune:false system i.app)
           reference)

(* --- scaling workload ----------------------------------------------- *)

let frames_identical () =
  let app =
    Workload.Gen.layered_frames ~seed:7 ~frames:10 ~tasks_per_frame:100 ()
  in
  let system = Workload.Gen.frame_system () in
  check_int "frame workload size" 1000 (Rtlb.App.n_tasks app);
  check_bool "frame workload: Analysis.run = record oracle" true
    (Oracle.values_identical
       (Rtlb.Analysis.run system app)
       (Oracle.run system app))

let frames_deterministic () =
  let a = Workload.Gen.layered_frames ~seed:3 ~frames:2 ~tasks_per_frame:40 () in
  let b = Workload.Gen.layered_frames ~seed:3 ~frames:2 ~tasks_per_frame:40 () in
  check_string "same seed, same app" (Rtfmt.Appfile.to_string a)
    (Rtfmt.Appfile.to_string b)

(* --- domain-pool path ----------------------------------------------- *)

let pool_identical () =
  let app =
    Workload.Gen.layered_frames ~seed:11 ~frames:6 ~tasks_per_frame:50 ()
  in
  let system = Workload.Gen.frame_system () in
  let reference = Oracle.run system app in
  check_bool "sequential (pruned) = record oracle" true
    (Oracle.values_identical (Rtlb.Analysis.run system app) reference);
  Rtlb_par.Pool.with_pool ~jobs:4 (fun pool ->
      check_bool "pool (pruned) = record oracle" true
        (Oracle.values_identical
           (Rtlb.Analysis.run ~pool system app)
           reference);
      check_bool "pool = pooled record oracle" true
        (Oracle.values_identical
           (Rtlb.Analysis.run ~pool system app)
           (Oracle.run ~pool system app)))

(* --- systhreads of one domain ---------------------------------------- *)

(* Serve's workers are systhreads of one domain, and a thread switch can
   land inside a scan.  Each thread analyses its own instance over and
   over against its sequential answer, until the first mismatch or
   exception, or for 3 s.  The instances differ, so a scan that reads
   another thread's Theta kernel gives a wrong bound, not a lucky
   right one. *)
let systhreads_identical () =
  let system = Workload.Gen.frame_system () in
  let instances =
    Array.init 4 (fun k ->
        let app =
          Workload.Gen.layered_frames ~seed:(100 + k) ~frames:2
            ~tasks_per_frame:150 ()
        in
        (app, Rtlb.Analysis.run system app))
  in
  let failure = Atomic.make None and runs = Atomic.make 0 in
  let fail m = ignore (Atomic.compare_and_set failure None (Some m)) in
  let until = Unix.gettimeofday () +. 3.0 in
  let worker (app, reference) () =
    while Atomic.get failure = None && Unix.gettimeofday () < until do
      (match Rtlb.Analysis.run system app with
      | a when Oracle.values_identical a reference -> ()
      | _ -> fail "a result differs from the sequential run"
      | exception e -> fail (Printexc.to_string e));
      Atomic.incr runs
    done
  in
  Array.iter Thread.join
    (Array.map (fun i -> Thread.create (worker i) ()) instances);
  match Atomic.get failure with
  | None -> check_bool "some runs were made" true (Atomic.get runs > 0)
  | Some m -> Alcotest.failf "after %d runs: %s" (Atomic.get runs) m

(* The EST/LCT sweep is first-order over the packed arrays and reuses
   its instance's scratch: on a frame DAG it allocates no minor word, on
   a shared and on a dedicated system alike (5.7 M words at 10^5 tasks
   when the directions were closures). *)
let sweep_allocates_nothing () =
  let app = Workload.Gen.layered_frames ~seed:7 ~frames:20 () in
  List.iter
    (fun (what, system) ->
      let packed = Rtlb.Soa.pack system app in
      let before = Gc.minor_words () in
      Rtlb.Soa.compute_windows packed;
      let words = Gc.minor_words () -. before in
      if words <> 0.0 then
        Alcotest.failf "%s: compute_windows allocated %.0f minor words" what
          words)
    [ ("shared", Workload.Gen.frame_system ()); ("dedicated", frame_nodes) ]

let suite =
  [
    ( "soa",
      [
        roundtrip_random;
        Alcotest.test_case "round-trip: examples" `Quick roundtrip_examples;
        analyze_identical;
        Alcotest.test_case "paper example windows" `Quick paper_example_windows;
        Alcotest.test_case "paper example, 73 node types" `Quick
          many_node_types;
        families_identical;
        pruned_equals_unpruned;
        Alcotest.test_case "every scan path, squeezed windows = record oracle"
          `Quick every_path_identical;
        Alcotest.test_case "frame workload identity" `Quick frames_identical;
        Alcotest.test_case "frame workload determinism" `Quick
          frames_deterministic;
        Alcotest.test_case "pool path identity" `Quick pool_identical;
        Alcotest.test_case "systhreads of one domain = sequential" `Quick
          systhreads_identical;
        Alcotest.test_case "sweep allocates no minor words" `Quick
          sweep_allocates_nothing;
      ] );
  ]
