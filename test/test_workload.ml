(* Tests for the PRNG and the workload generators. *)

open Helpers

let prng_deterministic () =
  let a = Workload.Prng.create 7 and b = Workload.Prng.create 7 in
  let seq g = List.init 20 (fun _ -> Workload.Prng.int g 1000) in
  check_int_list "same seed, same stream" (seq a) (seq b);
  let c = Workload.Prng.create 8 in
  check_bool "different seed, different stream" true (seq a <> seq c)

let prng_ranges () =
  let g = Workload.Prng.create 1 in
  for _ = 1 to 1000 do
    let v = Workload.Prng.int g 10 in
    check_bool "int in range" true (v >= 0 && v < 10);
    let v = Workload.Prng.range g 5 9 in
    check_bool "range inclusive" true (v >= 5 && v <= 9)
  done;
  check_int "range singleton" 3 (Workload.Prng.range g 3 3);
  Alcotest.check_raises "empty range"
    (Invalid_argument "Prng.range: empty range") (fun () ->
      ignore (Workload.Prng.range g 5 4))

let prng_distributions () =
  let g = Workload.Prng.create 99 in
  let hits = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let v = Workload.Prng.int g 10 in
    hits.(v) <- hits.(v) + 1
  done;
  Array.iteri
    (fun i h ->
      check_bool
        (Printf.sprintf "bucket %d roughly uniform (%d)" i h)
        true
        (h > 700 && h < 1300))
    hits;
  let g = Workload.Prng.create 5 in
  let t = ref 0 in
  for _ = 1 to 10_000 do
    if Workload.Prng.chance g 0.3 then incr t
  done;
  check_bool "chance ~0.3" true (!t > 2500 && !t < 3500);
  check_bool "chance 0 never" false (Workload.Prng.chance g 0.0);
  check_bool "chance 1 always" true (Workload.Prng.chance g 1.0)

let prng_weighted () =
  let g = Workload.Prng.create 3 in
  let a = ref 0 and b = ref 0 in
  for _ = 1 to 10_000 do
    match Workload.Prng.weighted g [ ("a", 3.0); ("b", 1.0) ] with
    | "a" -> incr a
    | _ -> incr b
  done;
  check_bool "3:1 split" true (!a > 6900 && !a < 8100);
  check_bool "b occurs" true (!b > 0)

let generator_deterministic () =
  let cfg = Workload.Gen.default in
  let a = Workload.Gen.generate cfg and b = Workload.Gen.generate cfg in
  check_string "same config, same app" (Rtfmt.Appfile.to_string a)
    (Rtfmt.Appfile.to_string b)

let generator_sizes () =
  List.iter
    (fun (shape, expected) ->
      let cfg = { Workload.Gen.default with Workload.Gen.shape; n_tasks = 24 } in
      let app = Workload.Gen.generate cfg in
      check_int (Workload.Gen.shape_name shape) expected (Rtlb.App.n_tasks app))
    [
      (Workload.Gen.Chain, 24);
      (Workload.Gen.Independent, 24);
      (Workload.Gen.Out_tree, 24);
      (Workload.Gen.Fft { points = 8 }, 32);
      (* 8 * (log2 8 + 1) *)
      (Workload.Gen.Gauss { size = 4 }, 9);
      (* 3 pivots + updates 3+2+1 *)
    ]

let fft_structure () =
  let cfg = { Workload.Gen.default with Workload.Gen.shape = Workload.Gen.Fft { points = 4 } } in
  let app = Workload.Gen.generate cfg in
  let g = Rtlb.App.graph app in
  (* 4-point FFT: 12 tasks, 2 butterfly stages of 8 edges each. *)
  check_int "tasks" 12 (Rtlb.App.n_tasks app);
  check_int "edges" 16 (Dag.n_edges g);
  (* stage-0 tasks are the only sources *)
  check_int "sources" 4 (List.length (Dag.sources g));
  check_int "sinks" 4 (List.length (Dag.sinks g))

let chain_is_a_chain () =
  let cfg = { Workload.Gen.default with Workload.Gen.shape = Workload.Gen.Chain; n_tasks = 6 } in
  let app = Workload.Gen.generate cfg in
  let g = Rtlb.App.graph app in
  check_int_list "sources" [ 0 ] (Dag.sources g);
  check_int_list "sinks" [ 5 ] (Dag.sinks g);
  check_int "edges" 5 (Dag.n_edges g)

let laxity_controls_deadline () =
  let tight = { Workload.Gen.default with Workload.Gen.laxity = 1.0; ccr = 0.0 } in
  let loose = { tight with Workload.Gen.laxity = 3.0 } in
  let d app = Rtlb.App.horizon app in
  check_bool "looser laxity, later deadline" true
    (d (Workload.Gen.generate loose) > d (Workload.Gen.generate tight))

let systems_host_everything () =
  let cfg = { Workload.Gen.default with Workload.Gen.resource_types = [ ("r1", 0.5); ("r2", 0.5) ] } in
  let app = Workload.Gen.generate cfg in
  (match Rtlb.System.validate_for (Workload.Gen.dedicated_system cfg) app with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* shared systems price every resource that can occur *)
  let system = Workload.Gen.shared_system cfg in
  List.iter
    (fun r -> ignore (Rtlb.System.resource_cost system r))
    (Rtlb.App.resource_set app)

let prop_tests =
  [
    qtest ~count:200 "generated instances are feasible by construction"
      (arb_instance ~max_tasks:16 ()) (fun i ->
        let w = Rtlb.Est_lct.compute (shared_of i) i.app in
        Rtlb.Windows.feasible i.app (Rtlb.Est_lct.windows w) = Ok ());
    qtest ~count:200 "zero ccr generates zero-size messages"
      (arb_instance ~max_tasks:10 ()) (fun i ->
        let cfg = { i.config with Workload.Gen.ccr = 0.0 } in
        let app = Workload.Gen.generate cfg in
        Dag.fold_edges (Rtlb.App.graph app) ~init:true ~f:(fun acc ~src:_ ~dst:_ m ->
            acc && m = 0));
  ]

let suite =
  [
    ( "workload",
      [
        Alcotest.test_case "prng determinism" `Quick prng_deterministic;
        Alcotest.test_case "prng ranges" `Quick prng_ranges;
        Alcotest.test_case "prng distribution" `Quick prng_distributions;
        Alcotest.test_case "prng weighted" `Quick prng_weighted;
        Alcotest.test_case "generator determinism" `Quick generator_deterministic;
        Alcotest.test_case "intrinsic sizes" `Quick generator_sizes;
        Alcotest.test_case "fft structure" `Quick fft_structure;
        Alcotest.test_case "chain structure" `Quick chain_is_a_chain;
        Alcotest.test_case "laxity" `Quick laxity_controls_deadline;
        Alcotest.test_case "systems host generated tasks" `Quick
          systems_host_everything;
      ]
      @ prop_tests );
  ]
