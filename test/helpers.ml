(* Shared test utilities: qcheck generators for random applications and
   systems, built on the deterministic workload generator so that every
   counterexample is reproducible from its config. *)

let shapes =
  [
    Workload.Gen.Layered { layers = 3; density = 0.5 };
    Workload.Gen.Series_parallel;
    Workload.Gen.Fork_join { width = 3 };
    Workload.Gen.Out_tree;
    Workload.Gen.In_tree;
    Workload.Gen.Chain;
    Workload.Gen.Independent;
  ]

type instance = { config : Workload.Gen.config; app : Rtlb.App.t }

let config_gen ~max_tasks =
  let open QCheck2.Gen in
  let* seed = int_bound 1_000_000 in
  let* n_tasks = int_range 2 max_tasks in
  let* shape = oneofl shapes in
  let* ccr = oneofl [ 0.0; 0.3; 1.0; 3.0 ] in
  let* laxity = oneofl [ 1.0; 1.3; 2.0; 4.0 ] in
  let* two_procs = bool in
  let* resource_density = oneofl [ 0.0; 0.3; 0.7 ] in
  let* preemptive_fraction = oneofl [ 0.0; 0.5; 1.0 ] in
  let* release_spread = oneofl [ 0.0; 0.5 ] in
  return
    {
      Workload.Gen.seed;
      n_tasks;
      shape;
      compute_range = (1, 9);
      ccr;
      laxity;
      proc_types =
        (if two_procs then [ ("P1", 0.6); ("P2", 0.4) ] else [ ("P1", 1.0) ]);
      resource_types = [ ("r1", resource_density) ];
      preemptive_fraction;
      release_spread;
    }

let instance_gen ~max_tasks =
  QCheck2.Gen.map
    (fun config -> { config; app = Workload.Gen.generate config })
    (config_gen ~max_tasks)

let print_instance i =
  Printf.sprintf "seed=%d shape=%s n=%d ccr=%f laxity=%f\n%s"
    i.config.Workload.Gen.seed
    (Workload.Gen.shape_name i.config.Workload.Gen.shape)
    i.config.Workload.Gen.n_tasks i.config.Workload.Gen.ccr
    i.config.Workload.Gen.laxity
    (Rtfmt.Appfile.to_string i.app)

(* qcheck (v1) arbitrary for use with QCheck_alcotest, sampling the
   QCheck2 generator above. *)
let arb_instance ?(max_tasks = 12) () =
  QCheck.make ~print:print_instance (fun st ->
      QCheck2.Gen.generate1 ~rand:st (instance_gen ~max_tasks))

let shared_of i = Workload.Gen.shared_system i.config
let dedicated_of i = Workload.Gen.dedicated_system i.config

let qtest ?(count = 200) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

let string_contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

(* A path relative to the repository root: dune runtest runs in test/,
   dune exec in the workspace root. *)
let repo_path rel = List.find Sys.file_exists [ "../" ^ rel; rel ]

(* Alcotest checkers *)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_int_list = Alcotest.(check (list int))
let check_string = Alcotest.(check string)
