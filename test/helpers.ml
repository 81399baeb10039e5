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

(* ---------------- generator families ---------------- *)

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
