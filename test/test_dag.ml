(* Tests for the DAG substrate. *)

open Helpers

let diamond () = Dag.create ~n:4 ~edges:[ (0, 1, 5); (0, 2, 3); (1, 3, 2); (2, 3, 1) ]

let construction () =
  let g = diamond () in
  check_int "vertices" 4 (Dag.n_vertices g);
  check_int "edges" 4 (Dag.n_edges g);
  check_int_list "succs of 0" [ 1; 2 ] (Dag.succ_ids g 0);
  check_int_list "preds of 3" [ 1; 2 ] (Dag.pred_ids g 3);
  check_int_list "sources" [ 0 ] (Dag.sources g);
  check_int_list "sinks" [ 3 ] (Dag.sinks g);
  Alcotest.(check (option int)) "weight 0->1" (Some 5) (Dag.edge_weight g ~src:0 ~dst:1);
  Alcotest.(check (option int)) "missing edge" None (Dag.edge_weight g ~src:1 ~dst:2)

let invalid_inputs () =
  Alcotest.check_raises "self loop"
    (Invalid_argument "Dag.create: self loop on 1") (fun () ->
      ignore (Dag.create ~n:2 ~edges:[ (1, 1, 0) ]));
  Alcotest.check_raises "duplicate edge"
    (Invalid_argument "Dag.create: duplicate edge (0,1)") (fun () ->
      ignore (Dag.create ~n:2 ~edges:[ (0, 1, 1); (0, 1, 2) ]));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Dag.create: edge (0,5) out of range") (fun () ->
      ignore (Dag.create ~n:2 ~edges:[ (0, 5, 1) ]));
  (* duplicates are found in the sorted adjacency lists, wherever they
     sit in the input, and after every range and self-loop check *)
  Alcotest.check_raises "scattered duplicate"
    (Invalid_argument "Dag.create: duplicate edge (1,2)") (fun () ->
      ignore (Dag.create ~n:3 ~edges:[ (1, 2, 0); (0, 1, 0); (1, 2, 5) ]));
  Alcotest.check_raises "smallest duplicate first"
    (Invalid_argument "Dag.create: duplicate edge (0,2)") (fun () ->
      ignore
        (Dag.create ~n:3 ~edges:[ (1, 2, 0); (1, 2, 0); (0, 2, 0); (0, 2, 0) ]));
  Alcotest.check_raises "range checked before duplicates"
    (Invalid_argument "Dag.create: edge (0,5) out of range") (fun () ->
      ignore (Dag.create ~n:2 ~edges:[ (0, 1, 0); (0, 1, 0); (0, 5, 0) ]))

let cycle_detection () =
  match Dag.create ~n:3 ~edges:[ (0, 1, 0); (1, 2, 0); (2, 0, 0) ] with
  | exception Dag.Cycle cycle ->
      check_bool "cycle non-trivial" true (List.length cycle >= 3)
  | _ -> Alcotest.fail "expected cycle"

let topo_order_valid () =
  let g = diamond () in
  let order = Dag.topological_order g in
  let position = Array.make 4 0 in
  Array.iteri (fun idx v -> position.(v) <- idx) order;
  Dag.fold_edges g ~init:() ~f:(fun () ~src ~dst _ ->
      check_bool "src before dst" true (position.(src) < position.(dst)))

let reachability () =
  let g = Dag.create ~n:5 ~edges:[ (0, 1, 0); (1, 2, 0); (3, 4, 0) ] in
  let r = Dag.reachable g 0 in
  Alcotest.(check (list bool)) "reach from 0"
    [ true; true; true; false; false ]
    (Array.to_list r);
  let c = Dag.transitive_closure g in
  check_bool "0 reaches 2" true c.(0).(2);
  check_bool "2 not reach 0" false c.(2).(0);
  check_bool "no self" false c.(0).(0);
  check_bool "3 reaches 4" true c.(3).(4)

let longest_paths () =
  let g = diamond () in
  let w = [| 2; 3; 4; 1 |] in
  let into = Dag.longest_path_lengths g ~vertex_weight:(fun i -> w.(i)) in
  Alcotest.(check (list int)) "vertex-weight only" [ 2; 5; 6; 7 ]
    (Array.to_list into);
  check_int "critical path" 7 (Dag.critical_path_length g ~vertex_weight:(fun i -> w.(i)));
  let with_edges = Dag.longest_path_with_edges g ~vertex_weight:(fun i -> w.(i)) in
  (* 0 -(5)-> 1 -(2)-> 3: 2+5+3+2+1 = 13; via 2: 2+3+4+1+1 = 11 *)
  check_int "comm-aware" 13 with_edges.(3)

let dot_output () =
  let dot = Dag.to_dot ~name:"g" (diamond ()) in
  check_bool "has digraph" true
    (String.length dot > 10 && String.sub dot 0 9 = "digraph g");
  check_bool "mentions edge" true (string_contains ~needle:"n0 -> n1" dot)

let map_weights () =
  let g = diamond () in
  let doubled = Dag.map_weights g ~f:(fun ~src:_ ~dst:_ w -> 2 * w) in
  Alcotest.(check (option int)) "doubled" (Some 10)
    (Dag.edge_weight doubled ~src:0 ~dst:1)

(* random DAG property: generator edges always yield valid topo orders *)
let prop_tests =
  [
    qtest ~count:150 "generated graphs topo-sort correctly"
      (arb_instance ~max_tasks:20 ()) (fun i ->
        let g = Rtlb.App.graph i.app in
        let order = Dag.topological_order g in
        let position = Array.make (Dag.n_vertices g) 0 in
        Array.iteri (fun idx v -> position.(v) <- idx) order;
        Dag.fold_edges g ~init:true ~f:(fun acc ~src ~dst _ ->
            acc && position.(src) < position.(dst)));
    qtest ~count:150 "reverse topo is reverse of topo"
      (arb_instance ~max_tasks:20 ()) (fun i ->
        let g = Rtlb.App.graph i.app in
        let a = Array.to_list (Dag.topological_order g) in
        let b = Array.to_list (Dag.reverse_topological_order g) in
        a = List.rev b);
    qtest ~count:150 "closure agrees with per-vertex reachability"
      (arb_instance ~max_tasks:10 ()) (fun i ->
        let g = Rtlb.App.graph i.app in
        let n = Dag.n_vertices g in
        let c = Dag.transitive_closure g in
        List.for_all
          (fun v ->
            let r = Dag.reachable g v in
            List.for_all
              (fun w -> c.(v).(w) = (r.(w) && v <> w))
              (List.init n Fun.id))
          (List.init n Fun.id));
  ]

let suite =
  [
    ( "dag",
      [
        Alcotest.test_case "construction" `Quick construction;
        Alcotest.test_case "invalid inputs" `Quick invalid_inputs;
        Alcotest.test_case "cycle detection" `Quick cycle_detection;
        Alcotest.test_case "topological order" `Quick topo_order_valid;
        Alcotest.test_case "reachability and closure" `Quick reachability;
        Alcotest.test_case "longest paths" `Quick longest_paths;
        Alcotest.test_case "dot output" `Quick dot_output;
        Alcotest.test_case "map weights" `Quick map_weights;
      ]
      @ prop_tests );
  ]
