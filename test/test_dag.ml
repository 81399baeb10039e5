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

(* ---------------- differential against Dag_ref ---------------- *)

module type GRAPH = sig
  type t

  val n_vertices : t -> int
  val n_edges : t -> int
  val succs : t -> int -> (int * int) list
  val preds : t -> int -> (int * int) list
  val succ_ids : t -> int -> int list
  val pred_ids : t -> int -> int list
  val edge_weight : t -> src:int -> dst:int -> int option
  val sources : t -> int list
  val sinks : t -> int list
  val topological_order : t -> int array
  val reverse_topological_order : t -> int array
  val reachable : t -> int -> bool array
  val transitive_closure : t -> bool array array
  val longest_path_lengths : t -> vertex_weight:(int -> int) -> int array
  val longest_path_with_edges : t -> vertex_weight:(int -> int) -> int array

  val fold_edges :
    t -> init:'a -> f:('a -> src:int -> dst:int -> int -> 'a) -> 'a

  val to_dot : ?name:string -> ?label:(int -> string) -> t -> string
end

(* Everything a graph answers, as plain data both implementations can be
   compared on. *)
module Observe (G : GRAPH) = struct
  let observe g =
    let n = G.n_vertices g in
    let vs = List.init n Fun.id in
    let vertex_weight v = ((v * 7) + 3) mod 11 in
    ( (n, G.n_edges g),
      List.map (fun v -> (G.succs g v, G.preds g v)) vs,
      List.map (fun v -> (G.succ_ids g v, G.pred_ids g v)) vs,
      List.concat_map
        (fun src -> List.map (fun dst -> G.edge_weight g ~src ~dst) vs)
        vs,
      (G.sources g, G.sinks g, G.topological_order g),
      ( G.reverse_topological_order g,
        List.map (G.reachable g) vs,
        G.transitive_closure g ),
      List.rev
        (G.fold_edges g ~init:[] ~f:(fun acc ~src ~dst w -> (src, dst, w) :: acc)),
      ( G.longest_path_lengths g ~vertex_weight,
        G.longest_path_with_edges g ~vertex_weight ),
      G.to_dot g )
end

module Obs_new = Observe (Dag)
module Obs_ref = Observe (Dag_ref)

let show_ints l = String.concat " " (List.map string_of_int l)

let outcome_new ~n ~edges =
  match Dag.create ~n ~edges with
  | g -> Ok (Obs_new.observe g)
  | exception Invalid_argument m -> Error ("Invalid_argument " ^ m)
  | exception Dag.Cycle c -> Error ("Cycle " ^ show_ints c)

let outcome_ref ~n ~edges =
  match Dag_ref.create ~n ~edges with
  | g -> Ok (Obs_ref.observe g)
  | exception Invalid_argument m -> Error ("Invalid_argument " ^ m)
  | exception Dag_ref.Cycle c -> Error ("Cycle " ^ show_ints c)

(* [l] with [x] inserted before position [at]. *)
let insert_at at x l =
  List.filteri (fun i _ -> i < at) l @ (x :: List.filteri (fun i _ -> i >= at) l)

(* Edge lists over up to 30 vertices: forward edges of a random vertex
   ranking (a DAG) with, in about half the cases, some faults spliced in
   at random positions: out-of-range endpoints, self loops, repeats of
   earlier pairs (with any weight) and backward edges, which close a
   cycle when a forward path joins their ends. *)
let arb_edge_list =
  let gen =
    QCheck.Gen.(
      let* n = int_range 0 30 in
      let* rank = map Array.of_list (shuffle_l (List.init n Fun.id)) in
      let* n_fwd = int_range 0 (2 * n) in
      let pair =
        let* a = int_bound (max 0 (n - 1)) in
        let* b = int_bound (max 0 (n - 1)) in
        return (min a b, max a b)
      in
      let* fwd =
        list_repeat n_fwd
          (let* a, b = pair in
           let* w = int_bound 9 in
           return (rank.(a), rank.(b), w))
      in
      let fwd =
        List.filteri
          (fun k (s, d, _) ->
            s <> d
            && not
                 (List.exists (fun (s', d', _) -> s = s' && d = d')
                    (List.filteri (fun j _ -> j < k) fwd)))
          fwd
      in
      let* faulty = bool in
      let* n_faults = if faulty then int_range 1 3 else return 0 in
      (* one kind of fault per case, or any mix of them *)
      let* only = int_bound 4 in
      let fault =
        let* kind = if only < 4 then return only else int_bound 3 in
        let* w = int_bound 9 in
        match kind with
        | 0 ->
            (* an endpoint out of range *)
            let* v = int_range (-2) (n + 2) in
            let* side = bool in
            let out = if v >= 0 && v < n then n + 1 else v in
            let* other = int_bound (max 0 (n - 1)) in
            return (if side then (out, other, w) else (other, out, w))
        | 1 ->
            let* v = int_bound (max 0 (n - 1)) in
            return (v, v, w)
        | 2 -> (
            (* a repeat of an earlier pair *)
            match fwd with
            | [] -> return (0, 0, w)
            | _ ->
                let* k = int_bound (List.length fwd - 1) in
                let s, d, _ = List.nth fwd k in
                return (s, d, w))
        | _ when n < 2 -> return (0, 0, w)
        | _ -> (
            (* a backward edge *)
            let* reverse = bool in
            match fwd with
            | _ :: _ when reverse ->
                let* k = int_bound (List.length fwd - 1) in
                let s, d, _ = List.nth fwd k in
                return (d, s, w)
            | _ ->
                let* a = int_bound (n - 2) in
                let* b = int_range (a + 1) (n - 1) in
                return (rank.(b), rank.(a), w))
      in
      let* faults = list_repeat n_faults fault in
      let* edges =
        List.fold_left
          (fun acc e ->
            let* l = acc in
            let* at = int_bound (List.length l) in
            return (insert_at at e l))
          (return fwd) faults
      in
      return (n, edges))
  in
  QCheck.make gen ~print:(fun (n, edges) ->
      Printf.sprintf "n=%d edges=[%s]" n
        (String.concat "; "
           (List.map (fun (s, d, w) -> Printf.sprintf "(%d,%d,%d)" s d w) edges)))

let differential =
  qtest ~count:1000 "CSR Dag agrees with the list-based reference"
    arb_edge_list (fun (n, edges) ->
      outcome_new ~n ~edges = outcome_ref ~n ~edges)

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
      @ prop_tests @ [ differential ] );
  ]
