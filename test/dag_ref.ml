(* The list-based DAG: per-vertex adjacency lists sorted with List.sort,
   Kahn's algorithm over a Queue.  Kept verbatim as the reference the
   CSR-based Dag is tested against (test_dag); the two must agree on
   every observable, errors included. *)

type t = {
  n : int;
  succ : (int * int) list array;  (* (dst, weight), sorted by dst *)
  pred : (int * int) list array;  (* (src, weight), sorted by src *)
  n_edges : int;
  topo : int array;
}

exception Cycle of int list

(* Kahn's algorithm; on failure, walks the leftover vertices to report one
   concrete cycle. *)
let topological_sort n succ pred =
  let indegree = Array.map List.length pred in
  let queue = Queue.create () in
  Array.iteri (fun v d -> if d = 0 then Queue.add v queue) indegree;
  let order = Array.make n 0 in
  let count = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    order.(!count) <- v;
    incr count;
    List.iter
      (fun (w, _) ->
        indegree.(w) <- indegree.(w) - 1;
        if indegree.(w) = 0 then Queue.add w queue)
      succ.(v)
  done;
  if !count = n then order
  else begin
    (* Find a cycle among vertices with remaining in-degree. *)
    let in_cycle = Array.make n false in
    Array.iteri (fun v d -> if d > 0 then in_cycle.(v) <- true) indegree;
    let start = ref 0 in
    Array.iteri (fun v b -> if b && not in_cycle.(!start) then start := v)
      in_cycle;
    let seen = Array.make n (-1) in
    let rec walk v step path =
      if seen.(v) >= 0 then
        (* Trim the tail before the first repetition. *)
        List.rev (v :: path)
        |> List.filteri (fun i _ -> i >= seen.(v))
      else begin
        seen.(v) <- step;
        let next =
          List.find_map
            (fun (w, _) -> if in_cycle.(w) then Some w else None)
            succ.(v)
        in
        match next with
        | Some w -> walk w (step + 1) (v :: path)
        | None -> List.rev (v :: path)
      end
    in
    raise (Cycle (walk !start 0 []))
  end

let create ~n ~edges =
  if n < 0 then invalid_arg "Dag.create: negative size";
  let succ = Array.make n [] and pred = Array.make n [] in
  List.iter
    (fun (src, dst, w) ->
      if src < 0 || src >= n || dst < 0 || dst >= n then
        invalid_arg
          (Printf.sprintf "Dag.create: edge (%d,%d) out of range" src dst);
      if src = dst then
        invalid_arg (Printf.sprintf "Dag.create: self loop on %d" src);
      succ.(src) <- (dst, w) :: succ.(src);
      pred.(dst) <- (src, w) :: pred.(dst))
    edges;
  let by_fst (a, _) (b, _) = Int.compare a b in
  let sort = function ([] | [ _ ]) as l -> l | l -> List.sort by_fst l in
  (* A duplicated edge leaves two equal neighbours side by side in its
     source's sorted successor list. *)
  let rec check_distinct src = function
    | (a, _) :: ((b, _) :: _ as rest) ->
        if a = b then
          invalid_arg
            (Printf.sprintf "Dag.create: duplicate edge (%d,%d)" src a);
        check_distinct src rest
    | _ -> ()
  in
  Array.iteri
    (fun i l ->
      let l = sort l in
      check_distinct i l;
      succ.(i) <- l)
    succ;
  Array.iteri (fun i l -> pred.(i) <- sort l) pred;
  let topo = topological_sort n succ pred in
  { n; succ; pred; n_edges = List.length edges; topo }

let n_vertices t = t.n
let n_edges t = t.n_edges
let succs t v = t.succ.(v)
let preds t v = t.pred.(v)
let succ_ids t v = List.map fst t.succ.(v)
let pred_ids t v = List.map fst t.pred.(v)

let edge_weight t ~src ~dst =
  List.find_map (fun (d, w) -> if d = dst then Some w else None) t.succ.(src)

let sources t =
  List.init t.n Fun.id |> List.filter (fun v -> t.pred.(v) = [])

let sinks t = List.init t.n Fun.id |> List.filter (fun v -> t.succ.(v) = [])
let topological_order t = Array.copy t.topo

let reverse_topological_order t =
  let n = t.n in
  Array.init n (fun i -> t.topo.(n - 1 - i))

let reachable t v =
  let mark = Array.make t.n false in
  let rec go u =
    if not mark.(u) then begin
      mark.(u) <- true;
      List.iter (fun (w, _) -> go w) t.succ.(u)
    end
  in
  go v;
  mark

let transitive_closure t =
  let closure = Array.init t.n (fun _ -> Array.make t.n false) in
  (* Process in reverse topological order so successors are complete. *)
  Array.iter
    (fun v ->
      List.iter
        (fun (w, _) ->
          closure.(v).(w) <- true;
          for x = 0 to t.n - 1 do
            if closure.(w).(x) then closure.(v).(x) <- true
          done)
        t.succ.(v))
    (reverse_topological_order t);
  closure

let longest_generic t ~vertex_weight ~edge_counts =
  let dist = Array.make t.n 0 in
  Array.iter
    (fun v ->
      let best =
        List.fold_left
          (fun acc (u, w) ->
            let through = dist.(u) + if edge_counts then w else 0 in
            Stdlib.max acc through)
          0 t.pred.(v)
      in
      dist.(v) <- best + vertex_weight v)
    t.topo;
  dist

let longest_path_lengths t ~vertex_weight =
  longest_generic t ~vertex_weight ~edge_counts:false

let longest_path_with_edges t ~vertex_weight =
  longest_generic t ~vertex_weight ~edge_counts:true

let critical_path_length t ~vertex_weight =
  let dist = longest_path_lengths t ~vertex_weight in
  Array.fold_left Stdlib.max 0 dist

let fold_edges t ~init ~f =
  let acc = ref init in
  for src = 0 to t.n - 1 do
    List.iter (fun (dst, w) -> acc := f !acc ~src ~dst w) t.succ.(src)
  done;
  !acc

let map_weights t ~f =
  let edges =
    fold_edges t ~init:[] ~f:(fun acc ~src ~dst w ->
        (src, dst, f ~src ~dst w) :: acc)
  in
  create ~n:t.n ~edges

let to_dot ?(name = "dag") ?label t =
  let buf = Buffer.create 256 in
  let label = Option.value label ~default:string_of_int in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n" name);
  for v = 0 to t.n - 1 do
    Buffer.add_string buf (Printf.sprintf "  n%d [label=\"%s\"];\n" v (label v))
  done;
  fold_edges t ~init:() ~f:(fun () ~src ~dst w ->
      Buffer.add_string buf
        (Printf.sprintf "  n%d -> n%d [label=\"%d\"];\n" src dst w));
  Buffer.add_string buf "}\n";
  Buffer.contents buf
