type t = {
  tasks : Task.t array;
  graph : Dag.t;
  resource_set : string list;  (* cached RES *)
}

let of_arrays ~tasks ~src ~dst ~msg =
  let n = Array.length tasks in
  let placed = Array.make n false in
  let by_id = Array.copy tasks in
  Array.iter
    (fun (task : Task.t) ->
      if task.Task.id < 0 || task.Task.id >= n then
        invalid_arg
          (Printf.sprintf "App.make: task id %d out of range [0,%d)"
             task.Task.id n);
      if placed.(task.Task.id) then
        invalid_arg
          (Printf.sprintf "App.make: duplicate task id %d" task.Task.id);
      placed.(task.Task.id) <- true;
      by_id.(task.Task.id) <- task)
    tasks;
  (* n distinct ids in [0, n) leave no id missing *)
  Array.iter
    (fun m -> if m < 0 then invalid_arg "App.make: negative message size")
    msg;
  let graph = Dag.of_arrays ~n ~src ~dst ~weight:msg in
  (* Collect each name once, so the sort is over the distinct names.  A
     name physically equal to the last one of its kind (the [.app]
     reader interns names) is not hashed again. *)
  let seen = Hashtbl.create 16 in
  let last_proc = ref None and last_res = ref None in
  let see last r =
    match !last with
    | Some l when l == r -> ()
    | _ ->
        Hashtbl.replace seen r ();
        last := Some r
  in
  Array.iter
    (fun (task : Task.t) ->
      see last_proc task.Task.proc;
      List.iter (see last_res) task.Task.resources)
    by_id;
  let resource_set =
    Hashtbl.fold (fun r () acc -> r :: acc) seen []
    |> List.sort String.compare
  in
  { tasks = by_id; graph; resource_set }

let make ~tasks ~edges =
  let edges = Array.of_list edges in
  of_arrays ~tasks:(Array.of_list tasks)
    ~src:(Array.map (fun (s, _, _) -> s) edges)
    ~dst:(Array.map (fun (_, d, _) -> d) edges)
    ~msg:(Array.map (fun (_, _, m) -> m) edges)

let n_tasks t = Array.length t.tasks
let task t i = t.tasks.(i)
let tasks t = Array.copy t.tasks
let graph t = t.graph
let preds t i = Dag.pred_ids t.graph i
let succs t i = Dag.succ_ids t.graph i

let message t ~src ~dst =
  match Dag.edge_weight t.graph ~src ~dst with
  | Some m -> m
  | None -> raise Not_found

let resource_set t = t.resource_set

let tasks_using t r =
  Array.to_list t.tasks
  |> List.filter_map (fun task ->
         if Task.uses task r then Some task.Task.id else None)

let total_work t r =
  tasks_using t r
  |> List.fold_left (fun acc i -> acc + (task t i).Task.compute) 0

let horizon t =
  Array.fold_left (fun acc (task : Task.t) -> max acc task.Task.deadline) 0
    t.tasks

(* An analysis forms windows within T = horizon + total compute + total
   messages of zero (a chain of computes and messages moves an EST or
   LCT at most that far), thresholds, sums and differences of those
   within 4 T, and demands up to a resource's sum of units * C, which is
   at most W = the sum over tasks of C times the units the task holds.
   So it is exact when 4 T + W stays within [max_int].  Every quantity
   is non-negative, so the checked sums below cannot wrap. *)
let check_range t =
  let add a b = if b > max_int - a then raise_notrace Exit else a + b in
  let mul a b = if a > 0 && b > max_int / a then raise_notrace Exit else a * b in
  let rec units acc = function [] -> acc | (_, k) :: rest -> units (add acc k) rest in
  match
    let horizon = ref 0 and span = ref 0 and demand = ref 0 in
    for i = 0 to Array.length t.tasks - 1 do
      let task = t.tasks.(i) in
      let c = task.Task.compute in
      if task.Task.deadline > !horizon then horizon := task.Task.deadline;
      span := add !span c;
      demand := add !demand (mul (units 1 task.Task.demands) c)
    done;
    let msgs = (Dag.succ_csr t.graph).Dag.weight in
    for e = 0 to Array.length msgs - 1 do
      span := add !span msgs.(e)
    done;
    add (mul 4 (add !horizon !span)) !demand
  with
  | _ -> Ok ()
  | exception Exit ->
      Error
        (Printf.sprintf
           "times or demands too large: 4 x (horizon + total compute + \
            total messages) + total demand (compute x units held, over \
            every task) exceeds %d"
           max_int)

let critical_time t =
  Dag.critical_path_length t.graph ~vertex_weight:(fun i ->
      t.tasks.(i).Task.compute)

let map_tasks t ~f =
  let tasks = Array.map f t.tasks in
  Array.iteri
    (fun i (task : Task.t) ->
      if task.Task.id <> i then invalid_arg "App.map_tasks: id changed")
    tasks;
  { t with tasks }

let to_dot t =
  Dag.to_dot ~name:"application"
    ~label:(fun i -> Format.asprintf "%a" Task.pp t.tasks.(i))
    t.graph

let pp ppf t =
  Format.fprintf ppf "@[<v>application: %d tasks, %d edges" (n_tasks t)
    (Dag.n_edges t.graph);
  Array.iter (fun task -> Format.fprintf ppf "@,  %a" Task.pp task) t.tasks;
  Format.fprintf ppf "@]"
