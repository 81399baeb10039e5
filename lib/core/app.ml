type columns = {
  names : string array;
  compute : int array;
  release : int array;
  deadline : int array;
  proc : string array;
  demands : (string * int) list array;
  preemptive : bool array;
}

type t = {
  cols : columns;
  graph : Dag.t;
  resource_set : string list;  (* cached RES *)
}

let rec see_demands seen = function
  | [] -> ()
  | (r, _) :: rest ->
      Hashtbl.replace seen r ();
      see_demands seen rest

(* Collect each name once, so the sort is over the distinct names.  A
   name or demand list physically equal to the last one of its kind
   (the [.app] reader interns both) is not hashed again. *)
let resource_set_of c =
  let seen = Hashtbl.create 16 in
  let last_proc = ref "" and last_demands = ref [] in
  for i = 0 to Array.length c.proc - 1 do
    let p = c.proc.(i) in
    if i = 0 || p != !last_proc then begin
      Hashtbl.replace seen p ();
      last_proc := p
    end;
    match c.demands.(i) with
    | [] -> ()
    | d ->
        if d != !last_demands then begin
          see_demands seen d;
          last_demands := d
        end
  done;
  Hashtbl.fold (fun r () acc -> r :: acc) seen [] |> List.sort String.compare

(* The edge checks and the graph, over columns that already passed the
   task checks. *)
let build cols ~src ~dst ~msg =
  Array.iter
    (fun m -> if m < 0 then invalid_arg "App.make: negative message size")
    msg;
  let graph = Dag.of_arrays ~n:(Array.length cols.names) ~src ~dst ~weight:msg in
  { cols; graph; resource_set = resource_set_of cols }

(* Records to columns, by id; ids are known to be [0, n). *)
let columns_of_tasks n (get : int -> Task.t) =
  let names = Array.make n "" and compute = Array.make n 0
  and release = Array.make n 0 and deadline = Array.make n 0
  and proc = Array.make n "" and demands = Array.make n []
  and preemptive = Array.make n false in
  for k = 0 to n - 1 do
    let (task : Task.t) = get k in
    let i = task.Task.id in
    names.(i) <- task.Task.name;
    compute.(i) <- task.Task.compute;
    release.(i) <- task.Task.release;
    deadline.(i) <- task.Task.deadline;
    proc.(i) <- task.Task.proc;
    demands.(i) <- task.Task.demands;
    preemptive.(i) <- task.Task.preemptive
  done;
  { names; compute; release; deadline; proc; demands; preemptive }

let of_arrays ~tasks ~src ~dst ~msg =
  let n = Array.length tasks in
  let placed = Array.make n false in
  Array.iter
    (fun (task : Task.t) ->
      if task.Task.id < 0 || task.Task.id >= n then
        invalid_arg
          (Printf.sprintf "App.make: task id %d out of range [0,%d)"
             task.Task.id n);
      if placed.(task.Task.id) then
        invalid_arg
          (Printf.sprintf "App.make: duplicate task id %d" task.Task.id);
      placed.(task.Task.id) <- true)
    tasks;
  (* n distinct ids in [0, n) leave no id missing *)
  build (columns_of_tasks n (Array.get tasks)) ~src ~dst ~msg

let make ~tasks ~edges =
  let edges = Array.of_list edges in
  of_arrays ~tasks:(Array.of_list tasks)
    ~src:(Array.map (fun (s, _, _) -> s) edges)
    ~dst:(Array.map (fun (_, d, _) -> d) edges)
    ~msg:(Array.map (fun (_, _, m) -> m) edges)

let check_tasks c =
  for i = 0 to Array.length c.names - 1 do
    Task.check ~id:i ~compute:c.compute.(i) ~release:c.release.(i)
      ~deadline:c.deadline.(i) ~proc:c.proc.(i) ~demands:c.demands.(i)
  done

let of_columns c ~src ~dst ~msg =
  let n = Array.length c.names in
  if
    Array.length c.compute <> n || Array.length c.release <> n
    || Array.length c.deadline <> n || Array.length c.proc <> n
    || Array.length c.demands <> n || Array.length c.preemptive <> n
  then invalid_arg "App.of_columns: columns of different lengths";
  check_tasks c;
  build c ~src ~dst ~msg

let n_tasks t = Array.length t.cols.names
let columns t = t.cols

let task t i =
  let c = t.cols in
  Task.of_demands ~id:i ~name:c.names.(i) ~compute:c.compute.(i)
    ~release:c.release.(i) ~deadline:c.deadline.(i) ~proc:c.proc.(i)
    ~demands:c.demands.(i) ~preemptive:c.preemptive.(i)

let tasks t = Array.init (n_tasks t) (task t)

let with_times t ~compute ~release ~deadline =
  let n = n_tasks t in
  if
    Array.length compute <> n || Array.length release <> n
    || Array.length deadline <> n
  then invalid_arg "App.with_times: columns of different lengths";
  let cols = { t.cols with compute; release; deadline } in
  check_tasks cols;
  { t with cols }

let graph t = t.graph
let preds t i = Dag.pred_ids t.graph i
let succs t i = Dag.succ_ids t.graph i

let message t ~src ~dst =
  match Dag.edge_weight t.graph ~src ~dst with
  | Some m -> m
  | None -> raise Not_found

let resource_set t = t.resource_set

let uses c i r = Task.demand_uses ~proc:c.proc.(i) ~demands:c.demands.(i) r

let units t i r =
  Task.demand_units ~proc:t.cols.proc.(i) ~demands:t.cols.demands.(i) r

let tasks_using t r =
  let c = t.cols in
  let acc = ref [] in
  for i = n_tasks t - 1 downto 0 do
    if uses c i r then acc := i :: !acc
  done;
  !acc

let total_work t r =
  List.fold_left (fun acc i -> acc + t.cols.compute.(i)) 0 (tasks_using t r)

let horizon t =
  Array.fold_left (fun acc (d : int) -> if d > acc then d else acc) 0
    t.cols.deadline

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
    let c = t.cols in
    let horizon = ref 0 and span = ref 0 and demand = ref 0 in
    for i = 0 to n_tasks t - 1 do
      let compute = c.compute.(i) in
      if c.deadline.(i) > !horizon then horizon := c.deadline.(i);
      span := add !span compute;
      demand := add !demand (mul (units 1 c.demands.(i)) compute)
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
  Dag.critical_path_length t.graph ~vertex_weight:(Array.get t.cols.compute)

let map_tasks t ~f =
  let n = n_tasks t in
  let tasks = Array.init n (fun i -> f (task t i)) in
  Array.iteri
    (fun i (task : Task.t) ->
      if task.Task.id <> i then invalid_arg "App.map_tasks: id changed")
    tasks;
  { t with cols = columns_of_tasks n (Array.get tasks) }

let to_dot t =
  Dag.to_dot ~name:"application"
    ~label:(fun i -> Format.asprintf "%a" Task.pp (task t i))
    t.graph

let pp ppf t =
  Format.fprintf ppf "@[<v>application: %d tasks, %d edges" (n_tasks t)
    (Dag.n_edges t.graph);
  for i = 0 to n_tasks t - 1 do
    Format.fprintf ppf "@,  %a" Task.pp (task t i)
  done;
  Format.fprintf ppf "@]"
