type host = On_proc of string * int | On_node of string * int

type entry = {
  e_task : int;
  e_start : int;
  e_host : host;
  e_resource_units : (string * int) list;
}

type t = entry array

let finish app e =
  e.e_start + (Rtlb.App.columns app).Rtlb.App.compute.(e.e_task)

let host_equal a b =
  match (a, b) with
  | On_proc (p1, i1), On_proc (p2, i2) -> String.equal p1 p2 && i1 = i2
  | On_node (n1, i1), On_node (n2, i2) -> String.equal n1 n2 && i1 = i2
  | On_proc _, On_node _ | On_node _, On_proc _ -> false

let makespan app t =
  Array.fold_left (fun acc e -> max acc (finish app e)) 0 t

let overlaps app a b =
  let s1 = a.e_start and f1 = finish app a in
  let s2 = b.e_start and f2 = finish app b in
  max s1 s2 < min f1 f2

let check app platform t =
  let problems = ref [] in
  let err fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let n = Rtlb.App.n_tasks app in
  if Array.length t <> n then
    err "schedule has %d entries for %d tasks" (Array.length t) n
  else begin
    Array.iteri
      (fun i e ->
        let task = Rtlb.App.task app i in
        if e.e_task <> i then err "entry %d describes task %d" i e.e_task;
        if e.e_start < task.Rtlb.Task.release then
          err "%s starts at %d before release %d" task.Rtlb.Task.name
            e.e_start task.Rtlb.Task.release;
        if finish app e > task.Rtlb.Task.deadline then
          err "%s finishes at %d after deadline %d" task.Rtlb.Task.name
            (finish app e) task.Rtlb.Task.deadline;
        (* Host validity. *)
        (match (platform, e.e_host) with
        | Platform.Shared_platform { procs; _ }, On_proc (p, k) ->
            if not (String.equal p task.Rtlb.Task.proc) then
              err "%s placed on processor type %s, needs %s"
                task.Rtlb.Task.name p task.Rtlb.Task.proc;
            let avail =
              Option.value ~default:0 (List.assoc_opt p procs)
            in
            if k < 0 || k >= avail then
              err "%s placed on %s#%d but only %d exist"
                task.Rtlb.Task.name p k avail
        | Platform.Dedicated_platform nodes, On_node (name, k) -> (
            match
              List.find_opt
                (fun ((nt : Rtlb.System.node_type), _) ->
                  String.equal nt.Rtlb.System.nt_name name)
                nodes
            with
            | None -> err "%s placed on unknown node type %s" task.Rtlb.Task.name name
            | Some (nt, count) ->
                if k < 0 || k >= count then
                  err "%s placed on %s#%d but only %d exist"
                    task.Rtlb.Task.name name k count;
                if not (Rtlb.System.node_can_host nt task) then
                  err "node type %s cannot host %s" name task.Rtlb.Task.name)
        | Platform.Shared_platform _, On_node _ ->
            err "%s on a node in a shared platform" task.Rtlb.Task.name
        | Platform.Dedicated_platform _, On_proc _ ->
            err "%s on a bare processor in a dedicated platform"
              task.Rtlb.Task.name);
        (* Shared-model resource units held. *)
        match platform with
        | Platform.Shared_platform { resources; _ } ->
            List.iter
              (fun (r, k) ->
                let held =
                  List.filter_map
                    (fun (r', u) -> if String.equal r r' then Some u else None)
                    e.e_resource_units
                in
                if List.length (List.sort_uniq compare held) <> k then
                  err "%s holds %d unit(s) of %s, needs %d"
                    task.Rtlb.Task.name
                    (List.length (List.sort_uniq compare held))
                    r k;
                let avail =
                  Option.value ~default:0 (List.assoc_opt r resources)
                in
                List.iter
                  (fun u ->
                    if u < 0 || u >= avail then
                      err "%s holds %s#%d but only %d exist"
                        task.Rtlb.Task.name r u avail)
                  held)
              task.Rtlb.Task.demands
        | Platform.Dedicated_platform _ ->
            if e.e_resource_units <> [] then
              err "%s holds shared resource units in a dedicated platform"
                task.Rtlb.Task.name)
      t;
    (* Mutual exclusion on hosts and resource units. *)
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if overlaps app t.(i) t.(j) then begin
          if host_equal t.(i).e_host t.(j).e_host then
            err "tasks %d and %d overlap on the same host" i j;
          List.iter
            (fun (r, u) ->
              if
                List.exists
                  (fun (r', u') -> String.equal r r' && u = u')
                  t.(j).e_resource_units
              then
                err "tasks %d and %d overlap on resource unit %s#%d" i j r u)
            t.(i).e_resource_units
        end
      done
    done;
    (* Precedence and communication. *)
    Dag.fold_edges (Rtlb.App.graph app) ~init:() ~f:(fun () ~src ~dst m ->
        let gap =
          if host_equal t.(src).e_host t.(dst).e_host then 0 else m
        in
        if t.(dst).e_start < finish app t.(src) + gap then
          err "task %d starts at %d before message from %d arrives at %d" dst
            t.(dst).e_start src
            (finish app t.(src) + gap))
  end;
  if !problems = [] then Ok () else Error (List.rev !problems)

let pp app ppf t =
  Format.fprintf ppf "@[<v>";
  Array.iter
    (fun e ->
      let task = Rtlb.App.task app e.e_task in
      Format.fprintf ppf "%-6s [%d, %d) on %s@," task.Rtlb.Task.name e.e_start
        (finish app e)
        (match e.e_host with
        | On_proc (p, k) -> Printf.sprintf "%s#%d" p k
        | On_node (nm, k) -> Printf.sprintf "%s#%d" nm k))
    t;
  Format.fprintf ppf "@]"
