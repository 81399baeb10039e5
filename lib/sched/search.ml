type report = { platform : Platform.t; tested : int }

let dimensions app =
  let tasks = Array.to_list (Rtlb.App.tasks app) in
  let procs =
    List.map (fun (t : Rtlb.Task.t) -> t.Rtlb.Task.proc) tasks
    |> List.sort_uniq String.compare
  in
  let resources =
    List.concat_map (fun (t : Rtlb.Task.t) -> t.Rtlb.Task.resources) tasks
    |> List.sort_uniq String.compare
  in
  (procs, resources)

let min_shared_platform ?priority ?(max_extra = 32) app =
  let procs, resources = dimensions app in
  let dims = Array.of_list (procs @ resources) in
  let n_procs = List.length procs in
  let start = Array.make (Array.length dims) 1 in
  let platform_of counts =
    let assoc lo hi =
      List.init (hi - lo) (fun k -> (dims.(lo + k), counts.(lo + k)))
    in
    Platform.shared ~procs:(assoc 0 n_procs)
      ~resources:(assoc n_procs (Array.length dims))
  in
  (* Uniform-cost search on total added units. *)
  let module Key = struct
    type t = int array

    let compare = compare
  end in
  let module Visited = Set.Make (Key) in
  let queue = ref [ (0, start) ] (* sorted by added units *) in
  let visited = ref Visited.empty in
  let tested = ref 0 in
  let rec loop () =
    match !queue with
    | [] -> None
    | (extra, counts) :: rest ->
        queue := rest;
        if Visited.mem counts !visited then loop ()
        else begin
          visited := Visited.add counts !visited;
          incr tested;
          if List_scheduler.feasible ?priority app (platform_of counts) then
            Some { platform = platform_of counts; tested = !tested }
          else if extra >= max_extra then loop ()
          else begin
            Array.iteri
              (fun d _ ->
                let next = Array.copy counts in
                next.(d) <- next.(d) + 1;
                queue :=
                  List.merge
                    (fun (a, _) (b, _) -> compare a b)
                    !queue
                    [ (extra + 1, next) ])
              counts;
            loop ()
          end
        end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Backtracking feasibility search                                     *)
(* ------------------------------------------------------------------ *)

type fstate = {
  hosts : (Schedule.host * Timeline.t) list;
  pools : (string * Timeline.t list) list;
  placed : Schedule.entry option array;
}

let capable_hosts platform (task : Rtlb.Task.t) hosts =
  match platform with
  | Platform.Shared_platform _ ->
      List.filter
        (fun (h, _) ->
          match h with
          | Schedule.On_proc (p, _) -> String.equal p task.Rtlb.Task.proc
          | Schedule.On_node _ -> false)
        hosts
  | Platform.Dedicated_platform nodes ->
      let ok name =
        List.exists
          (fun ((nt : Rtlb.System.node_type), _) ->
            String.equal nt.Rtlb.System.nt_name name
            && Rtlb.System.node_can_host nt task)
          nodes
      in
      List.filter
        (fun (h, _) ->
          match h with
          | Schedule.On_node (name, _) -> ok name
          | Schedule.On_proc _ -> false)
        hosts

let initial_state app platform =
  let hosts =
    match platform with
    | Platform.Shared_platform { procs; _ } ->
        List.concat_map
          (fun (p, count) ->
            List.init count (fun k -> (Schedule.On_proc (p, k), Timeline.empty)))
          procs
    | Platform.Dedicated_platform nodes ->
        List.concat_map
          (fun ((nt : Rtlb.System.node_type), count) ->
            List.init count (fun k ->
                (Schedule.On_node (nt.Rtlb.System.nt_name, k), Timeline.empty)))
          nodes
  in
  let pools =
    match platform with
    | Platform.Shared_platform { resources; _ } ->
        List.map
          (fun (r, count) -> (r, List.init count (fun _ -> Timeline.empty)))
          resources
    | Platform.Dedicated_platform _ -> []
  in
  { hosts; pools; placed = Array.make (Rtlb.App.n_tasks app) None }

(* Earliest joint start on functional state; returns (start, unit choices
   covering every (resource, k) demand). *)
let joint_start state line ~needs ~from ~duration =
  let rec settle s =
    let s_host = Timeline.earliest_gap line ~from:s ~duration in
    let s', units =
      List.fold_left
        (fun (acc, units) (r, k) ->
          let pool = List.assoc r state.pools in
          let gaps =
            List.mapi
              (fun u tl -> (Timeline.earliest_gap tl ~from:acc ~duration, u))
              pool
            |> List.sort compare
          in
          let rec take n worst chosen = function
            | (g, u) :: rest when n > 0 ->
                take (n - 1) (max worst g) ((r, u) :: chosen) rest
            | _ -> (worst, chosen)
          in
          let t_k, chosen = take k acc [] gaps in
          (max acc t_k, chosen @ units))
        (s_host, []) needs
    in
    if s' = s_host then (s_host, List.rev units) else settle s'
  in
  settle from

let commit state (task : Rtlb.Task.t) host units start =
  let i = task.Rtlb.Task.id in
  let finish = start + task.Rtlb.Task.compute in
  let hosts =
    List.map
      (fun (h, tl) ->
        if Schedule.host_equal h host then (h, Timeline.add tl ~start ~finish)
        else (h, tl))
      state.hosts
  in
  let pools =
    List.map
      (fun (r, tls) ->
        match List.assoc_opt r units with
        | None -> (r, tls)
        | Some u ->
            ( r,
              List.mapi
                (fun idx tl ->
                  if idx = u then Timeline.add tl ~start ~finish else tl)
                tls ))
      state.pools
  in
  let placed = Array.copy state.placed in
  placed.(i) <-
    Some
      { Schedule.e_task = i; e_start = start; e_host = host; e_resource_units = units };
  { hosts; pools; placed }

let backtracking_feasible ?(node_limit = 200_000) app platform =
  let n = Rtlb.App.n_tasks app in
  let budget = ref node_limit in
  let state0 = initial_state app platform in
  (* Ensure every task has some capable host and non-empty resource
     pools. *)
  let unhostable (task : Rtlb.Task.t) =
    capable_hosts platform task state0.hosts = []
    ||
    match platform with
    | Platform.Dedicated_platform _ -> false
    | Platform.Shared_platform _ ->
        List.exists
          (fun (r, k) ->
            match List.assoc_opt r state0.pools with
            | Some units -> List.length units < k
            | None -> true)
          task.Rtlb.Task.demands
  in
  let tasks = Rtlb.App.tasks app in
  if Array.exists unhostable tasks then None
  else
    let rec dfs state count =
      if count = n then
        Some (Array.map Option.get state.placed)
      else if !budget <= 0 then None
      else begin
        decr budget;
        let ready =
          List.init n Fun.id
          |> List.filter (fun i ->
                 state.placed.(i) = None
                 && List.for_all
                      (fun p -> state.placed.(p) <> None)
                      (Rtlb.App.preds app i))
          |> List.sort (fun a b ->
                 compare tasks.(a).Rtlb.Task.deadline
                   tasks.(b).Rtlb.Task.deadline)
        in
        let try_task i =
          let task = tasks.(i) in
          let needs =
            match platform with
            | Platform.Shared_platform _ -> task.Rtlb.Task.demands
            | Platform.Dedicated_platform _ -> []
          in
          (* Prune symmetric host instances: same type, same timeline. *)
          let candidates =
            capable_hosts platform task state.hosts
            |> List.fold_left
                 (fun acc (h, tl) ->
                   let type_of = function
                     | Schedule.On_proc (p, _) -> "p:" ^ p
                     | Schedule.On_node (nm, _) -> "n:" ^ nm
                   in
                   if
                     List.exists
                       (fun (h', tl') ->
                         String.equal (type_of h) (type_of h') && tl = tl')
                       acc
                   then acc
                   else (h, tl) :: acc)
                 []
            |> List.rev
          in
          let placements =
            List.filter_map
              (fun (host, line) ->
                let ready_time =
                  List.fold_left
                    (fun acc p ->
                      let pe = Option.get state.placed.(p) in
                      let arrival =
                        Schedule.finish app pe
                        + (if Schedule.host_equal pe.Schedule.e_host host
                           then 0
                           else Rtlb.App.message app ~src:p ~dst:i)
                      in
                      max acc arrival)
                    task.Rtlb.Task.release (Rtlb.App.preds app i)
                in
                let start, units =
                  joint_start state line ~needs ~from:ready_time
                    ~duration:task.Rtlb.Task.compute
                in
                if start + task.Rtlb.Task.compute > task.Rtlb.Task.deadline
                then None
                else
                  let load =
                    List.fold_left
                      (fun acc (b, e) -> acc + e - b)
                      0
                      (Timeline.busy_intervals line)
                  in
                  Some (start, load, host, units))
              candidates
            (* Earliest start first (least-loaded host on ties) so the
               first descent reproduces the strongest greedy. *)
            |> List.sort (fun (s1, l1, _, _) (s2, l2, _, _) ->
                   compare (s1, l1) (s2, l2))
          in
          List.find_map
            (fun (start, _, host, units) ->
              dfs (commit state task host units start) (count + 1))
            placements
        in
        List.find_map try_task ready
      end
    in
    match dfs state0 0 with
    | Some schedule -> (
        match Schedule.check app platform schedule with
        | Ok () -> Some schedule
        | Error _ -> None)
    | None -> None

(* Smallest unit count of [resource] at which a schedule is found; the
   greedy list scheduler is tried first, then the backtracking search. *)
let min_units_for ?priority app ~resource ~generous =
  let procs, resources = dimensions app in
  let cap = max 1 (Rtlb.App.n_tasks app) in
  let build k =
    let count d = if String.equal d resource then k else generous d in
    Platform.shared
      ~procs:(List.map (fun p -> (p, count p)) procs)
      ~resources:(List.map (fun r -> (r, count r)) resources)
  in
  let uses_resource = List.mem resource procs || List.mem resource resources in
  if not uses_resource then None
  else
    let rec try_k k =
      if k > cap then None
      else if List_scheduler.feasible ?priority app (build k) then Some k
      else if backtracking_feasible ~node_limit:50_000 app (build k) <> None
      then Some k
      else try_k (k + 1)
    in
    try_k 1

