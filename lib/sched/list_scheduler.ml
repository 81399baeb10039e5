type failure = {
  f_task : int;
  f_start : int;
  f_deadline : int;
  f_partial : Schedule.entry list;
}

(* Mutable placement state: a timeline per exclusive unit. *)
type state = {
  host_lines : (Schedule.host * Timeline.t ref) list;
  resource_lines : (string * Timeline.t ref array) list;
      (* shared model only: one timeline per unit of each resource *)
}

let make_state platform =
  match platform with
  | Platform.Shared_platform { procs; resources } ->
      let host_lines =
        List.concat_map
          (fun (p, count) ->
            List.init count (fun k ->
                (Schedule.On_proc (p, k), ref Timeline.empty)))
          procs
      in
      let resource_lines =
        List.map
          (fun (r, count) ->
            (r, Array.init count (fun _ -> ref Timeline.empty)))
          resources
      in
      { host_lines; resource_lines }
  | Platform.Dedicated_platform nodes ->
      let host_lines =
        List.concat_map
          (fun ((nt : Rtlb.System.node_type), count) ->
            List.init count (fun k ->
                (Schedule.On_node (nt.Rtlb.System.nt_name, k), ref Timeline.empty)))
          nodes
      in
      { host_lines; resource_lines = [] }

let capable_hosts platform state (task : Rtlb.Task.t) =
  match platform with
  | Platform.Shared_platform _ ->
      List.filter
        (fun (h, _) ->
          match h with
          | Schedule.On_proc (p, _) -> String.equal p task.Rtlb.Task.proc
          | Schedule.On_node _ -> false)
        state.host_lines
  | Platform.Dedicated_platform nodes ->
      let capable_types =
        List.filter_map
          (fun ((nt : Rtlb.System.node_type), _) ->
            if Rtlb.System.node_can_host nt task then
              Some nt.Rtlb.System.nt_name
            else None)
          nodes
      in
      List.filter
        (fun (h, _) ->
          match h with
          | Schedule.On_node (name, _) -> List.mem name capable_types
          | Schedule.On_proc _ -> false)
        state.host_lines

(* Earliest start >= [from] at which [line] and, for every demand (r, k),
   k distinct units of r are simultaneously free for [duration]; also
   returns the chosen units.  Terminates because the candidate start
   never decreases and is bounded by the last busy end among all
   timelines. *)
let earliest_joint_start state line ~needs ~from ~duration =
  let rec settle s =
    let s_host = Timeline.earliest_gap !line ~from:s ~duration in
    let s', units =
      List.fold_left
        (fun (acc, units) (r, k) ->
          let pool = List.assoc r state.resource_lines in
          let gaps =
            Array.to_list
              (Array.mapi
                 (fun u tl ->
                   (Timeline.earliest_gap !tl ~from:acc ~duration, u))
                 pool)
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

let default_priority app i = (Rtlb.App.columns app).Rtlb.App.deadline.(i)

let run ?priority app platform =
  let priority =
    match priority with Some p -> p | None -> default_priority app
  in
  let n = Rtlb.App.n_tasks app in
  let state = make_state platform in
  let placed : Schedule.entry option array = Array.make n None in
  let exception Missed of failure in
  try
    (* Fail early when some task has no capable host, or needs a shared
       resource with zero units on the platform. *)
    Array.iter
      (fun (task : Rtlb.Task.t) ->
        let resources_available =
          match platform with
          | Platform.Dedicated_platform _ -> true
          | Platform.Shared_platform _ ->
              List.for_all
                (fun (r, k) ->
                  match List.assoc_opt r state.resource_lines with
                  | Some pool -> Array.length pool >= k
                  | None -> false)
                task.Rtlb.Task.demands
        in
        if capable_hosts platform state task = [] || not resources_available
        then
          raise
            (Missed
               {
                 f_task = task.Rtlb.Task.id;
                 f_start = max_int;
                 f_deadline = task.Rtlb.Task.deadline;
                 f_partial = [];
               }))
      (Rtlb.App.tasks app);
    for _round = 1 to n do
      (* Highest-priority task whose predecessors are all placed. *)
      let candidate = ref (-1) in
      for i = n - 1 downto 0 do
        if
          placed.(i) = None
          && List.for_all
               (fun p -> placed.(p) <> None)
               (Rtlb.App.preds app i)
        then
          if !candidate = -1 || priority i <= priority !candidate then
            candidate := i
      done;
      let i = !candidate in
      let task = Rtlb.App.task app i in
      let needs =
        match platform with
        | Platform.Shared_platform _ -> task.Rtlb.Task.demands
        | Platform.Dedicated_platform _ -> []
      in
      (* Best (start, host, units) over capable hosts; equal start times
         prefer the least-loaded host so early slots stay open for tasks
         that need them (a busier host would otherwise win by list
         order). *)
      let load line =
        List.fold_left
          (fun acc (b, e) -> acc + e - b)
          0
          (Timeline.busy_intervals !line)
      in
      let best = ref None in
      List.iter
        (fun (host, line) ->
          let ready =
            List.fold_left
              (fun acc p ->
                let pe = Option.get placed.(p) in
                let arrival =
                  Schedule.finish app pe
                  + (if Schedule.host_equal pe.Schedule.e_host host then 0
                     else Rtlb.App.message app ~src:p ~dst:i)
                in
                max acc arrival)
              task.Rtlb.Task.release (Rtlb.App.preds app i)
          in
          let start, units =
            earliest_joint_start state line ~needs ~from:ready
              ~duration:task.Rtlb.Task.compute
          in
          match !best with
          | Some (s, l, _, _, _) when (s, l) <= (start, load line) -> ()
          | _ -> best := Some (start, load line, host, line, units))
        (capable_hosts platform state task);
      let start, _, host, line, units = Option.get !best in
      if start + task.Rtlb.Task.compute > task.Rtlb.Task.deadline then
        raise
          (Missed
             {
               f_task = i;
               f_start = start;
               f_deadline = task.Rtlb.Task.deadline;
               f_partial =
                 Array.to_list placed |> List.filter_map Fun.id
                 |> List.sort (fun a b ->
                        compare a.Schedule.e_start b.Schedule.e_start);
             });
      let finish = start + task.Rtlb.Task.compute in
      line := Timeline.add !line ~start ~finish;
      List.iter
        (fun (r, u) ->
          let pool = List.assoc r state.resource_lines in
          pool.(u) := Timeline.add !(pool.(u)) ~start ~finish)
        units;
      placed.(i) <-
        Some
          {
            Schedule.e_task = i;
            e_start = start;
            e_host = host;
            e_resource_units = units;
          }
    done;
    Ok (Array.map Option.get placed)
  with Missed f -> Error f

let feasible ?priority app platform =
  match run ?priority app platform with
  | Error _ -> false
  | Ok schedule -> (
      match Schedule.check app platform schedule with
      | Ok () -> true
      | Error _ -> false)

let lct_priority system app =
  let windows = Rtlb.Est_lct.compute system app in
  fun i -> windows.Rtlb.Est_lct.lct.(i)
