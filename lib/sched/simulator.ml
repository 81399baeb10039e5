type outcome = {
  o_finished : bool;
  o_makespan : int;
  o_first_miss : int option;
  o_schedule : Schedule.t option;
}

let wcet app i = (Rtlb.App.columns app).Rtlb.App.compute.(i)

let scaled app ~percent i =
  let c = (Rtlb.App.columns app).Rtlb.App.compute.(i) in
  max 0 (min c (((c * percent) + 99) / 100))

(* Host inventory as mutable "free at time" state is not enough: online
   non-preemptive dispatch only ever starts work at the current instant,
   so it suffices to track, per host/unit, whether it is busy and until
   when. *)
type unit_state = { mutable busy_until : int }

let run_online ?priority ~actual app platform =
  let n = Rtlb.App.n_tasks app in
  let tasks = Rtlb.App.tasks app in
  let priority =
    match priority with
    | Some p -> p
    | None -> fun i -> (Rtlb.App.columns app).Rtlb.App.deadline.(i)
  in
  begin
    (* validate actual times *)
    for i = 0 to n - 1 do
      let a = actual i in
      if a < 0 || a > wcet app i then
        invalid_arg "Simulator.run_online: actual time outside [0, WCET]"
    done
  end;
  let hosts =
      match platform with
      | Platform.Shared_platform { procs; _ } ->
          List.concat_map
            (fun (p, count) ->
              List.init count (fun k ->
                  (Schedule.On_proc (p, k), { busy_until = 0 })))
            procs
      | Platform.Dedicated_platform nodes ->
          List.concat_map
            (fun ((nt : Rtlb.System.node_type), count) ->
              List.init count (fun k ->
                  ( Schedule.On_node (nt.Rtlb.System.nt_name, k),
                    { busy_until = 0 } )))
            nodes
    in
    let pools =
      match platform with
      | Platform.Shared_platform { resources; _ } ->
          List.map
            (fun (r, count) ->
              (r, Array.init count (fun _ -> { busy_until = 0 })))
            resources
      | Platform.Dedicated_platform _ -> []
    in
    let capable (task : Rtlb.Task.t) host =
      match (platform, host) with
      | Platform.Shared_platform _, Schedule.On_proc (p, _) ->
          String.equal p task.Rtlb.Task.proc
      | Platform.Dedicated_platform nodes, Schedule.On_node (name, _) ->
          List.exists
            (fun ((nt : Rtlb.System.node_type), _) ->
              String.equal nt.Rtlb.System.nt_name name
              && Rtlb.System.node_can_host nt task)
            nodes
      | _ -> false
    in
    let entry : Schedule.entry option array = Array.make n None in
    let finish_time = Array.make n max_int in
    let first_miss = ref None in
    (* ready time of a task, computable once all preds are dispatched *)
    let arrival i host =
      List.fold_left
        (fun acc p ->
          match entry.(p) with
          | None -> max_int
          | Some pe ->
              let m =
                if Schedule.host_equal pe.Schedule.e_host host then 0
                else Rtlb.App.message app ~src:p ~dst:i
              in
              max acc (finish_time.(p) + m))
        (Rtlb.App.columns app).Rtlb.App.release.(i)
        (Rtlb.App.preds app i)
    in
    let unscheduled () =
      List.filter (fun i -> entry.(i) = None) (List.init n Fun.id)
    in
    let now = ref 0 in
    let progress = ref true in
    while unscheduled () <> [] && !progress do
      progress := false;
      (* tasks whose predecessors are all dispatched and whose messages
         have arrived for at least one free capable host at [now] *)
      let ready =
        unscheduled ()
        |> List.filter (fun i ->
               List.for_all (fun p -> entry.(p) <> None) (Rtlb.App.preds app i))
        |> List.sort (fun a b -> compare (priority a, a) (priority b, b))
      in
      let dispatched_one = ref false in
      List.iter
        (fun i ->
          if entry.(i) = None then begin
            let task = tasks.(i) in
            let free_hosts =
              List.filter
                (fun (h, st) ->
                  capable task h && st.busy_until <= !now
                  && arrival i h <= !now)
                hosts
            in
            let resource_units () =
              (* k free units of each needed resource, shared model only *)
              match platform with
              | Platform.Dedicated_platform _ -> Some []
              | Platform.Shared_platform _ ->
                  List.fold_left
                    (fun acc (r, k) ->
                      match acc with
                      | None -> None
                      | Some chosen -> (
                          match List.assoc_opt r pools with
                          | None -> None
                          | Some units ->
                              let free = ref [] in
                              Array.iteri
                                (fun u st ->
                                  if
                                    st.busy_until <= !now
                                    && List.length !free < k
                                  then free := (r, u) :: !free)
                                units;
                              if List.length !free = k then
                                Some (!free @ chosen)
                              else None))
                    (Some []) task.Rtlb.Task.demands
            in
            match (free_hosts, resource_units ()) with
            | (host, st) :: _, Some units ->
                let d = actual i in
                st.busy_until <- !now + d;
                List.iter
                  (fun (r, u) ->
                    (List.assoc r pools).(u).busy_until <- !now + d)
                  units;
                entry.(i) <-
                  Some
                    {
                      Schedule.e_task = i;
                      e_start = !now;
                      e_host = host;
                      e_resource_units = units;
                    };
                finish_time.(i) <- !now + d;
                if !now + d > task.Rtlb.Task.deadline && !first_miss = None
                then first_miss := Some i;
                dispatched_one := true
            | _ -> ()
          end)
        ready;
      if !dispatched_one then progress := true
      else begin
        (* advance time to the next event: a host/unit freeing up or a
           message arriving *)
        let next = ref max_int in
        List.iter
          (fun (_, st) -> if st.busy_until > !now then next := min !next st.busy_until)
          hosts;
        List.iter
          (fun (_, units) ->
            Array.iter
              (fun st ->
                if st.busy_until > !now then next := min !next st.busy_until)
              units)
          pools;
        List.iter
          (fun i ->
            if
              entry.(i) = None
              && List.for_all (fun p -> entry.(p) <> None) (Rtlb.App.preds app i)
            then
              List.iter
                (fun (h, _) ->
                  if capable tasks.(i) h then begin
                    let a = arrival i h in
                    if a > !now && a < !next then next := a
                  end)
                hosts)
          (unscheduled ());
        if !next = max_int then progress := false
        else begin
          now := !next;
          progress := true
        end
      end
    done;
    let all_done = unscheduled () = [] in
    let makespan =
      Array.fold_left
        (fun acc f -> if f = max_int then acc else max acc f)
        0 finish_time
    in
    {
      o_finished = all_done && !first_miss = None;
      o_makespan = makespan;
      o_first_miss = !first_miss;
      o_schedule =
        (if all_done then Some (Array.map Option.get entry) else None);
    }
