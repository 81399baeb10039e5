let validate app m =
  ignore app;
  if m <= 0 then invalid_arg "Makespan: m <= 0"

let greedy app ~m =
  validate app m;
  let graph = Rtlb.App.graph app in
  let free = Array.make m 0 in
  let compute = (Rtlb.App.columns app).Rtlb.App.compute in
  let finish = Array.make (Rtlb.App.n_tasks app) 0 in
  Array.iter
    (fun i ->
      let ready =
        List.fold_left
          (fun acc p -> max acc finish.(p))
          0 (Dag.pred_ids graph i)
      in
      (* earliest-available machine *)
      let best = ref 0 in
      for k = 1 to m - 1 do
        if free.(k) < free.(!best) then best := k
      done;
      let start = max ready free.(!best) in
      let f = start + compute.(i) in
      free.(!best) <- f;
      finish.(i) <- f)
    (Dag.topological_order graph);
  Array.fold_left max 0 finish

let minimum ?(node_limit = 500_000) app ~m =
  validate app m;
  let n = Rtlb.App.n_tasks app in
  let graph = Rtlb.App.graph app in
  let compute = (Rtlb.App.columns app).Rtlb.App.compute in
  let total = Array.fold_left ( + ) 0 compute in
  let cp = Rtlb.App.critical_time app in
  let lower = max cp (if total = 0 then 0 else (total + m - 1) / m) in
  let best = ref (greedy app ~m) in
  let budget = ref node_limit in
  (* Remaining critical path from each task: admissible completion bound. *)
  let tail = Array.make n 0 in
  Array.iter
    (fun i ->
      let t =
        List.fold_left (fun acc j -> max acc tail.(j)) 0 (Dag.succ_ids graph i)
      in
      tail.(i) <- t + compute.(i))
    (Dag.reverse_topological_order graph);
  let finish = Array.make n (-1) in
  (* DFS over (ready task, machine) choices — the active-schedule search:
     semi-active timing per machine sequence, every ready task branched,
     machines deduplicated by availability.  Active schedules contain an
     optimal one for makespan, so the search is exact within budget. *)
  let free = Array.make m 0 in
  let exception Out_of_budget in
  let rec place placed current_makespan =
    if !budget <= 0 then raise Out_of_budget;
    decr budget;
    if placed = n then best := min !best current_makespan
    else
      for i = 0 to n - 1 do
        if
          finish.(i) < 0
          && List.for_all (fun p -> finish.(p) >= 0) (Dag.pred_ids graph i)
        then begin
          let ready =
            List.fold_left
              (fun acc p -> max acc finish.(p))
              0 (Dag.pred_ids graph i)
          in
          (* deduplicate machines with identical availability *)
          let tried = ref [] in
          for k = 0 to m - 1 do
            if not (List.mem free.(k) !tried) then begin
              tried := free.(k) :: !tried;
              let start = max ready free.(k) in
              let f = start + compute.(i) in
              (* admissible: the chain below [i] still has to run *)
              let optimistic = max current_makespan (start + tail.(i)) in
              if optimistic < !best then begin
                let saved = free.(k) in
                free.(k) <- f;
                finish.(i) <- f;
                place (placed + 1) (max current_makespan f);
                free.(k) <- saved;
                finish.(i) <- -1
              end
            end
          done
        end
      done
  in
  match place 0 0 with
  | () -> Some (max lower !best)
  | exception Out_of_budget -> None
