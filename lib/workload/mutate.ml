let rebuild ~tasks ~edges = Rtlb.App.make ~tasks ~edges

let tasks_of app = Array.to_list (Rtlb.App.tasks app)

let edges_of app =
  Dag.fold_edges (Rtlb.App.graph app) ~init:[] ~f:(fun acc ~src ~dst m ->
      (src, dst, m) :: acc)

let with_task app ~task ~f =
  let tasks =
    List.map
      (fun (t : Rtlb.Task.t) -> if t.Rtlb.Task.id = task then f t else t)
      (tasks_of app)
  in
  rebuild ~tasks ~edges:(edges_of app)

let tighten_deadline app ~task ~by =
  let t = Rtlb.App.task app task in
  let deadline = t.Rtlb.Task.deadline - by in
  if t.Rtlb.Task.release + t.Rtlb.Task.compute > deadline then None
  else
    Some
      (with_task app ~task ~f:(fun t -> Rtlb.Task.with_deadline t deadline))

let relax_deadline app ~task ~by =
  let t = Rtlb.App.task app task in
  with_task app ~task ~f:(fun x ->
      Rtlb.Task.with_deadline x (t.Rtlb.Task.deadline + by))

let delay_release app ~task ~by =
  let t = Rtlb.App.task app task in
  let release = t.Rtlb.Task.release + by in
  if release + t.Rtlb.Task.compute > t.Rtlb.Task.deadline then None
  else
    Some
      (with_task app ~task ~f:(fun x ->
           Rtlb.Task.make ~id:x.Rtlb.Task.id ~name:x.Rtlb.Task.name
             ~compute:x.Rtlb.Task.compute ~release
             ~deadline:x.Rtlb.Task.deadline ~proc:x.Rtlb.Task.proc
             ~resources:x.Rtlb.Task.resources
             ~preemptive:x.Rtlb.Task.preemptive ()))

let scale_messages app ~percent =
  let scale m =
    if percent >= 100 then ((m * percent) + 99) / 100 else m * percent / 100
  in
  rebuild ~tasks:(tasks_of app)
    ~edges:(List.map (fun (s, d, m) -> (s, d, scale m)) (edges_of app))

let add_edge app ~src ~dst ~message =
  if src = dst then None
  else if Dag.edge_weight (Rtlb.App.graph app) ~src ~dst <> None then None
  else if (Dag.reachable (Rtlb.App.graph app) dst).(src) then None
  else
    Some
      (rebuild ~tasks:(tasks_of app)
         ~edges:((src, dst, message) :: edges_of app))

let drop_edge app ~src ~dst =
  if Dag.edge_weight (Rtlb.App.graph app) ~src ~dst = None then None
  else
    Some
      (rebuild ~tasks:(tasks_of app)
         ~edges:
           (List.filter (fun (s, d, _) -> (s, d) <> (src, dst)) (edges_of app)))

let zero_communication app =
  rebuild ~tasks:(tasks_of app)
    ~edges:(List.map (fun (s, d, _) -> (s, d, 0)) (edges_of app))
