type task_slack = { ts_task : int; ts_window : int; ts_slack : int }

type report = {
  r_slacks : task_slack list;
  r_critical : int list;
  r_bottlenecks : (string * Lower_bound.witness) list;
}

let criticality ~est ~lct app i =
  let window = lct.(i) - est.(i) in
  {
    ts_task = i;
    ts_window = window;
    ts_slack = window - (App.columns app).App.compute.(i);
  }

let analyse (a : Analysis.t) =
  let est = a.Analysis.windows.Windows.est in
  let lct = a.Analysis.windows.Windows.lct in
  let slacks =
    List.init (App.n_tasks a.Analysis.app) (fun i ->
        criticality ~est ~lct a.Analysis.app i)
    |> List.sort (fun x y -> compare (x.ts_slack, x.ts_task) (y.ts_slack, y.ts_task))
  in
  {
    r_slacks = slacks;
    r_critical =
      List.filter_map
        (fun s -> if s.ts_slack <= 0 then Some s.ts_task else None)
        slacks;
    r_bottlenecks =
      List.filter_map
        (fun (b : Lower_bound.bound) ->
          Option.map
            (fun w -> (b.Lower_bound.resource, w))
            b.Lower_bound.witness)
        a.Analysis.bounds;
  }

let render app r =
  let buf = Buffer.create 256 in
  let name = Array.get (App.columns app).App.names in
  Buffer.add_string buf "critical tasks (zero slack): ";
  Buffer.add_string buf
    (if r.r_critical = [] then "none\n"
     else String.concat ", " (List.map name r.r_critical) ^ "\n");
  Buffer.add_string buf "tightest windows:\n";
  List.iteri
    (fun k s ->
      if k < 5 then
        Buffer.add_string buf
          (Printf.sprintf "  %-8s window %3d, slack %3d\n" (name s.ts_task)
             s.ts_window s.ts_slack))
    r.r_slacks;
  Buffer.add_string buf "bottleneck epochs:\n";
  List.iter
    (fun (resource, (w : Lower_bound.witness)) ->
      Buffer.add_string buf
        (Printf.sprintf "  %-8s [%d, %d) carries demand %d\n" resource
           w.Lower_bound.w_t1 w.Lower_bound.w_t2 w.Lower_bound.w_theta))
    r.r_bottlenecks;
  Buffer.contents buf
