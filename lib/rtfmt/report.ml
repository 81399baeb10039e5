let windows_table (a : Rtlb.Analysis.t) =
  let t =
    Table.create [ "task"; "E"; "L"; "window"; "slack"; "critical" ]
  in
  let est = a.Rtlb.Analysis.windows.Rtlb.Windows.est in
  let lct = a.Rtlb.Analysis.windows.Rtlb.Windows.lct in
  let c = Rtlb.App.columns a.Rtlb.Analysis.app in
  Array.iteri
    (fun i name ->
      let window = lct.(i) - est.(i) in
      let slack = window - c.Rtlb.App.compute.(i) in
      Table.add_row t
        [
          name;
          string_of_int est.(i);
          string_of_int lct.(i);
          string_of_int window;
          string_of_int slack;
          (if slack <= 0 then "*" else "");
        ])
    c.Rtlb.App.names;
  t

let bounds_table (a : Rtlb.Analysis.t) =
  let t = Table.create [ "resource"; "LB"; "witness"; "demand"; "partition" ] in
  let name = Array.get (Rtlb.App.columns a.Rtlb.Analysis.app).Rtlb.App.names in
  List.iter
    (fun (b : Rtlb.Lower_bound.bound) ->
      let witness, demand =
        match b.Rtlb.Lower_bound.witness with
        | Some w ->
            ( Printf.sprintf "[%d, %d)" w.Rtlb.Lower_bound.w_t1
                w.Rtlb.Lower_bound.w_t2,
              string_of_int w.Rtlb.Lower_bound.w_theta )
        | None -> ("-", "-")
      in
      Table.add_row t
        [
          b.Rtlb.Lower_bound.resource;
          string_of_int b.Rtlb.Lower_bound.lb;
          witness;
          demand;
          String.concat " < "
            (List.map
               (fun block ->
                 "{" ^ String.concat "," (List.map name block) ^ "}")
               b.Rtlb.Lower_bound.partition.Rtlb.Partition.blocks);
        ])
    a.Rtlb.Analysis.bounds;
  t

let render ?demand_windows (a : Rtlb.Analysis.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "lower-bound analysis: %d tasks, %d edges\n"
       (Rtlb.App.n_tasks a.Rtlb.Analysis.app)
       (Dag.n_edges (Rtlb.App.graph a.Rtlb.Analysis.app)));
  (match
     Rtlb.Windows.feasible a.Rtlb.Analysis.app a.Rtlb.Analysis.windows
   with
  | Ok () -> ()
  | Error e ->
      Buffer.add_string buf ("INFEASIBLE on this system model: " ^ e ^ "\n"));
  Buffer.add_string buf "\n-- task windows --\n";
  Buffer.add_string buf (Table.render (windows_table a));
  Buffer.add_string buf "\n-- resource bounds --\n";
  Buffer.add_string buf (Table.render (bounds_table a));
  Buffer.add_string buf "\n-- cost --\n";
  Buffer.add_string buf (Format.asprintf "%a@." Rtlb.Cost.pp_outcome a.Rtlb.Analysis.cost);
  Buffer.add_string buf "\n-- criticality --\n";
  Buffer.add_string buf
    (Rtlb.Slack.render a.Rtlb.Analysis.app (Rtlb.Slack.analyse a));
  (match demand_windows with
  | None -> ()
  | Some w ->
      Buffer.add_string buf "\n-- demand profiles --\n";
      List.iter
        (fun (b : Rtlb.Lower_bound.bound) ->
          if b.Rtlb.Lower_bound.lb > 0 then
            Buffer.add_string buf
              (Rtlb.Demand.render
                 (Rtlb.Demand.sliding
                    ~est:a.Rtlb.Analysis.windows.Rtlb.Windows.est
                    ~lct:a.Rtlb.Analysis.windows.Rtlb.Windows.lct
                    a.Rtlb.Analysis.app
                    ~resource:b.Rtlb.Lower_bound.resource ~window:w)))
        a.Rtlb.Analysis.bounds);
  Buffer.contents buf
