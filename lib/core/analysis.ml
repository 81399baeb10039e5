type t = {
  app : App.t;
  system : System.t;
  windows : Est_lct.t;
  bounds : Lower_bound.bound list;
  cost : Cost.outcome;
  completeness : Lower_bound.completeness;
}

let check_input system app =
  Result.bind (System.validate_for system app) (fun () -> App.check_range app)

let run ?prune ?pool ?deadline_ns ?tracer system app =
  let tr = Option.value tracer ~default:Rtlb_obs.Tracer.null in
  Rtlb_obs.Tracer.with_span tr "analyze" (fun () ->
      (match check_input system app with
      | Ok () -> ()
      | Error e -> invalid_arg ("Analysis.run: " ^ e));
      let packed =
        Rtlb_obs.Tracer.with_span tr "pack" (fun () -> Soa.pack system app)
      in
      let windows =
        Rtlb_obs.Tracer.with_span tr "est_lct" (fun () ->
            Soa.compute_windows packed;
            Soa.windows packed)
      in
      let bounds, completeness =
        Rtlb_obs.Tracer.with_span tr "lower_bounds" (fun () ->
            Soa.bounds ?prune ?pool ?deadline_ns ~tracer:tr packed)
      in
      let cost =
        Rtlb_obs.Tracer.with_span tr "cost" (fun () ->
            Cost.compute system app bounds)
      in
      { app; system; windows; bounds; cost; completeness })

let is_partial t =
  match t.completeness with `Partial _ -> true | `Complete -> false

let coverage t =
  match t.completeness with `Partial f -> f | `Complete -> 1.0

let bound_for t r =
  match
    List.find_opt
      (fun (b : Lower_bound.bound) -> String.equal b.Lower_bound.resource r)
      t.bounds
  with
  | Some b -> b.Lower_bound.lb
  | None -> raise Not_found

let total_processors t =
  let procs =
    Array.to_list (App.tasks t.app)
    |> List.map (fun (task : Task.t) -> task.Task.proc)
    |> List.sort_uniq String.compare
  in
  List.fold_left (fun acc p -> acc + bound_for t p) 0 procs

let is_infeasible t =
  match Est_lct.feasible_windows t.app t.windows with
  | Ok () -> false
  | Error _ -> true

let pp ppf t =
  let open Format in
  fprintf ppf "@[<v>== lower-bound analysis ==@,%a@,@,-- task windows --"
    System.pp t.system;
  Array.iteri
    (fun i (task : Task.t) ->
      fprintf ppf "@,%-6s E=%-4d L=%-4d" task.Task.name
        t.windows.Est_lct.est.(i)
        t.windows.Est_lct.lct.(i))
    (App.tasks t.app);
  fprintf ppf "@,@,-- bounds --";
  (match t.completeness with
  | `Complete -> ()
  | `Partial f ->
      fprintf ppf
        "@,PARTIAL: time budget exhausted after %.1f%% of the interval \
         scans; bounds are valid but may be below the exhaustive values"
        (100.0 *. f));
  let names i = (App.task t.app i).Task.name in
  List.iter
    (fun (b : Lower_bound.bound) ->
      fprintf ppf "@,%a@,   partition: %a" Lower_bound.pp_bound b
        (Partition.pp ~names) b.Lower_bound.partition)
    t.bounds;
  fprintf ppf "@,@,-- cost --@,%a@]" Cost.pp_outcome t.cost
