type sample = {
  s_factor : float;
  s_feasible : bool;
  s_bounds : (string * int) list;
  s_shared_cost : int option;
  s_partial : bool;
}

let scale_deadlines app ~factor =
  if Float.is_nan factor || factor <= 0.0 then
    invalid_arg "Sensitivity.scale_deadlines: factor <= 0";
  (* Scale in exact rational arithmetic.  The obvious
     [ceil (factor *. float deadline)] inherits the binary representation
     error of the factor: 0.1 *. 30.0 is 3.0000000000000004, which ceils
     to 4 — a deadline a third looser than asked for.  [Rat.approx]
     recovers the rational the factor literal denotes (1/10), and the
     integer ceil of [num * D / den] is then exact. *)
  let ratio = Rat.approx factor in
  App.map_tasks app ~f:(fun task ->
      let scaled = Rat.ceil (Rat.mul ratio (Rat.of_int task.Task.deadline)) in
      let floor_ = task.Task.release + task.Task.compute in
      Task.with_deadline task (max scaled floor_))

let sample_of factor analysis =
  {
    s_factor = factor;
    s_feasible = not (Analysis.is_infeasible analysis);
    s_bounds =
      List.map
        (fun (b : Lower_bound.bound) ->
          (b.Lower_bound.resource, b.Lower_bound.lb))
        analysis.Analysis.bounds;
    s_shared_cost =
      (match analysis.Analysis.cost with
      | Cost.Shared_cost { s_cost; _ } -> Some s_cost
      | Cost.Dedicated_cost d -> Some d.Cost.d_cost
      | Cost.No_feasible_system _ -> None);
    s_partial = Analysis.is_partial analysis;
  }

let deadline_sweep_cold ?pool ?deadline_ns ?tracer system app ~factors =
  let tr = Option.value tracer ~default:Rtlb_obs.Tracer.null in
  Rtlb_par.Pool.map_list ?pool
    (fun factor ->
      let scaled = scale_deadlines app ~factor in
      (* Analysis.run is not handed the pool here: a factor's analysis
         already runs inside a pool task, where a nested submit would
         degrade to inline execution anyway.  The deadline is global to
         the sweep, so once the budget is gone the remaining factors
         return immediately with trivial (but valid) partial bounds. *)
      let analyse () = Analysis.run ?deadline_ns ?tracer system scaled in
      let analysis =
        if Rtlb_obs.Tracer.enabled tr then
          Rtlb_obs.Tracer.with_span tr
            (Printf.sprintf "factor %g" factor)
            analyse
        else analyse ()
      in
      sample_of factor analysis)
    factors

let deadline_sweep ?pool ?deadline_ns ?tracer ?on_sample ?resume system app
    ~factors =
  let tr = Option.value tracer ~default:Rtlb_obs.Tracer.null in
  (* The factors of a sweep differ from the base application in deadlines
     only, so each one is an incremental query: the EST values are
     computed once (merge traces are not kept, as in Analysis.run), the
     LCT pass re-runs over the dirty ancestor cones, and blocks whose
     windows a factor leaves unchanged
     (common near 1.0, where the ceil quantises small perturbations away)
     are served from the cache.  The handle is built without the tracer —
     the observable sweep trace stays one ["factor F"] span per factor,
     each containing exactly one ["analyze"], as in the cold sweep; the
     pool now parallelises within each query instead of across factors.
     Samples are bit-identical to {!deadline_sweep_cold} whenever no
     budget expires (qcheck-asserted).

     The handle is lazy so a fully-resumed sweep (every factor served by
     [?resume]) skips the base analysis entirely.  Resumed samples come
     back verbatim — a resumed sweep is bit-identical to an
     uninterrupted one because each factor's sample is a pure function
     of the instance and the factor, both pinned by the checkpoint's
     fingerprint and hex-float keys.  Partial samples are never resumed:
     a budget-cut sample is valid but below the exhaustive value, so the
     retry recomputes it. *)
  let handle = lazy (Incremental.create ?pool ?deadline_ns system app) in
  List.map
    (fun factor ->
      match Option.bind resume (fun r -> r factor) with
      | Some sample when not sample.s_partial ->
          Rtlb_obs.Tracer.add tr Rtlb_obs.Tracer.Resumes 1;
          sample
      | _ ->
          let scaled = scale_deadlines app ~factor in
          let analyse () =
            Incremental.query ?pool ?deadline_ns ?tracer (Lazy.force handle)
              scaled
          in
          let analysis =
            if Rtlb_obs.Tracer.enabled tr then
              Rtlb_obs.Tracer.with_span tr
                (Printf.sprintf "factor %g" factor)
                analyse
            else analyse ()
          in
          let sample = sample_of factor analysis in
          Option.iter (fun f -> f sample) on_sample;
          sample)
    factors

let render samples =
  let buf = Buffer.create 256 in
  let resources =
    match samples with [] -> [] | s :: _ -> List.map fst s.s_bounds
  in
  Buffer.add_string buf "factor   feasible  cost";
  List.iter (fun r -> Buffer.add_string buf (Printf.sprintf "  LB_%s" r)) resources;
  Buffer.add_char buf '\n';
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "%6.2f   %-8b  %s" s.s_factor s.s_feasible
           (match s.s_shared_cost with
           | Some c -> Printf.sprintf "%4d" c
           | None -> "   -"));
      List.iter
        (fun (r, lb) ->
          Buffer.add_string buf
            (Printf.sprintf "  %*d" (String.length r + 3) lb))
        s.s_bounds;
      if s.s_partial then Buffer.add_string buf "  (partial)";
      Buffer.add_char buf '\n')
    samples;
  Buffer.contents buf
