(* Characterisation experiments (DESIGN.md E1-E6).  The paper's evaluation
   is a single worked example; these sweeps exercise its claims across the
   constraint space and time the implementation. *)

let mean l =
  if l = [] then 0.0
  else List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let instances ~shapes ~ccrs ~laxities ~seeds ~n ~two_procs ~resource_density
    ~preemptive_fraction =
  List.concat_map
    (fun shape ->
      List.concat_map
        (fun ccr ->
          List.concat_map
            (fun laxity ->
              List.map
                (fun seed ->
                  {
                    Workload.Gen.default with
                    Workload.Gen.seed;
                    n_tasks = n;
                    shape;
                    ccr;
                    laxity;
                    proc_types =
                      (if two_procs then [ ("P1", 0.6); ("P2", 0.4) ]
                       else [ ("P1", 1.0) ]);
                    resource_types = [ ("r1", resource_density) ];
                    preemptive_fraction;
                  })
                seeds)
            laxities)
        ccrs)
    shapes

(* ------------------------------------------------------------------ *)
(* E1: bound tightness against achievable platforms                    *)
(* ------------------------------------------------------------------ *)

let tightness () =
  Bench_util.section
    "E1: tightness - LB_r vs smallest platform the schedulers achieve";
  Printf.printf
    "For each instance: per-resource lower bound vs the smallest unit count\n\
     at which list scheduling (helped by backtracking search) succeeds with\n\
     every other dimension generous.  gap = achieved - LB >= 0; the bound\n\
     is sound, so a negative gap would be a bug (none can appear).\n";
  let t =
    Rtfmt.Table.create
      [ "ccr"; "laxity"; "instances"; "mean LB"; "mean achieved"; "mean gap"; "tight %" ]
  in
  List.iter
    (fun (ccr, laxity) ->
      let configs =
        instances
          ~shapes:
            [
              Workload.Gen.Layered { layers = 3; density = 0.5 };
              Workload.Gen.Series_parallel;
              Workload.Gen.Out_tree;
            ]
          ~ccrs:[ ccr ] ~laxities:[ laxity ]
          ~seeds:[ 1; 2; 3; 4; 5 ]
          ~n:10 ~two_procs:false ~resource_density:0.3 ~preemptive_fraction:0.0
      in
      let lbs = ref [] and achieved = ref [] and gaps = ref [] in
      let tight = ref 0 and total = ref 0 in
      List.iter
        (fun config ->
          let app = Workload.Gen.generate config in
          let system = Workload.Gen.shared_system config in
          let a = Rtlb.Analysis.run system app in
          List.iter
            (fun (b : Rtlb.Lower_bound.bound) ->
              let r = b.Rtlb.Lower_bound.resource in
              let lb = b.Rtlb.Lower_bound.lb in
              if lb > 0 then
                let generous _ = Rtlb.App.n_tasks app in
                match Sched.Search.min_units_for app ~resource:r ~generous with
                | None -> ()
                | Some k ->
                    incr total;
                    if k = lb then incr tight;
                    lbs := float_of_int lb :: !lbs;
                    achieved := float_of_int k :: !achieved;
                    gaps := float_of_int (k - lb) :: !gaps)
            a.Rtlb.Analysis.bounds)
        configs;
      Rtfmt.Table.add_row t
        [
          Printf.sprintf "%.1f" ccr;
          Printf.sprintf "%.1f" laxity;
          string_of_int !total;
          Printf.sprintf "%.2f" (mean !lbs);
          Printf.sprintf "%.2f" (mean !achieved);
          Printf.sprintf "%.2f" (mean !gaps);
          Printf.sprintf "%.0f%%" (100.0 *. float_of_int !tight /. float_of_int (max 1 !total));
        ])
    [ (0.0, 1.0); (0.0, 1.2); (0.0, 2.0); (1.0, 1.0); (1.0, 1.2); (1.0, 2.0); (3.0, 1.0); (3.0, 1.5) ];
  Rtfmt.Table.print t

(* ------------------------------------------------------------------ *)
(* E2: comparison with Fernandez-Bussell and Al-Mohammed                *)
(* ------------------------------------------------------------------ *)

let strip i ~keep_messages =
  let tasks =
    Array.to_list (Rtlb.App.tasks i)
    |> List.map (fun (t : Rtlb.Task.t) ->
           Rtlb.Task.make ~id:t.Rtlb.Task.id ~compute:t.Rtlb.Task.compute
             ~deadline:1_000_000 ~proc:"P" ())
  in
  let edges =
    Dag.fold_edges (Rtlb.App.graph i) ~init:[] ~f:(fun acc ~src ~dst m ->
        (src, dst, if keep_messages then m else 0) :: acc)
  in
  Rtlb.App.make ~tasks ~edges

let baselines () =
  Bench_util.section "E2: prior-art baselines on their own model";
  Printf.printf
    "Single processor type, no resources, deadlines at Al-Mohammed's omega.\n\
     With ccr = 0 all three analyses coincide; with communication the\n\
     single-merge (AM) and comm-blind (FB) window arguments overestimate\n\
     mandatory demand, so their numbers can exceed the sound bound.\n";
  let t =
    Rtfmt.Table.create
      [ "ccr"; "instances"; "FB"; "AM"; "ours"; "ours=FB=AM"; "AM>ours"; "FB>ours" ]
  in
  List.iter
    (fun ccr ->
      let configs =
        instances
          ~shapes:
            [
              Workload.Gen.Layered { layers = 3; density = 0.5 };
              Workload.Gen.Fork_join { width = 4 };
              Workload.Gen.In_tree;
            ]
          ~ccrs:[ ccr ] ~laxities:[ 1.0 ]
          ~seeds:[ 1; 2; 3; 4; 5; 6 ]
          ~n:12 ~two_procs:false ~resource_density:0.0 ~preemptive_fraction:0.0
      in
      let fb_l = ref [] and am_l = ref [] and ours_l = ref [] in
      let agree = ref 0 and am_hi = ref 0 and fb_hi = ref 0 in
      List.iter
        (fun config ->
          let app = strip (Workload.Gen.generate config) ~keep_messages:true in
          let am = Baselines.Al_mohammed.analyse app in
          let omega = am.Baselines.Al_mohammed.omega in
          let fb =
            Baselines.Fernandez_bussell.analyse ~omega app
          in
          let ours_app =
            Rtlb.App.map_tasks app ~f:(fun task ->
                Rtlb.Task.with_deadline task omega)
          in
          let system = Rtlb.System.shared ~costs:[ ("P", 1) ] in
          let a = Rtlb.Analysis.run system ours_app in
          let ours = Rtlb.Analysis.bound_for a "P" in
          fb_l := float_of_int fb.Baselines.Fernandez_bussell.bound :: !fb_l;
          am_l := float_of_int am.Baselines.Al_mohammed.bound :: !am_l;
          ours_l := float_of_int ours :: !ours_l;
          if
            fb.Baselines.Fernandez_bussell.bound = ours
            && am.Baselines.Al_mohammed.bound = ours
          then incr agree;
          if am.Baselines.Al_mohammed.bound > ours then incr am_hi;
          if fb.Baselines.Fernandez_bussell.bound > ours then incr fb_hi)
        configs;
      let n = List.length !ours_l in
      Rtfmt.Table.add_row t
        [
          Printf.sprintf "%.1f" ccr;
          string_of_int n;
          Printf.sprintf "%.2f" (mean !fb_l);
          Printf.sprintf "%.2f" (mean !am_l);
          Printf.sprintf "%.2f" (mean !ours_l);
          string_of_int !agree;
          string_of_int !am_hi;
          string_of_int !fb_hi;
        ])
    [ 0.0; 0.5; 1.0; 3.0 ];
  Rtfmt.Table.print t

(* ------------------------------------------------------------------ *)
(* E3: synthesis search pruning                                        *)
(* ------------------------------------------------------------------ *)

let synthesis () =
  Bench_util.section "E3: lower-bound pruning in architectural synthesis";
  Printf.printf
    "Uniform-cost search for the cheapest feasible dedicated system, with\n\
     and without the admissible LB filter (identical optima by construction).\n";
  let t =
    Rtfmt.Table.create
      [
        "tasks"; "instances"; "cost ok"; "sched calls (LB)"; "sched calls (no LB)";
        "saved"; "mean ms (LB)"; "mean ms (no LB)";
      ]
  in
  List.iter
    (fun n ->
      let configs =
        instances
          ~shapes:[ Workload.Gen.Layered { layers = 3; density = 0.5 } ]
          ~ccrs:[ 0.5 ] ~laxities:[ 1.5 ]
          ~seeds:[ 1; 2; 3; 4 ]
          ~n ~two_procs:true ~resource_density:0.4 ~preemptive_fraction:0.0
      in
      let with_calls = ref 0 and without_calls = ref 0 in
      let ok = ref 0 and total = ref 0 in
      let ms_with = ref [] and ms_without = ref [] in
      List.iter
        (fun config ->
          let app = Workload.Gen.generate config in
          let system = Workload.Gen.dedicated_system config in
          let a, ta =
            Bench_util.time_ms (fun () ->
                Synth.search ~use_lower_bounds:true ~system app)
          in
          let b, tb =
            Bench_util.time_ms (fun () ->
                Synth.search ~use_lower_bounds:false ~system app)
          in
          incr total;
          (match (a.Synth.found, b.Synth.found) with
          | Some (_, ca), Some (_, cb) when ca = cb -> incr ok
          | None, None -> incr ok
          | _ -> ());
          with_calls := !with_calls + a.Synth.sched_calls;
          without_calls := !without_calls + b.Synth.sched_calls;
          ms_with := ta :: !ms_with;
          ms_without := tb :: !ms_without)
        configs;
      Rtfmt.Table.add_row t
        [
          string_of_int n;
          string_of_int !total;
          Printf.sprintf "%d/%d" !ok !total;
          string_of_int !with_calls;
          string_of_int !without_calls;
          Printf.sprintf "%.1fx"
            (float_of_int !without_calls /. float_of_int (max 1 !with_calls));
          Printf.sprintf "%.1f" (mean !ms_with);
          Printf.sprintf "%.1f" (mean !ms_without);
        ])
    [ 6; 9; 12 ];
  Rtfmt.Table.print t

(* ------------------------------------------------------------------ *)
(* E4: preemptive vs non-preemptive overlaps                           *)
(* ------------------------------------------------------------------ *)

let preemption () =
  Bench_util.section "E4: Theorem 3 vs Theorem 4 - preemptability and the bound";
  Printf.printf
    "Identical instances analysed with all tasks preemptive (Theorem 3\n\
     overlaps) and all non-preemptive (Theorem 4).  Theorem 4 dominates\n\
     pointwise, so per-resource bounds can only grow without preemption.\n";
  let t =
    Rtfmt.Table.create
      [ "laxity"; "bounds"; "mean LB (preempt)"; "mean LB (non-preempt)"; "np > p" ]
  in
  List.iter
    (fun laxity ->
      let configs =
        instances
          ~shapes:
            [
              Workload.Gen.Layered { layers = 4; density = 0.5 };
              Workload.Gen.Independent;
            ]
          ~ccrs:[ 0.5 ] ~laxities:[ laxity ]
          ~seeds:[ 1; 2; 3; 4; 5; 6; 7; 8 ]
          ~n:14 ~two_procs:false ~resource_density:0.3 ~preemptive_fraction:0.0
      in
      let p_l = ref [] and np_l = ref [] and strict = ref 0 in
      List.iter
        (fun config ->
          let base = Workload.Gen.generate config in
          let system = Workload.Gen.shared_system config in
          let flip v app =
            Rtlb.App.map_tasks app ~f:(fun task ->
                Rtlb.Task.with_preemptive task v)
          in
          let ap = Rtlb.Analysis.run system (flip true base) in
          let anp = Rtlb.Analysis.run system (flip false base) in
          List.iter2
            (fun (bp : Rtlb.Lower_bound.bound) (bnp : Rtlb.Lower_bound.bound) ->
              p_l := float_of_int bp.Rtlb.Lower_bound.lb :: !p_l;
              np_l := float_of_int bnp.Rtlb.Lower_bound.lb :: !np_l;
              if bnp.Rtlb.Lower_bound.lb > bp.Rtlb.Lower_bound.lb then
                incr strict)
            ap.Rtlb.Analysis.bounds anp.Rtlb.Analysis.bounds)
        configs;
      Rtfmt.Table.add_row t
        [
          Printf.sprintf "%.2f" laxity;
          string_of_int (List.length !p_l);
          Printf.sprintf "%.2f" (mean !p_l);
          Printf.sprintf "%.2f" (mean !np_l);
          string_of_int !strict;
        ])
    [ 1.0; 1.05; 1.2; 2.0 ];
  Rtfmt.Table.print t;
  Bench_util.subsection
    "staggered windows, where the two theorems provably part ways";
  Printf.printf
    "outer tasks span [0,12] with C=8; inner tasks span [2,10] with C=6.\n\
     On [2,10] a non-preemptive outer task is pinned for 6 units, a\n\
     preemptive one for only 4 (it splits around the interval).\n";
  let t = Rtfmt.Table.create [ "outer"; "inner"; "LB preempt"; "LB non-preempt" ] in
  List.iter
    (fun (outer, inner) ->
      let lb preemptive =
        let tasks =
          List.init (outer + inner) (fun id ->
              if id < outer then
                Rtlb.Task.make ~id ~compute:8 ~deadline:12 ~proc:"P"
                  ~preemptive ()
              else
                Rtlb.Task.make ~id ~compute:6 ~release:2 ~deadline:10 ~proc:"P"
                  ~preemptive ())
        in
        let app = Rtlb.App.make ~tasks ~edges:[] in
        let a = Rtlb.Analysis.run (Rtlb.System.shared ~costs:[ ("P", 1) ]) app in
        Rtlb.Analysis.bound_for a "P"
      in
      Rtfmt.Table.add_int_row t (string_of_int outer)
        [ inner; lb true; lb false ])
    [ (2, 1); (4, 2); (6, 3); (8, 4) ];
  Rtfmt.Table.print t

(* ------------------------------------------------------------------ *)
(* E5: the partitioning payoff (Theorem 5)                             *)
(* ------------------------------------------------------------------ *)

(* A frame-structured application: [frames] frames of [per_frame]
   independent tasks, frame f released at f*40 with deadline (f+1)*40 — the
   Section 5 partition recovers exactly the frames. *)
let framed ~frames ~per_frame =
  let tasks =
    List.init (frames * per_frame) (fun id ->
        let f = id / per_frame in
        Rtlb.Task.make ~id ~compute:(3 + (id mod 5)) ~release:(40 * f)
          ~deadline:(40 * (f + 1))
          ~proc:"P" ())
  in
  Rtlb.App.make ~tasks ~edges:[]

let partitioning () =
  Bench_util.section "E5: partitioning payoff (Theorem 5)";
  let system = Rtlb.System.shared ~costs:[ ("P", 1) ] in
  let equal = ref true in
  List.iter
    (fun frames ->
      let app = framed ~frames ~per_frame:8 in
      let w = Rtlb.Est_lct.compute system app in
      let est = w.Rtlb.Est_lct.est and lct = w.Rtlb.Est_lct.lct in
      let a = Rtlb.Lower_bound.for_resource ~est ~lct app "P" in
      let b = Rtlb.Lower_bound.for_resource_unpartitioned ~est ~lct app "P" in
      if a.Rtlb.Lower_bound.lb <> b.Rtlb.Lower_bound.lb then equal := false)
    [ 2; 4; 8 ];
  Printf.printf "bound equality (partitioned = monolithic): %b\n" !equal;
  Bench_util.subsection "wall time of the Section 6 scan (bechamel)";
  let bench_pair frames =
    let app = framed ~frames ~per_frame:8 in
    let w = Rtlb.Est_lct.compute system app in
    let est = w.Rtlb.Est_lct.est and lct = w.Rtlb.Est_lct.lct in
    [
      ( Printf.sprintf "partitioned   n=%3d" (frames * 8),
        fun () -> ignore (Rtlb.Lower_bound.for_resource ~est ~lct app "P") );
      ( Printf.sprintf "monolithic    n=%3d" (frames * 8),
        fun () ->
          ignore (Rtlb.Lower_bound.for_resource_unpartitioned ~est ~lct app "P")
      );
    ]
  in
  let results = Bench_util.bechamel_ns (List.concat_map bench_pair [ 2; 4; 8 ]) in
  let t = Rtfmt.Table.create [ "scan"; "time/run" ] in
  List.iter
    (fun (nm, ns) -> Rtfmt.Table.add_row t [ nm; Bench_util.pp_ns ns ])
    results;
  Rtfmt.Table.print t

(* ------------------------------------------------------------------ *)
(* E6: scalability of the full analysis                                *)
(* ------------------------------------------------------------------ *)

let scaling () =
  Bench_util.section "E6: analysis wall time vs application size";
  Bench_util.subsection "stage micro-benchmarks (n = 40 layered instance)";
  let cfg40 =
    {
      Workload.Gen.default with
      Workload.Gen.n_tasks = 40;
      shape = Workload.Gen.Layered { layers = 5; density = 0.4 };
      seed = 11;
    }
  in
  let app40 = Workload.Gen.generate cfg40 in
  let sys40 = Workload.Gen.shared_system cfg40 in
  let w40 = Rtlb.Est_lct.compute sys40 app40 in
  let est40 = w40.Rtlb.Est_lct.est and lct40 = w40.Rtlb.Est_lct.lct in
  let ilp =
    Lp.Problem.of_ints ~sense:Lp.Problem.Minimize ~objective:[| 10; 6; 7 |]
      [
        ([| 1; 1; 0 |], Lp.Problem.Ge, 3);
        ([| 1; 0; 0 |], Lp.Problem.Ge, 2);
        ([| 0; 0; 1 |], Lp.Problem.Ge, 2);
      ]
  in
  let micro =
    Bench_util.bechamel_ns
      [
        ("est/lct windows", fun () -> ignore (Rtlb.Est_lct.compute sys40 app40));
        ( "bound scan (all resources)",
          fun () -> ignore (Rtlb.Lower_bound.all ~est:est40 ~lct:lct40 app40) );
        ("paper ILP (simplex+b&b)", fun () -> ignore (Lp.Ilp.solve ilp));
      ]
  in
  let mt = Rtfmt.Table.create [ "stage"; "time/run" ] in
  List.iter
    (fun (nm, ns) -> Rtfmt.Table.add_row mt [ nm; Bench_util.pp_ns ns ])
    micro;
  Rtfmt.Table.print mt;
  Bench_util.subsection "end-to-end analysis";
  let bench_for n =
    let config =
      {
        Workload.Gen.default with
        Workload.Gen.n_tasks = n;
        shape = Workload.Gen.Layered { layers = 5; density = 0.4 };
        seed = 11;
      }
    in
    let app = Workload.Gen.generate config in
    let system = Workload.Gen.shared_system config in
    ( Printf.sprintf "analysis n=%3d" n,
      fun () -> ignore (Rtlb.Analysis.run system app) )
  in
  let results = Bench_util.bechamel_ns (List.map bench_for [ 10; 20; 40; 80 ]) in
  let t = Rtfmt.Table.create [ "instance"; "time/run" ] in
  List.iter
    (fun (nm, ns) -> Rtfmt.Table.add_row t [ nm; Bench_util.pp_ns ns ])
    results;
  Rtfmt.Table.print t



(* ------------------------------------------------------------------ *)
(* E7: candidate-point ablation                                        *)
(* ------------------------------------------------------------------ *)

let point_policies () =
  Bench_util.section "E7: candidate-point ablation (the LB' weakening)";
  Printf.printf
    "The paper evaluates the density bound over finitely many interval\n\
     endpoints (task ESTs/LCTs) and notes LB' <= LB.  Adding each task's\n\
     earliest-finish/latest-start points can only raise the evaluated\n\
     bound, at more scan cost.  How often does it matter?\n";
  let t =
    Rtfmt.Table.create
      [ "laxity"; "bounds"; "improved by enrichment"; "mean LB"; "mean LB+" ]
  in
  List.iter
    (fun laxity ->
      let configs =
        instances
          ~shapes:
            [
              Workload.Gen.Layered { layers = 4; density = 0.5 };
              Workload.Gen.Independent;
              Workload.Gen.Series_parallel;
            ]
          ~ccrs:[ 0.5 ] ~laxities:[ laxity ]
          ~seeds:[ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
          ~n:14 ~two_procs:false ~resource_density:0.3 ~preemptive_fraction:0.0
      in
      let base_l = ref [] and rich_l = ref [] and improved = ref 0 in
      List.iter
        (fun config ->
          let app = Workload.Gen.generate config in
          let system = Workload.Gen.shared_system config in
          let w = Rtlb.Est_lct.compute system app in
          let est = w.Rtlb.Est_lct.est and lct = w.Rtlb.Est_lct.lct in
          List.iter
            (fun r ->
              let b = Rtlb.Lower_bound.for_resource ~est ~lct app r in
              let b' =
                Rtlb.Lower_bound.for_resource ~policy:`Enriched ~est ~lct app r
              in
              base_l := float_of_int b.Rtlb.Lower_bound.lb :: !base_l;
              rich_l := float_of_int b'.Rtlb.Lower_bound.lb :: !rich_l;
              if b'.Rtlb.Lower_bound.lb > b.Rtlb.Lower_bound.lb then
                incr improved)
            (Rtlb.App.resource_set app))
        configs;
      Rtfmt.Table.add_row t
        [
          Printf.sprintf "%.2f" laxity;
          string_of_int (List.length !base_l);
          string_of_int !improved;
          Printf.sprintf "%.2f" (mean !base_l);
          Printf.sprintf "%.2f" (mean !rich_l);
        ])
    [ 1.0; 1.1; 1.3; 2.0 ];
  Rtfmt.Table.print t

(* ------------------------------------------------------------------ *)
(* E8: preemptive exactness - Theorem 3 vs Horn's flow vs EDF          *)
(* ------------------------------------------------------------------ *)

let preemptive_exactness () =
  Bench_util.section
    "E8: preemptive scheduling - Theorem 3 bound vs optimal (Horn) vs EDF";
  Printf.printf
    "Independent preemptive jobs.  Horn's max-flow test decides\n\
     feasibility exactly; global EDF is a heuristic.  The Theorem 3\n\
     bound is sound (never above Horn) but not always tight.\n";
  let t =
    Rtfmt.Table.create
      [ "laxity"; "instances"; "LB = Horn"; "LB < Horn"; "EDF needs > Horn" ]
  in
  List.iter
    (fun laxity ->
      let configs =
        instances
          ~shapes:[ Workload.Gen.Independent ]
          ~ccrs:[ 0.0 ] ~laxities:[ laxity ]
          ~seeds:(List.init 12 (fun k -> k + 1))
          ~n:10 ~two_procs:false ~resource_density:0.0
          ~preemptive_fraction:1.0
      in
      let tight = ref 0 and gap = ref 0 and edf_worse = ref 0 in
      List.iter
        (fun config ->
          let config = { config with Workload.Gen.release_spread = 0.5 } in
          let app = Workload.Gen.generate config in
          let jobs = Sched.Horn.of_app app in
          let lb = Sched.Horn.density_bound ~jobs in
          let opt = Sched.Horn.min_processors ~jobs in
          if lb = opt then incr tight else incr gap;
          let rec edf_min k =
            if k > Rtlb.App.n_tasks app then max_int
            else if Sched.Preemptive.feasible app ~procs:[ ("P1", k) ] then k
            else edf_min (k + 1)
          in
          if edf_min (max 1 opt) > opt then incr edf_worse)
        configs;
      Rtfmt.Table.add_row t
        [
          Printf.sprintf "%.2f" laxity;
          string_of_int (!tight + !gap);
          string_of_int !tight;
          string_of_int !gap;
          string_of_int !edf_worse;
        ])
    [ 1.0; 1.2; 1.5 ];
  Rtfmt.Table.print t;
  Bench_util.subsection "two structural gap families";
  Printf.printf
    "1. EDF anomaly: outers [0,12]x2 C=8 + inner [2,10] C=6 — feasible on 2\n\
     (Horn and Theorem 3 agree), global EDF needs 3.\n\
     2. Density gap: clusters [0,2]x2 + [8,10]x2 (C=2) + wide [0,10] C=8 —\n\
     Theorem 3 says 2, the true optimum is 3 (one job cannot use two\n\
     processors at once; the flow test captures this, interval density\n\
     cannot).\n";
  let jobs1 =
    [
      { Sched.Horn.j_release = 0; j_deadline = 12; j_compute = 8 };
      { Sched.Horn.j_release = 0; j_deadline = 12; j_compute = 8 };
      { Sched.Horn.j_release = 2; j_deadline = 10; j_compute = 6 };
    ]
  in
  let jobs2 =
    [
      { Sched.Horn.j_release = 0; j_deadline = 2; j_compute = 2 };
      { Sched.Horn.j_release = 0; j_deadline = 2; j_compute = 2 };
      { Sched.Horn.j_release = 8; j_deadline = 10; j_compute = 2 };
      { Sched.Horn.j_release = 8; j_deadline = 10; j_compute = 2 };
      { Sched.Horn.j_release = 0; j_deadline = 10; j_compute = 8 };
    ]
  in
  let t2 = Rtfmt.Table.create [ "family"; "Theorem 3 LB"; "Horn optimum" ] in
  Rtfmt.Table.add_row t2
    [
      "EDF anomaly";
      string_of_int (Sched.Horn.density_bound ~jobs:jobs1);
      string_of_int (Sched.Horn.min_processors ~jobs:jobs1);
    ];
  Rtfmt.Table.add_row t2
    [
      "density gap";
      string_of_int (Sched.Horn.density_bound ~jobs:jobs2);
      string_of_int (Sched.Horn.min_processors ~jobs:jobs2);
    ];
  Rtfmt.Table.print t2

(* ------------------------------------------------------------------ *)
(* E9: timing anomalies under online dispatch                          *)
(* ------------------------------------------------------------------ *)

let anomalies () =
  Bench_util.section
    "E9: timing anomalies - early completion vs online EDF dispatch";
  Printf.printf
    "Instances whose online EDF dispatch meets every deadline at WCET are\n\
     re-executed with all actual times scaled down.  Non-preemptive\n\
     multiprocessor dispatch is not sustainable (Graham 1969): running\n\
     FASTER can reorder the dispatch and miss a deadline.  The analysis'\n\
     bounds are WCET-based; this measures how treacherous the ground is.\n";
  let t =
    Rtfmt.Table.create
      [ "actual/WCET"; "instances"; "still meets"; "anomalous misses" ]
  in
  let configs =
    instances
      ~shapes:
        [
          Workload.Gen.Layered { layers = 3; density = 0.5 };
          Workload.Gen.Series_parallel;
          Workload.Gen.Fork_join { width = 3 };
        ]
      ~ccrs:[ 1.0 ] ~laxities:[ 1.1; 1.3 ]
      ~seeds:(List.init 10 (fun k -> k + 1))
      ~n:12 ~two_procs:false ~resource_density:0.3 ~preemptive_fraction:0.0
  in
  (* keep only instances schedulable online at WCET on their LB platform
     (+1 unit of headroom where needed) *)
  let base =
    List.filter_map
      (fun config ->
        let app = Workload.Gen.generate config in
        let system = Workload.Gen.shared_system config in
        let a = Rtlb.Analysis.run system app in
        let platform = Sched.Platform.of_bounds system app a.Rtlb.Analysis.bounds in
        let ok =
          (Sched.Simulator.run_online ~actual:(Sched.Simulator.wcet app) app
             platform)
            .Sched.Simulator.o_finished
        in
        if ok then Some (app, platform) else None)
      configs
  in
  List.iter
    (fun percent ->
      let still = ref 0 and miss = ref 0 in
      List.iter
        (fun (app, platform) ->
          let o =
            Sched.Simulator.run_online
              ~actual:(Sched.Simulator.scaled app ~percent)
              app platform
          in
          if o.Sched.Simulator.o_finished then incr still else incr miss)
        base;
      Rtfmt.Table.add_row t
        [
          Printf.sprintf "%d%%" percent;
          string_of_int (List.length base);
          string_of_int !still;
          string_of_int !miss;
        ])
    [ 100; 90; 75; 50 ];
  Rtfmt.Table.print t;
  Bench_util.subsection "a pinned anomaly (two early parents)";
  Printf.printf
    "P1, P2 (C=2, loose deadlines) each release a long successor (C=10);\n\
     Q arrives at t=2 with deadline 5.  At WCET the parents finish exactly\n\
     when Q arrives, EDF serves Q first, everything meets.  If the parents\n\
     finish after 1 unit instead, both processors are already committed to\n\
     the long successors when Q arrives: Q misses by 9.\n";
  let anomaly_app =
    Rtlb.App.make
      ~tasks:
        [
          Rtlb.Task.make ~id:0 ~name:"P1" ~compute:2 ~deadline:30 ~proc:"P" ();
          Rtlb.Task.make ~id:1 ~name:"P2" ~compute:2 ~deadline:30 ~proc:"P" ();
          Rtlb.Task.make ~id:2 ~name:"S1" ~compute:10 ~deadline:30 ~proc:"P" ();
          Rtlb.Task.make ~id:3 ~name:"S2" ~compute:10 ~deadline:30 ~proc:"P" ();
          Rtlb.Task.make ~id:4 ~name:"Q" ~compute:3 ~release:2 ~deadline:5
            ~proc:"P" ();
        ]
      ~edges:[ (0, 2, 0); (1, 3, 0) ]
  in
  let platform = Sched.Platform.shared ~procs:[ ("P", 2) ] ~resources:[] in
  let show label actual =
    let o = Sched.Simulator.run_online ~actual anomaly_app platform in
    Printf.printf "  %s: %s (makespan %d)\n" label
      (match o.Sched.Simulator.o_first_miss with
      | None -> "all deadlines met"
      | Some i ->
          Printf.sprintf "task %s MISSES"
            (Rtlb.App.task anomaly_app i).Rtlb.Task.name)
      o.Sched.Simulator.o_makespan
  in
  show "WCET execution     " (Sched.Simulator.wcet anomaly_app);
  show "parents finish at 1" (fun i -> if i <= 1 then 1 else Sched.Simulator.wcet anomaly_app i)


(* ------------------------------------------------------------------ *)
(* E10: time bounds - Jain-Rajaraman sandwich                          *)
(* ------------------------------------------------------------------ *)

let time_bounds () =
  Bench_util.section
    "E10: schedule-length bounds (Jain-Rajaraman model) vs the exact optimum";
  Printf.printf
    "Single processor type, no deadlines/resources/communication.  For\n\
     each m: the JR lower bound (max of work, critical-path and interval-\n\
     density bounds), the exact optimum (branch and bound), and Graham's\n\
     list-schedule upper bound.\n";
  let t =
    Rtfmt.Table.create
      [ "m"; "instances"; "lower = opt"; "mean lower"; "mean opt"; "mean upper" ]
  in
  let configs =
    instances
      ~shapes:
        [
          Workload.Gen.Layered { layers = 3; density = 0.5 };
          Workload.Gen.Out_tree;
          Workload.Gen.Series_parallel;
        ]
      ~ccrs:[ 0.0 ] ~laxities:[ 2.0 ]
      ~seeds:[ 1; 2; 3; 4; 5; 6 ]
      ~n:8 ~two_procs:false ~resource_density:0.0 ~preemptive_fraction:0.0
  in
  let apps =
    List.map
      (fun config ->
        let a = Workload.Gen.generate config in
        Rtlb.App.make
          ~tasks:
            (Array.to_list (Rtlb.App.tasks a)
            |> List.map (fun (t : Rtlb.Task.t) ->
                   Rtlb.Task.make ~id:t.Rtlb.Task.id ~compute:t.Rtlb.Task.compute
                     ~deadline:1_000_000 ~proc:"P" ()))
          ~edges:
            (Dag.fold_edges (Rtlb.App.graph a) ~init:[]
               ~f:(fun acc ~src ~dst _ -> (src, dst, 0) :: acc)))
      configs
  in
  List.iter
    (fun m ->
      let lows = ref [] and opts = ref [] and ups = ref [] in
      let tight = ref 0 and total = ref 0 in
      List.iter
        (fun app ->
          let jr = Baselines.Jain_rajaraman.analyse app ~m in
          match Sched.Makespan.minimum app ~m with
          | None -> ()
          | Some opt ->
              incr total;
              if jr.Baselines.Jain_rajaraman.jr_lower = opt then incr tight;
              lows := float_of_int jr.Baselines.Jain_rajaraman.jr_lower :: !lows;
              opts := float_of_int opt :: !opts;
              ups := float_of_int jr.Baselines.Jain_rajaraman.jr_upper :: !ups)
        apps;
      Rtfmt.Table.add_row t
        [
          string_of_int m;
          string_of_int !total;
          Printf.sprintf "%d/%d" !tight !total;
          Printf.sprintf "%.2f" (mean !lows);
          Printf.sprintf "%.2f" (mean !opts);
          Printf.sprintf "%.2f" (mean !ups);
        ])
    [ 1; 2; 3 ];
  Rtfmt.Table.print t


(* ------------------------------------------------------------------ *)
(* E11: priority policies at the bound-sized platform                  *)
(* ------------------------------------------------------------------ *)

let priorities () =
  Bench_util.section
    "E11: how much scheduler quality the bound-sized platform demands";
  Printf.printf
    "For each instance, the platform is sized exactly at the bounds; the\n\
     list scheduler then tries four priority policies.  Analysis-derived\n\
     keys (LCT, slack) see communication and co-location effects the raw\n\
     deadline cannot.\n";
  let configs =
    instances
      ~shapes:
        [
          Workload.Gen.Layered { layers = 3; density = 0.5 };
          Workload.Gen.Series_parallel;
          Workload.Gen.Fork_join { width = 3 };
          Workload.Gen.In_tree;
        ]
      ~ccrs:[ 0.5; 2.0 ] ~laxities:[ 1.1; 1.4 ]
      ~seeds:[ 1; 2; 3; 4; 5 ]
      ~n:12 ~two_procs:true ~resource_density:0.3 ~preemptive_fraction:0.0
  in
  let cases =
    List.map
      (fun config ->
        let app = Workload.Gen.generate config in
        let system = Workload.Gen.shared_system config in
        let a = Rtlb.Analysis.run system app in
        (app, system, Sched.Platform.of_bounds system app a.Rtlb.Analysis.bounds))
      configs
  in
  let t = Rtfmt.Table.create [ "policy"; "feasible on the floor"; "of" ] in
  List.iter
    (fun policy ->
      let ok = ref 0 in
      List.iter
        (fun (app, system, platform) ->
          let priority = Sched.Priorities.make policy system app in
          if Sched.List_scheduler.feasible ~priority app platform then incr ok)
        cases;
      Rtfmt.Table.add_row t
        [
          Sched.Priorities.name policy;
          string_of_int !ok;
          string_of_int (List.length cases);
        ])
    Sched.Priorities.all;
  Rtfmt.Table.print t

(* ------------------------------------------------------------------ *)
(* E12: parallel scaling of the analysis engine                        *)
(* ------------------------------------------------------------------ *)

(* Domain count requested via --jobs/RTLB_JOBS (bench/main.ml sets it);
   0 means "nothing beyond the standard 1/2/4/8 curve". *)
let jobs = ref 0

(* --resume (bench/main.ml sets it): reuse completed stages from the
   BENCH_*.ckpt.json checkpoint a previous killed run left behind.
   Each long experiment checkpoints after every stage — per workload
   for E12, per series for E13 — storing the rendered table row(s) next
   to the JSON fragment, so a resumed run replays finished stages
   verbatim (identical tables, identical final JSON) and computes only
   the rest.  Checkpoints are deleted when the experiment completes. *)
let resume = ref false

let str_row cells = Rtfmt.Json.List (List.map (fun c -> Rtfmt.Json.Str c) cells)

let row_cells = function
  | Rtfmt.Json.List l ->
      List.map (function Rtfmt.Json.Str s -> s | _ -> "") l
  | _ -> []

let load_checkpoint ~kind ~fingerprint file =
  let fresh () = Rtfmt.Checkpoint.create ~kind ~fingerprint in
  if not !resume then fresh ()
  else
    match Rtfmt.Checkpoint.load file with
    | Ok None -> fresh ()
    | Ok (Some t) -> (
        match Rtfmt.Checkpoint.validate ~kind ~fingerprint t with
        | Ok () ->
            Printf.printf "(resuming from %s: %d stage(s) already done)\n"
              file
              (List.length (Rtfmt.Checkpoint.entries t));
            t
        | Error reason ->
            Printf.printf "(ignoring %s: %s)\n" file reason;
            fresh ())
    | Error reason ->
        Printf.printf "(ignoring %s: %s)\n" file reason;
        fresh ()

let checkpoint_stage state file ~key value =
  state := Rtfmt.Checkpoint.add !state ~key value;
  Rtfmt.Checkpoint.save file !state

let resumed_stage state ~key =
  if !resume then Rtfmt.Checkpoint.find !state key else None

let parallel_scaling () =
  Bench_util.section
    "E12: parallel scaling - Analysis.run across a domain pool";
  Printf.printf
    "The e6 layered workloads analysed on an Rtlb_par.Pool of 1/2/4/8\n\
     domains (plus --jobs if given).  The parallel path is bit-identical\n\
     to the sequential analysis (asserted per run); speedups are wall\n\
     clock, best of %d, relative to the 1-domain pool.  Machine has %d\n\
     recommended domain(s).  Results also land in BENCH_parallel.json.\n"
    5
    (Domain.recommended_domain_count ());
  let domain_counts =
    [ 1; 2; 4; 8 ] @ (if !jobs > 1 then [ !jobs ] else [])
    |> List.sort_uniq compare
  in
  let best_of k f =
    let rec go k best =
      if k = 0 then best
      else
        let _, ms = Bench_util.time_ms f in
        go (k - 1) (min best ms)
    in
    go k infinity
  in
  let bounds_equal (a : Rtlb.Analysis.t) (b : Rtlb.Analysis.t) =
    a.Rtlb.Analysis.bounds = b.Rtlb.Analysis.bounds
  in
  let t =
    Rtfmt.Table.create
      ([ "tasks"; "seq ms" ]
      @ List.concat_map
          (fun d ->
            [ Printf.sprintf "%dd ms" d; Printf.sprintf "%dd speedup" d ])
          domain_counts
      @ [ "identical" ])
  in
  (* Per-phase breakdown of one traced sequential run: where inside
     Analysis.run the time goes (spans from the observability layer). *)
  let phase_names = [ "est_lct"; "lower_bounds"; "plan"; "reduce"; "cost" ] in
  let phases_t = Rtfmt.Table.create ("tasks" :: List.map (fun p -> p ^ " ms") phase_names) in
  let ckpt_file = "BENCH_parallel.ckpt.json" in
  let fingerprint =
    Digest.to_hex
      (Digest.string
         (Printf.sprintf "e12;seed=11;layered5x0.4;domains=%s"
            (String.concat "," (List.map string_of_int domain_counts))))
  in
  let state = ref (load_checkpoint ~kind:"bench-parallel" ~fingerprint ckpt_file) in
  let json_workloads =
    List.map
      (fun n ->
        let key = Printf.sprintf "tasks-%d" n in
        let cached =
          match resumed_stage state ~key with
          | Some entry -> (
              match
                ( Rtfmt.Json.member "row" entry,
                  Rtfmt.Json.member "phase_row" entry,
                  Rtfmt.Json.member "json" entry )
              with
              | row, phase_row, json ->
                  Some (row_cells row, row_cells phase_row, json)
              | exception Not_found -> None)
          | None -> None
        in
        match cached with
        | Some (row, phase_row, json) ->
            Rtfmt.Table.add_row t row;
            Rtfmt.Table.add_row phases_t phase_row;
            json
        | None ->
            let config =
              {
                Workload.Gen.default with
                Workload.Gen.n_tasks = n;
                shape = Workload.Gen.Layered { layers = 5; density = 0.4 };
                seed = 11;
              }
            in
            let app = Workload.Gen.generate config in
            let system = Workload.Gen.shared_system config in
            let reference = Rtlb.Analysis.run system app in
            let seq_ms = best_of 5 (fun () -> Rtlb.Analysis.run system app) in
            let tracer = Rtlb_obs.Tracer.make () in
            let _ = Rtlb.Analysis.run ~tracer system app in
            let stats = Rtlb_obs.Stats.of_tracer tracer in
            let phase_ms p =
              Int64.to_float (Rtlb_obs.Stats.span_total_ns stats p) /. 1e6
            in
            let phase_row =
              string_of_int n
              :: List.map
                   (fun p -> Printf.sprintf "%.3f" (phase_ms p))
                   phase_names
            in
            Rtfmt.Table.add_row phases_t phase_row;
            let identical = ref true in
            let curve =
              List.map
                (fun d ->
                  Rtlb_par.Pool.with_pool ~jobs:d (fun pool ->
                      let a = Rtlb.Analysis.run ~pool system app in
                      if not (bounds_equal a reference) then identical := false;
                      let ms =
                        best_of 5 (fun () -> Rtlb.Analysis.run ~pool system app)
                      in
                      (d, ms)))
                domain_counts
            in
            let base_ms =
              match curve with (_, ms) :: _ -> ms | [] -> seq_ms
            in
            let speedup ms = base_ms /. ms in
            let row =
              [ string_of_int n; Printf.sprintf "%.2f" seq_ms ]
              @ List.concat_map
                  (fun (_, ms) ->
                    [
                      Printf.sprintf "%.2f" ms;
                      Printf.sprintf "%.2fx" (speedup ms);
                    ])
                  curve
              @ [ (if !identical then "yes" else "NO") ]
            in
            Rtfmt.Table.add_row t row;
            let json =
              Rtfmt.Json.Obj
                [
                  ("tasks", Rtfmt.Json.Int n);
                  ("seq_ms", Rtfmt.Json.Str (Printf.sprintf "%.3f" seq_ms));
                  ("identical", Rtfmt.Json.Bool !identical);
                  ( "phases",
                    Rtfmt.Json.Obj
                      (List.map
                         (fun p ->
                           ( p,
                             Rtfmt.Json.Str
                               (Printf.sprintf "%.3f" (phase_ms p)) ))
                         phase_names) );
                  ( "curve",
                    Rtfmt.Json.List
                      (List.map
                         (fun (d, ms) ->
                           Rtfmt.Json.Obj
                             [
                               ("domains", Rtfmt.Json.Int d);
                               ("ms", Rtfmt.Json.Str (Printf.sprintf "%.3f" ms));
                               ( "speedup",
                                 Rtfmt.Json.Str
                                   (Printf.sprintf "%.2f" (speedup ms)) );
                             ])
                         curve) );
                ]
            in
            checkpoint_stage state ckpt_file ~key
              (Rtfmt.Json.Obj
                 [
                   ("row", str_row row);
                   ("phase_row", str_row phase_row);
                   ("json", json);
                 ]);
            json)
      [ 10; 20; 40; 80 ]
  in
  Rtfmt.Table.print t;
  Bench_util.subsection
    "per-phase breakdown of one traced sequential run (span totals)";
  Rtfmt.Table.print phases_t;
  let json =
    Rtfmt.Json.Obj
      [
        ("experiment", Rtfmt.Json.Str "e12-parallel-scaling");
        ( "recommended_domains",
          Rtfmt.Json.Int (Domain.recommended_domain_count ()) );
        ("workloads", Rtfmt.Json.List json_workloads);
      ]
  in
  Rtfmt.write_atomic "BENCH_parallel.json" (fun oc ->
      output_string oc (Rtfmt.Json.to_string json);
      output_char oc '\n');
  Rtfmt.Checkpoint.remove ckpt_file;
  Printf.printf "wrote BENCH_parallel.json\n"

(* ------------------------------------------------------------------ *)
(* E13: incremental cache - sweeps and what-if queries                 *)
(* ------------------------------------------------------------------ *)

let incremental_sweep () =
  Bench_util.section "E13: incremental cache - deadline sweeps and what-ifs";
  Printf.printf
    "A fine-grained deadline sweep (16 factors probing the margin below\n\
     the operating point), a 16-edit what-if series, and 16 mixed\n\
     release/deadline/compute what-ifs on a 300-task frame instance (the\n\
     shape of serve-sweep), each answered cold (full Analysis.run per\n\
     query) and through the Incremental cache.  Results are asserted\n\
     identical sample by sample; times are wall clock, best of %d.\n"
    3;
  let best_of k f =
    let rec go k best =
      if k = 0 then best
      else
        let _, ms = Bench_util.time_ms f in
        go (k - 1) (min best ms)
    in
    go k infinity
  in
  let config =
    {
      Workload.Gen.default with
      Workload.Gen.n_tasks = 80;
      shape = Workload.Gen.Layered { layers = 5; density = 0.4 };
      seed = 11;
    }
  in
  let app = Workload.Gen.generate config in
  let system = Workload.Gen.shared_system config in
  let base_deadline = (Rtlb.App.task app 0).Rtlb.Task.deadline in
  let factors =
    List.init 16 (fun k -> 1.0 -. (0.002 *. float_of_int (15 - k)))
  in
  let distinct_deadlines =
    List.map
      (fun f ->
        let scaled = Rtlb.Sensitivity.scale_deadlines app ~factor:f in
        (Rtlb.App.task scaled 0).Rtlb.Task.deadline)
      factors
    |> List.sort_uniq compare
  in
  Printf.printf
    "\nworkload: %d tasks, common deadline %d; the 16 factors quantise\n\
     to %d distinct scaled deadline(s), so most sweep queries are\n\
     answered from cached block scans.\n"
    (Rtlb.App.n_tasks app) base_deadline
    (List.length distinct_deadlines);
  let ckpt_file = "BENCH_incremental.ckpt.json" in
  let state =
    ref
      (load_checkpoint ~kind:"bench-incremental"
         ~fingerprint:(Rtlb.Incremental.instance_fingerprint system app)
         ckpt_file)
  in
  (* Each series is one checkpoint stage: the rendered table row and
     the JSON fragment are stored together, so a --resume run replays a
     finished series verbatim and computes only the other. *)
  let stage key compute =
    let cached =
      match resumed_stage state ~key with
      | Some entry -> (
          match (Rtfmt.Json.member "row" entry, Rtfmt.Json.member "json" entry)
          with
          | row, json -> Some (row_cells row, json)
          | exception Not_found -> None)
      | None -> None
    in
    match cached with
    | Some v -> v
    | None ->
        let row, json = compute () in
        checkpoint_stage state ckpt_file ~key
          (Rtfmt.Json.Obj [ ("row", str_row row); ("json", json) ]);
        (row, json)
  in
  let series_row ?words name cold incr identical =
    ( [
        name;
        Printf.sprintf "%.2f" cold;
        Printf.sprintf "%.2f" incr;
        Printf.sprintf "%.2fx" (cold /. incr);
        (match words with Some w -> Printf.sprintf "%.0f" w | None -> "-");
        (if identical then "yes" else "NO");
      ],
      Rtfmt.Json.Obj
        ([
           ("cold_ms", Rtfmt.Json.Str (Printf.sprintf "%.3f" cold));
           ("incremental_ms", Rtfmt.Json.Str (Printf.sprintf "%.3f" incr));
           ("speedup", Rtfmt.Json.Str (Printf.sprintf "%.2f" (cold /. incr)));
           ("identical", Rtfmt.Json.Bool identical);
         ]
        @ List.map
            (fun w ->
              ("minor_words_per_whatif", Rtfmt.Json.Str (Printf.sprintf "%.0f" w)))
            (Option.to_list words)) )
  in
  let sweep_row, sweep_json =
    stage "sweep" (fun () ->
        let reference =
          Rtlb.Sensitivity.deadline_sweep_cold system app ~factors
        in
        let incremental = Rtlb.Sensitivity.deadline_sweep system app ~factors in
        let sweep_identical = reference = incremental in
        let cold_ms =
          best_of 3 (fun () ->
              ignore (Rtlb.Sensitivity.deadline_sweep_cold system app ~factors))
        in
        let incr_ms =
          best_of 3 (fun () ->
              ignore (Rtlb.Sensitivity.deadline_sweep system app ~factors))
        in
        series_row "16-factor sweep" cold_ms incr_ms sweep_identical)
  in
  (* What-if series: 16 single-task deadline relaxations against one
     warm handle, versus a cold run per question. *)
  let whatif_row, whatif_json =
    stage "whatif" (fun () ->
        let edits k =
          let task = (7 * k) mod Rtlb.App.n_tasks app in
          [
            Rtlb.Incremental.Set_deadline
              {
                task;
                deadline = (Rtlb.App.task app task).Rtlb.Task.deadline + 1 + k;
              };
          ]
        in
        let handle = Rtlb.Incremental.create system app in
        let whatif_identical =
          List.for_all
            (fun k ->
              let a = Rtlb.Incremental.edit handle (edits k) in
              let b =
                Rtlb.Analysis.run system (Rtlb.Incremental.apply app (edits k))
              in
              a.Rtlb.Analysis.bounds = b.Rtlb.Analysis.bounds
              && a.Rtlb.Analysis.cost = b.Rtlb.Analysis.cost)
            (List.init 16 Fun.id)
        in
        let whatif_cold_ms =
          best_of 3 (fun () ->
              List.iter
                (fun k ->
                  ignore
                    (Rtlb.Analysis.run system
                       (Rtlb.Incremental.apply app (edits k))))
                (List.init 16 Fun.id))
        in
        let whatif_incr_ms =
          best_of 3 (fun () ->
              List.iter
                (fun k -> ignore (Rtlb.Incremental.edit handle (edits k)))
                (List.init 16 Fun.id))
        in
        series_row "16 what-if edits" whatif_cold_ms whatif_incr_ms
          whatif_identical)
  in
  (* serve-sweep's shape: 16 mixed release, deadline and compute
     what-ifs on a 300-task frame instance, each answered by a fresh
     handle's first edit of it, as a daemon's handle meets a new edit. *)
  let frames_row, frames_json =
    stage "whatif_frames" (fun () ->
        let app = Workload.Gen.layered_frames ~seed:5 ~frames:3 () in
        let system = Workload.Gen.frame_system () in
        let n = Rtlb.App.n_tasks app in
        let edits k =
          let task = ((37 * k) + 5) mod n in
          let t = Rtlb.App.task app task in
          let r = t.Rtlb.Task.release
          and c = t.Rtlb.Task.compute
          and d = t.Rtlb.Task.deadline in
          [
            (match k mod 3 with
            | 0 -> Rtlb.Incremental.Set_deadline { task; deadline = d + 1 + k }
            | 1 ->
                Rtlb.Incremental.Set_release
                  { task; release = (if r > 0 then r - 1 else min (d - c) (r + 1)) }
            | _ ->
                Rtlb.Incremental.Set_compute
                  { task; compute = (if c > 1 then c - 1 else min (d - r) (c + 1)) });
          ]
        in
        let ks = List.init 16 Fun.id in
        let cold k = Rtlb.Analysis.run system (Rtlb.Incremental.apply app (edits k)) in
        let same (a : Rtlb.Analysis.t) (b : Rtlb.Analysis.t) =
          a.Rtlb.Analysis.windows.Rtlb.Windows.est = b.Rtlb.Analysis.windows.Rtlb.Windows.est
          && a.Rtlb.Analysis.windows.Rtlb.Windows.lct
             = b.Rtlb.Analysis.windows.Rtlb.Windows.lct
          && a.Rtlb.Analysis.bounds = b.Rtlb.Analysis.bounds
          && a.Rtlb.Analysis.cost = b.Rtlb.Analysis.cost
          && a.Rtlb.Analysis.completeness = b.Rtlb.Analysis.completeness
        in
        (* one pass: fresh handle, 16 edits; returns ms and minor words *)
        let pass check =
          let handle = Rtlb.Incremental.create system app in
          let identical = ref true in
          let words = Gc.minor_words () in
          let (), ms =
            Bench_util.time_ms (fun () ->
                List.iter
                  (fun k ->
                    let a = Rtlb.Incremental.edit handle (edits k) in
                    if check then identical := !identical && same a (cold k))
                  ks)
          in
          (ms, Gc.minor_words () -. words, !identical)
        in
        let _, _, identical = pass true in
        let incr_ms, words, _ =
          List.fold_left
            (fun (best, w, i) _ ->
              let ms, w', i' = pass false in
              if ms < best then (ms, w', i') else (best, w, i))
            (infinity, 0.0, true) [ 1; 2; 3 ]
        in
        let cold_ms = best_of 3 (fun () -> List.iter (fun k -> ignore (cold k)) ks) in
        series_row ~words:(words /. 16.0) "16 mixed what-ifs, 300-task frames"
          cold_ms incr_ms identical)
  in
  let t =
    Rtfmt.Table.create
      [
        "series"; "cold ms"; "incremental ms"; "speedup"; "words/what-if";
        "identical";
      ]
  in
  Rtfmt.Table.add_row t sweep_row;
  Rtfmt.Table.add_row t whatif_row;
  Rtfmt.Table.add_row t frames_row;
  Rtfmt.Table.print t;
  if List.exists (List.mem "NO") [ sweep_row; whatif_row; frames_row ] then begin
    prerr_endline "e13: an incremental answer diverged from the cold path";
    exit 1
  end;
  let json =
    Rtfmt.Json.Obj
      [
        ("experiment", Rtfmt.Json.Str "e13-incremental-cache");
        ("tasks", Rtfmt.Json.Int (Rtlb.App.n_tasks app));
        ("factors", Rtfmt.Json.Int (List.length factors));
        ( "distinct_scaled_deadlines",
          Rtfmt.Json.Int (List.length distinct_deadlines) );
        ("sweep", sweep_json);
        ("whatif", whatif_json);
        ("whatif_frames", frames_json);
      ]
  in
  Rtfmt.write_atomic "BENCH_incremental.json" (fun oc ->
      output_string oc (Rtfmt.Json.to_string json);
      output_char oc '\n');
  Rtfmt.Checkpoint.remove ckpt_file;
  Printf.printf "wrote BENCH_incremental.json\n"

(* ------------------------------------------------------------------ *)
(* E14: SoA engine scaling - packed arrays at 10^5..10^6 tasks         *)
(* ------------------------------------------------------------------ *)

(* --sizes (bench/main.ml sets it): task counts for the E14 curve.  The
   CI perf gate pins a small subset; the committed baseline holds the
   full trajectory. *)
let soa_sizes = ref [ 1_000; 10_000; 100_000; 1_000_000 ]

(* The record composition — Est_lct merge search, exhaustive
   Lower_bound scan, Cost — E14's independent reference for the packed
   engine. *)
let record_analysis system app =
  let w = Rtlb.Est_lct.compute system app in
  let bounds =
    Rtlb.Lower_bound.all ~est:w.Rtlb.Est_lct.est ~lct:w.Rtlb.Est_lct.lct app
  in
  (w, bounds, Rtlb.Cost.compute system app bounds)

let median samples =
  List.nth (List.sort compare samples) (List.length samples / 2)

(* The CLI rows: one [rtlb analyze FILE --json] process per run, on the
   sizes where the whole process is worth a row. *)
let cli_sizes = [ 100_000; 1_000_000 ]

external wait4 : int -> int * int = "bench_wait4"

(* The CLI this bench was built beside: [_build/default/bin/rtlb_cli.exe]
   for [_build/default/bench/main.exe]. *)
let cli_path () =
  let root = Filename.dirname (Filename.dirname Sys.executable_name) in
  let cli = Filename.concat (Filename.concat root "bin") "rtlb_cli.exe" in
  if not (Sys.file_exists cli) then begin
    Printf.eprintf
      "e14: %s not found; build it first (dune build bin/rtlb_cli.exe)\n" cli;
    exit 1
  end;
  cli

(* Total duration in ms of the spans named [name] in a Chrome trace. *)
let trace_span_ms trace name =
  match Rtfmt.Json.member "traceEvents" trace with
  | Rtfmt.Json.List events ->
      List.fold_left
        (fun acc e ->
          match (Rtfmt.Json.member "name" e, Rtfmt.Json.member "dur" e) with
          | Rtfmt.Json.Str n, Rtfmt.Json.Int us when String.equal n name ->
              acc +. (float_of_int us /. 1000.0)
          | _ -> acc
          | exception Not_found -> acc)
        0.0 events
  | _ -> 0.0

(* [main.exe peak-rss PROG ARGS..] (bench/main.ml): run PROG ARGS.. with
   its stdout on /dev/null and print its exit code, its peak RSS in KB
   and its wall time in ms.  E14 runs the CLI through this second, small
   bench process because a process that a large one spawns reports the
   large one's peak as its own: ru_maxrss keeps the spawner's high-water
   mark across the vfork and the exec. *)
let peak_rss_launcher prog args =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let (code, kb), ms =
    Bench_util.time_ms (fun () ->
        wait4
          (Unix.create_process prog
             (Array.of_list (prog :: args))
             Unix.stdin devnull Unix.stderr))
  in
  Printf.printf "%d %d %.3f\n" code kb ms;
  exit 0

(* [CLI ARGS..] through the peak-rss launcher: its exit code, peak RSS
   in KB and wall time in ms. *)
let launch cli args =
  Gc.full_major ();
  let out, into = Unix.pipe ~cloexec:true () in
  let launcher =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: "peak-rss" :: cli :: args))
      Unix.stdin into Unix.stderr
  in
  Unix.close into;
  let ic = Unix.in_channel_of_descr out in
  let report = In_channel.input_all ic in
  close_in ic;
  ignore (Unix.waitpid [] launcher);
  Scanf.sscanf report "%d %d %f" (fun c k ms -> (c, k, ms))

(* Medians over 5 processes each, alternated: of [rtlb analyze FILE
   --json --trace], the wall time from spawn to exit, the CLI's [cli],
   [parse], [analyze] and [encode] spans and the peak RSS wait4
   reports; of [rtlb check FILE], the wall time and the peak RSS. *)
let cli_row system app =
  let cli = cli_path () in
  let file = Filename.temp_file "e14-" ".app"
  and trace = Filename.temp_file "e14-" ".trace.json" in
  Out_channel.with_open_bin file (fun oc ->
      output_string oc (Rtfmt.Appfile.to_string ~system app));
  let spans = [ "cli"; "parse"; "analyze"; "encode" ] in
  let run command args =
    let code, rss_kb, wall = launch cli (command :: file :: args) in
    if code <> 0 then begin
      Printf.eprintf "e14: %s %s %s exited %d\n" cli command file code;
      exit 1
    end;
    (wall, float_of_int rss_kb /. 1024.0)
  in
  let analyze () =
    let wall, rss = run "analyze" [ "--json"; "--trace"; trace ] in
    let t = Rtfmt.Json.parse (In_channel.with_open_bin trace In_channel.input_all) in
    (wall :: List.map (trace_span_ms t) spans) @ [ rss ]
  in
  let check () =
    let wall, rss = run "check" [] in
    [ wall; rss ]
  in
  let runs = List.init 5 (fun _ -> analyze () @ check ()) in
  Sys.remove file;
  Sys.remove trace;
  List.mapi
    (fun k name -> (name, median (List.map (fun r -> List.nth r k) runs)))
    (("wall_ms" :: List.map (fun s -> s ^ "_ms") spans)
    @ [ "peak_rss_mb"; "check_wall_ms"; "check_peak_rss_mb" ])

let soa_scaling () =
  Bench_util.section "E14: SoA scaling - packed engine on frame workloads";
  Printf.printf
    "Frame-structured layered DAGs (100-task frames) analysed by the\n\
     packed engine on 1 and 4 domains; p50 of 5 repetitions of sweep +\n\
     scan over the packed arrays.  At 1 domain the repetitions run under\n\
     a tracer, and the p50s of their sweep, plan and scan spans (scan =\n\
     bounds - plan - reduce) are the per-layer columns.  Counters come\n\
     from one single-domain traced Analysis.run (deterministic); at sizes\n\
     up to 10^4 its result is checked against the record composition.\n\
     At 10^5 and 10^6 tasks a CLI row times whole `rtlb analyze FILE\n\
     --json` processes (medians of 5 of wall time, the CLI's spans and\n\
     the peak RSS wait4 reports) and `rtlb check FILE` processes (wall\n\
     time and peak RSS), alternated.\n\
     Results and the host land in BENCH_soa.json for the CI perf gate.\n";
  (* Each repetition starts from a collected heap, so a layer's time
     does not depend on the garbage that earlier sizes or repetitions
     left (the CI gate runs a subset of the sizes). *)
  let median_of k f =
    median
      (List.init k (fun _ ->
           Gc.full_major ();
           snd (Bench_util.time_ms f)))
  in
  let span_ms tracer name =
    List.fold_left
      (fun acc (e : Rtlb_obs.Tracer.event) ->
        if String.equal e.Rtlb_obs.Tracer.ev_name name then
          acc +. (Int64.to_float e.Rtlb_obs.Tracer.ev_dur_ns /. 1e6)
        else acc)
      0.0
      (Rtlb_obs.Tracer.events tracer)
  in
  let system = Workload.Gen.frame_system () in
  let t =
    Rtfmt.Table.create
      [
        "tasks"; "1d p50 ms"; "sweep"; "plan"; "scan"; "4d p50 ms"; "record ms";
        "identical";
      ]
  in
  let cli_table =
    Rtfmt.Table.create
      [
        "tasks"; "wall ms"; "cli"; "parse"; "analyze"; "encode"; "peak MB";
        "check ms"; "check MB";
      ]
  in
  let json_workloads =
    List.map
      (fun n ->
        let frames = max 1 (n / 100) in
        let app = Workload.Gen.layered_frames ~seed:7 ~frames () in
        let cli = if List.mem n cli_sizes then Some (cli_row system app) else None in
        Option.iter
          (fun row ->
            Rtfmt.Table.add_row cli_table
              (string_of_int n
              :: List.map (fun (_, v) -> Printf.sprintf "%.1f" v) row))
          cli;
        (* the timed region the committed baseline was measured on *)
        let soa = Rtlb.Soa.pack system app in
        let run ?pool () =
          Rtlb.Soa.compute_windows soa;
          Rtlb.Soa.bounds ?pool soa
        in
        (* [total; sweep; plan; scan] of each traced repetition *)
        let reps =
          List.init 5 (fun _ ->
              let tracer = Rtlb_obs.Tracer.make () in
              Gc.full_major ();
              let (), ms =
                Bench_util.time_ms (fun () ->
                    Rtlb_obs.Tracer.with_span tracer "sweep" (fun () ->
                        Rtlb.Soa.compute_windows soa);
                    Rtlb_obs.Tracer.with_span tracer "bounds" (fun () ->
                        ignore (Rtlb.Soa.bounds ~tracer soa)))
              in
              let plan = span_ms tracer "plan" in
              [
                ms;
                span_ms tracer "sweep";
                plan;
                span_ms tracer "bounds" -. plan -. span_ms tracer "reduce";
              ])
        in
        let p50 k = median (List.map (fun r -> List.nth r k) reps) in
        let p50_1d = p50 0 in
        let layers = [ ("sweep_ms", p50 1); ("plan_ms", p50 2); ("scan_ms", p50 3) ] in
        let p50_4d =
          Rtlb_par.Pool.with_pool ~jobs:4 (fun pool ->
              median_of 5 (fun () -> run ~pool ()))
        in
        let tracer = Rtlb_obs.Tracer.make () in
        let _ = Rtlb.Analysis.run ~tracer system app in
        let c name = Rtlb_obs.Tracer.counter tracer name in
        let record_ms, identical =
          if n <= 10_000 then begin
            let a = Rtlb.Analysis.run system app in
            let (w, bounds, cost), ms =
              Bench_util.time_ms (fun () -> record_analysis system app)
            in
            ( Some ms,
              Some
                (a.Rtlb.Analysis.windows.Rtlb.Windows.est = w.Rtlb.Est_lct.est
                && a.Rtlb.Analysis.windows.Rtlb.Windows.lct = w.Rtlb.Est_lct.lct
                && a.Rtlb.Analysis.bounds = bounds
                && a.Rtlb.Analysis.cost = cost) )
          end
          else (None, None)
        in
        Rtfmt.Table.add_row t
          ([ string_of_int n; Printf.sprintf "%.2f" p50_1d ]
          @ List.map (fun (_, ms) -> Printf.sprintf "%.2f" ms) layers
          @ [
              Printf.sprintf "%.2f" p50_4d;
              (match record_ms with
              | Some ms -> Printf.sprintf "%.2f" ms
              | None -> "-");
              (match identical with
              | Some true -> "yes"
              | Some false -> "NO"
              | None -> "-");
            ]);
        (match identical with
        | Some false ->
            prerr_endline
              "e14: Analysis.run diverged from the record composition";
            exit 1
        | _ -> ());
        Rtfmt.Json.Obj
          ([
             ("tasks", Rtfmt.Json.Int n);
             ("frames", Rtfmt.Json.Int frames);
             ( "counters",
               Rtfmt.Json.Obj
                 [
                   ("tasks_scanned", Rtfmt.Json.Int (c Rtlb_obs.Tracer.Tasks_scanned));
                   ("theta_evals", Rtfmt.Json.Int (c Rtlb_obs.Tracer.Theta_evals));
                   ( "candidate_intervals",
                     Rtfmt.Json.Int (c Rtlb_obs.Tracer.Candidate_intervals) );
                 ] );
             ( "curve",
               Rtfmt.Json.List
                 [
                   Rtfmt.Json.Obj
                     (("domains", Rtfmt.Json.Int 1)
                     :: ("p50_ms", Rtfmt.Json.Str (Printf.sprintf "%.3f" p50_1d))
                     :: List.map
                          (fun (name, ms) ->
                            (name, Rtfmt.Json.Str (Printf.sprintf "%.3f" ms)))
                          layers);
                   Rtfmt.Json.Obj
                     [
                       ("domains", Rtfmt.Json.Int 4);
                       ("p50_ms", Rtfmt.Json.Str (Printf.sprintf "%.3f" p50_4d));
                     ];
                 ] );
           ]
          @ (match identical with
            | Some b -> [ ("identical", Rtfmt.Json.Bool b) ]
            | None -> [])
          @
          match cli with
          | Some row ->
              [
                ( "cli",
                  Rtfmt.Json.Obj
                    (List.map
                       (fun (name, v) ->
                         (name, Rtfmt.Json.Str (Printf.sprintf "%.1f" v)))
                       row) );
              ]
          | None -> []))
      !soa_sizes
  in
  Rtfmt.Table.print t;
  if List.exists (fun n -> List.mem n cli_sizes) !soa_sizes then begin
    Bench_util.subsection
      "CLI process: rtlb analyze FILE --json, then rtlb check FILE";
    Rtfmt.Table.print cli_table
  end;
  let json =
    Rtfmt.Json.Obj
      [
        ("experiment", Rtfmt.Json.Str "e14-soa-scaling");
        ("host", Bench_util.host_json ());
        ("prune", Rtfmt.Json.Bool (Rtlb.Soa.default_prune ()));
        ("reps", Rtfmt.Json.Int 5);
        ("workloads", Rtfmt.Json.List json_workloads);
      ]
  in
  Rtfmt.write_atomic "BENCH_soa.json" (fun oc ->
      output_string oc (Rtfmt.Json.to_string json);
      output_char oc '\n');
  Printf.printf "wrote BENCH_soa.json\n"

(* [all] lives at the end of the file so it can name every experiment,
   including E15 below. *)

(* -- E15: serve daemon throughput/latency under multi-process load ---

   The acceptance experiment for the bound-query daemon: the server
   (2 worker threads x 2-domain pools, LRU-cached warm handles,
   priority admission + what-if coalescing) answers a mixed warm/cold
   analyze/whatif workload over its Unix socket from 8 forked tenant
   processes — real connections, real frames, no shared address space
   with the daemon.  Each tenant pipelines bursts (send-all, then time
   every reply individually), which is what lets the daemon coalesce
   compatible what-ifs.  Reports throughput, overall and per-tenant
   p50/p99 request latency, and the serve counters, into
   BENCH_serve.json.

   Fork discipline: every tenant process is forked BEFORE the server
   (and its worker/acceptor threads) exists, so children never inherit
   a threaded runtime; they retry-connect while the daemon binds. *)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0 else sorted.(min (n - 1) (p * (n - 1) / 100))

let serve_throughput () =
  Bench_util.section "E15: serve daemon throughput and latency";
  let module Server = Rtlb_serve.Server in
  let module Client = Rtlb_serve.Client in
  let now_ns () = Rtlb_obs.Clock.now_ns Rtlb_obs.Clock.monotonic in
  let sock_path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rtlb-bench-%d.sock" (Unix.getpid ()))
  in
  (* Request templates: field lists so each tenant can stamp its own
     "tenant" field in.  Mixed warm/cold: 4 generated 80-task apps x
     {analyze, analyze with the deprecated "engine": "soa" field, whatif}
     — the daemon ignores the field, so all three share one handle per
     app: first touch is a cold build, repeats hit the warm LRU, and
     concurrent requests on the same text coalesce. *)
  let requests =
    List.concat_map
      (fun seed ->
        let app =
          Workload.Gen.layered_frames ~seed ~frames:2 ~tasks_per_frame:40 ()
        in
        let text = Rtfmt.Appfile.to_string app in
        let d0 = (Rtlb.App.task app 0).Rtlb.Task.deadline in
        [
          [ ("op", Rtfmt.Json.Str "analyze"); ("app", Rtfmt.Json.Str text) ];
          [
            ("op", Rtfmt.Json.Str "analyze");
            ("app", Rtfmt.Json.Str text);
            ("engine", Rtfmt.Json.Str "soa");
          ];
          [
            ("op", Rtfmt.Json.Str "whatif");
            ("app", Rtfmt.Json.Str text);
            ( "edits",
              Rtfmt.Json.List
                [
                  Rtfmt.Json.Obj
                    [
                      ("task", Rtfmt.Json.Int 0);
                      ("deadline", Rtfmt.Json.Int (d0 + 5));
                    ];
                ] );
          ];
        ])
      [ 3; 4; 5; 6 ]
  in
  let requests = Array.of_list requests in
  let clients = 8 and per_client = 100 and burst = 100 in
  let total = clients * per_client in
  let child c write_fd =
    (* tenant process: retry-connect, pipeline bursts, report one
       "<latency_ns> <ok>" line per request on its pipe *)
    let oc = Unix.out_channel_of_descr write_fd in
    let exit_code =
      match Client.connect_unix ~retry_for:10.0 sock_path with
      | exception _ -> 1
      | client ->
          let tenant = Printf.sprintf "tenant-%d" c in
          let k = ref 0 in
          while !k < per_client do
            let m = min burst (per_client - !k) in
            let frames =
              List.init m (fun i ->
                  let idx =
                    ((c * per_client) + !k + i) mod Array.length requests
                  in
                  Rtfmt.Json.Obj
                    (("tenant", Rtfmt.Json.Str tenant) :: requests.(idx)))
            in
            let t_burst = now_ns () in
            let sent =
              List.map (fun id -> (id, t_burst)) (Client.send_batch client frames)
            in
            List.iter
              (fun (id, t0) ->
                let ok =
                  match id with
                  | Error _ -> false
                  | Ok id -> (
                      match Client.recv_raw client id with
                      | Error _ -> false
                      | Ok line ->
                          (* "ok" is the field right after the echoed id *)
                          let marker = "\"ok\": true," in
                          let ml = String.length marker in
                          let rec find i =
                            i + ml <= String.length line
                            && (String.sub line i ml = marker || find (i + 1))
                          in
                          find 0)
                in
                let lat = Int64.to_float (Int64.sub (now_ns ()) t0) in
                Printf.fprintf oc "%.0f %d\n" lat (if ok then 1 else 0))
              sent;
            k := !k + m
          done;
          Client.close client;
          0
    in
    close_out oc;
    exit_code
  in
  (* fork all tenants first — the daemon's threads come afterwards *)
  let pipes = Array.init clients (fun _ -> Unix.pipe ()) in
  let pids =
    Array.init clients (fun c ->
        match Unix.fork () with
        | 0 ->
            let code =
              try
                Array.iteri
                  (fun i (r, w) ->
                    Unix.close r;
                    if i <> c then Unix.close w)
                  pipes;
                child c (snd pipes.(c))
              with _ -> 1
            in
            Unix._exit code
        | pid -> pid)
  in
  Array.iter (fun (_, w) -> Unix.close w) pipes;
  let tracer = Rtlb_obs.Tracer.make () in
  let config =
    {
      Server.default_config with
      Server.jobs = 1;
      workers = 1;
      queue_capacity = 2 * total;  (* fully pipelined tenants all fit *)
      tracer;
    }
  in
  let server = Server.create ~config () in
  let stop = Atomic.make false in
  (* throughput clock starts when the listener is actually ready — the
     tenants are retry-connecting already *)
  let t0 = ref (now_ns ()) in
  let server_thread =
    Thread.create
      (fun () ->
        Server.serve server
          ~on_ready:(fun _ -> t0 := now_ns ())
          ~endpoints:[ Server.Unix_path sock_path ]
          ~stop:(fun () -> Atomic.get stop)
          ())
      ()
  in
  (* drain every tenant's result pipe (EOF = tenant done) *)
  let per_tenant =
    Array.map
      (fun (r, _) ->
        let ic = Unix.in_channel_of_descr r in
        let rows = ref [] in
        (try
           while true do
             match String.split_on_char ' ' (input_line ic) with
             | [ lat; ok ] -> rows := (float_of_string lat, ok = "1") :: !rows
             | _ -> ()
           done
         with End_of_file | Failure _ -> ());
        close_in ic;
        List.rev !rows)
      pipes
  in
  let t1 = now_ns () in
  let failed_children =
    Array.fold_left
      (fun acc pid ->
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> acc
        | _ -> acc + 1)
      0 pids
  in
  (* the live daemon's own view, while still serving: the same shape
     the protocol's stats op reports *)
  let stats = Server.stats_snapshot server in
  Atomic.set stop true;
  Thread.join server_thread;
  let wall_ms = Int64.to_float (Int64.sub t1 !t0) /. 1e6 in
  let all_rows = Array.to_list per_tenant |> List.concat in
  let errors =
    (if List.length all_rows < total then total - List.length all_rows else 0)
    + List.length (List.filter (fun (_, ok) -> not ok) all_rows)
    + failed_children
  in
  let sorted_ms rows =
    let a = Array.of_list (List.map (fun (lat, _) -> lat /. 1e6) rows) in
    Array.sort compare a;
    a
  in
  let latencies_ms = sorted_ms all_rows in
  let p50 = percentile latencies_ms 50 in
  let p99 = percentile latencies_ms 99 in
  let throughput = float_of_int total /. (wall_ms /. 1000.0) in
  let c name = Rtlb_obs.Tracer.counter tracer name in
  let t = Rtfmt.Table.create [ "metric"; "value" ] in
  Rtfmt.Table.add_row t [ "tenant processes"; string_of_int clients ];
  Rtfmt.Table.add_row t [ "requests"; string_of_int total ];
  Rtfmt.Table.add_row t [ "errors"; string_of_int errors ];
  Rtfmt.Table.add_row t [ "wall ms"; Printf.sprintf "%.1f" wall_ms ];
  Rtfmt.Table.add_row t [ "req/s"; Printf.sprintf "%.0f" throughput ];
  Rtfmt.Table.add_row t [ "p50 ms"; Printf.sprintf "%.2f" p50 ];
  Rtfmt.Table.add_row t [ "p99 ms"; Printf.sprintf "%.2f" p99 ];
  Rtfmt.Table.add_row t
    [ "admitted"; string_of_int (c Rtlb_obs.Tracer.Requests_admitted) ];
  Rtfmt.Table.add_row t
    [ "coalesced"; string_of_int (c Rtlb_obs.Tracer.Coalesced_queries) ];
  Rtfmt.Table.add_row t
    [ "cache hits"; string_of_int (c Rtlb_obs.Tracer.Cache_hits) ];
  Rtfmt.Table.add_row t
    [ "evictions"; string_of_int (c Rtlb_obs.Tracer.Evictions) ];
  Rtfmt.Table.print t;
  if errors > 0 then begin
    prerr_endline "e15: multi-process serve run produced error replies";
    exit 1
  end;
  let tenant_json =
    List.init clients (fun cidx ->
        let rows = per_tenant.(cidx) in
        let ms = sorted_ms rows in
        Rtfmt.Json.Obj
          [
            ("tenant", Rtfmt.Json.Str (Printf.sprintf "tenant-%d" cidx));
            ("requests", Rtfmt.Json.Int (List.length rows));
            ( "p50_ms",
              Rtfmt.Json.Str (Printf.sprintf "%.3f" (percentile ms 50)) );
            ( "p99_ms",
              Rtfmt.Json.Str (Printf.sprintf "%.3f" (percentile ms 99)) );
          ])
  in
  let json =
    Rtfmt.Json.Obj
      [
        ("experiment", Rtfmt.Json.Str "e15-serve-throughput");
        ("transport", Rtfmt.Json.Str "unix-socket, 8 forked tenant processes");
        ("clients", Rtfmt.Json.Int clients);
        ("requests", Rtfmt.Json.Int total);
        ("burst", Rtfmt.Json.Int burst);
        ("workers", Rtfmt.Json.Int config.Server.workers);
        ("jobs", Rtfmt.Json.Int config.Server.jobs);
        ("throughput_rps", Rtfmt.Json.Str (Printf.sprintf "%.1f" throughput));
        ("p50_ms", Rtfmt.Json.Str (Printf.sprintf "%.3f" p50));
        ("p99_ms", Rtfmt.Json.Str (Printf.sprintf "%.3f" p99));
        ("tenants", Rtfmt.Json.List tenant_json);
        ( "counters",
          Rtfmt.Json.Obj
            [
              ( "requests_admitted",
                Rtfmt.Json.Int (c Rtlb_obs.Tracer.Requests_admitted) );
              ( "requests_rejected",
                Rtfmt.Json.Int (c Rtlb_obs.Tracer.Requests_rejected) );
              ( "coalesced_queries",
                Rtfmt.Json.Int (c Rtlb_obs.Tracer.Coalesced_queries) );
              ( "quota_rejections",
                Rtfmt.Json.Int (c Rtlb_obs.Tracer.Quota_rejections) );
              ("evictions", Rtfmt.Json.Int (c Rtlb_obs.Tracer.Evictions));
              ( "degraded_replies",
                Rtfmt.Json.Int (c Rtlb_obs.Tracer.Degraded_replies) );
              ("cache_hits", Rtfmt.Json.Int (c Rtlb_obs.Tracer.Cache_hits));
            ] );
        ( "stats",
          Rtfmt.Json.Obj
            (List.map
               (fun field -> (field, Rtfmt.Json.member field stats))
               [ "uptime_ms"; "cache_entries"; "journal_entries" ]) );
      ]
  in
  Rtfmt.write_atomic "BENCH_serve.json" (fun oc ->
      output_string oc (Rtfmt.Json.to_string json);
      output_char oc '\n');
  Printf.printf "wrote BENCH_serve.json\n"

(* -- E16: recurrent DAG baselines - long-paths vs the single-path bound

   Tightness of the sporadic-DAG response-time chain on every generator
   family: per task, [exact <= multi-path <= long-paths <= graham], so
   the interesting numbers are how much of the Graham slack the
   schedule-derived bounds recover and how often the multi-path bound is
   exactly the branch-and-bound optimum.  The closed-form long-paths
   expression is reported alongside as an estimate (it may undercut the
   optimum, which is why the sandwich pins the schedule-derived bound
   instead).  Results land in BENCH_recurrent.json. *)

let recurrent_baselines () =
  Bench_util.section
    "E16: recurrent baselines - long-paths / multi-path tightness vs Graham";
  Printf.printf
    "Per family and m: mean bounds over every task of 10 random 3-task\n\
     sets, the fraction of Graham's slack each refinement recovers, and\n\
     how often the multi-path bound equals the exact makespan (of the\n\
     tasks where the search finishes).\n";
  let shapes =
    [
      Workload.Gen.Layered { layers = 3; density = 0.5 };
      Workload.Gen.Series_parallel;
      Workload.Gen.Fork_join { width = 3 };
      Workload.Gen.Out_tree;
      Workload.Gen.In_tree;
      Workload.Gen.Chain;
      Workload.Gen.Independent;
    ]
  in
  let t =
    Rtfmt.Table.create
      [
        "shape"; "m"; "tasks"; "mean graham"; "mean long-paths";
        "mean multi-path"; "mean closed-form"; "mp=exact %"; "ms";
      ]
  in
  let rows = ref [] in
  List.iter
    (fun shape ->
      List.iter
        (fun m ->
          let grs = ref [] and hes = ref [] and mps = ref [] in
          let cfs = ref [] in
          let exact_hits = ref 0 and exact_known = ref 0 in
          let n_tasks = ref 0 in
          let (), ms =
            Bench_util.time_ms (fun () ->
                for seed = 1 to 10 do
                  let config =
                    {
                      Workload.Recurrent_gen.default with
                      seed = (97 * seed) + (13 * m);
                      shape;
                      tasks = 3;
                      vertices = 8;
                    }
                  in
                  let model = Workload.Recurrent_gen.generate config in
                  List.iter
                    (fun dt ->
                      incr n_tasks;
                      let gr = Baselines.He_long_paths.graham ~m dt in
                      let he = Baselines.He_long_paths.bound ~m dt in
                      let mp = Baselines.Multi_path.bound ~m dt in
                      let cf =
                        Baselines.He_long_paths.value ~m dt
                          (Baselines.He_long_paths.paths ~m dt)
                      in
                      grs := float_of_int gr :: !grs;
                      hes := float_of_int he :: !hes;
                      mps := float_of_int mp :: !mps;
                      cfs := float_of_int cf :: !cfs;
                      match
                        Sched.Makespan.minimum (Recurrent.Unroll.task_app dt)
                          ~m
                      with
                      | None -> ()
                      | Some exact ->
                          incr exact_known;
                          if mp = exact then incr exact_hits)
                    model.Recurrent.Model.tasks
                done)
          in
          let pct =
            if !exact_known = 0 then 0.0
            else 100.0 *. float_of_int !exact_hits /. float_of_int !exact_known
          in
          Rtfmt.Table.add_row t
            [
              Workload.Gen.shape_name shape;
              string_of_int m;
              string_of_int !n_tasks;
              Printf.sprintf "%.1f" (mean !grs);
              Printf.sprintf "%.1f" (mean !hes);
              Printf.sprintf "%.1f" (mean !mps);
              Printf.sprintf "%.1f" (mean !cfs);
              Printf.sprintf "%.0f" pct;
              Printf.sprintf "%.1f" ms;
            ];
          rows :=
            Rtfmt.Json.Obj
              [
                ("shape", Rtfmt.Json.Str (Workload.Gen.shape_name shape));
                ("m", Rtfmt.Json.Int m);
                ("tasks", Rtfmt.Json.Int !n_tasks);
                ("mean_graham", Rtfmt.Json.Str (Printf.sprintf "%.3f" (mean !grs)));
                ( "mean_long_paths",
                  Rtfmt.Json.Str (Printf.sprintf "%.3f" (mean !hes)) );
                ( "mean_multi_path",
                  Rtfmt.Json.Str (Printf.sprintf "%.3f" (mean !mps)) );
                ( "mean_closed_form",
                  Rtfmt.Json.Str (Printf.sprintf "%.3f" (mean !cfs)) );
                ("exact_known", Rtfmt.Json.Int !exact_known);
                ("multi_path_exact", Rtfmt.Json.Int !exact_hits);
                ("ms", Rtfmt.Json.Str (Printf.sprintf "%.3f" ms));
              ]
            :: !rows)
        [ 2; 4 ])
    shapes;
  Rtfmt.Table.print t;
  let json =
    Rtfmt.Json.Obj
      [
        ("experiment", Rtfmt.Json.Str "e16-recurrent-baselines");
        ("seeds", Rtfmt.Json.Int 10);
        ("tasks_per_set", Rtfmt.Json.Int 3);
        ("vertices_per_task", Rtfmt.Json.Int 8);
        ("rows", Rtfmt.Json.List (List.rev !rows));
      ]
  in
  Rtfmt.write_atomic "BENCH_recurrent.json" (fun oc ->
      output_string oc (Rtfmt.Json.to_string json);
      output_char oc '\n');
  Printf.printf "wrote BENCH_recurrent.json\n"

let all () =
  tightness ();
  baselines ();
  synthesis ();
  preemption ();
  partitioning ();
  scaling ();
  point_policies ();
  preemptive_exactness ();
  anomalies ();
  time_bounds ();
  priorities ();
  parallel_scaling ();
  incremental_sweep ();
  soa_scaling ();
  serve_throughput ();
  recurrent_baselines ()
