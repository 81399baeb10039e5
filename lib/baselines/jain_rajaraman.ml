type t = {
  jr_m : int;
  jr_work_bound : int;
  jr_path_bound : int;
  jr_density_bound : int;
  jr_lower : int;
  jr_upper : int;
}

let ceil_div a b = (a + b - 1) / b

(* Density test at completion target [omega]: windows by longest paths,
   preemptive overlap (a valid relaxation of the non-preemptive model),
   demand of every candidate interval at most [m] times its length. *)
let density_feasible app ~m ~omega =
  let graph = Rtlb.App.graph app in
  let n = Rtlb.App.n_tasks app in
  let compute i = (Rtlb.App.columns app).Rtlb.App.compute.(i) in
  let into = Dag.longest_path_lengths graph ~vertex_weight:compute in
  let est = Array.init n (fun i -> into.(i) - compute i) in
  let tail = Array.make n 0 in
  Array.iter
    (fun i ->
      let best =
        List.fold_left (fun acc j -> max acc tail.(j)) 0 (Dag.succ_ids graph i)
      in
      tail.(i) <- best + compute i)
    (Dag.reverse_topological_order graph);
  let lct = Array.init n (fun i -> omega - (tail.(i) - compute i)) in
  let points =
    (0 :: omega :: Array.to_list est) @ Array.to_list lct
    |> List.filter (fun p -> p >= 0 && p <= omega)
    |> List.sort_uniq compare
    |> Array.of_list
  in
  let np = Array.length points in
  let ok = ref true in
  for a = 0 to np - 2 do
    for b = a + 1 to np - 1 do
      let t1 = points.(a) and t2 = points.(b) in
      let demand = ref 0 in
      for i = 0 to n - 1 do
        demand :=
          !demand
          + Rtlb.Overlap.psi ~preemptive:true ~est:est.(i) ~lct:lct.(i)
              ~compute:(compute i) ~t1 ~t2
      done;
      if !demand > m * (t2 - t1) then ok := false
    done
  done;
  !ok

let analyse app ~m =
  if m <= 0 then invalid_arg "Jain_rajaraman.analyse: m <= 0";
  let n = Rtlb.App.n_tasks app in
  let work =
    List.init n (fun i -> (Rtlb.App.columns app).Rtlb.App.compute.(i))
    |> List.fold_left ( + ) 0
  in
  let cp = Rtlb.App.critical_time app in
  let work_bound = if work = 0 then 0 else ceil_div work m in
  let lo = max cp work_bound in
  (* The density test is monotone in omega on this model; search upward
     from the naive lower bound. *)
  let rec climb omega =
    if omega >= lo + work then omega
    else if density_feasible app ~m ~omega then omega
    else climb (omega + 1)
  in
  let density = if work = 0 then 0 else climb (max 1 lo) in
  let upper = if work = 0 then 0 else cp + ceil_div (max 0 (work - cp)) m in
  {
    jr_m = m;
    jr_work_bound = work_bound;
    jr_path_bound = cp;
    jr_density_bound = density;
    jr_lower = max density (max work_bound cp);
    jr_upper = upper;
  }
