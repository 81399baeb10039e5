type t = { omega : int; est : int array; lct : int array; bound : int }

let analyse ?omega app =
  let graph = Rtlb.App.graph app in
  let n = Rtlb.App.n_tasks app in
  let compute i = (Rtlb.App.columns app).Rtlb.App.compute.(i) in
  let into = Dag.longest_path_lengths graph ~vertex_weight:compute in
  let critical = Array.fold_left max 0 into in
  let omega = Option.value ~default:critical omega in
  if omega < critical then
    invalid_arg "Fernandez_bussell.analyse: omega below critical time";
  let est = Array.init n (fun i -> into.(i) - compute i) in
  (* Tail longest path: longest chain starting at i, including i. *)
  let tail = Array.make n 0 in
  Array.iter
    (fun i ->
      let best =
        List.fold_left
          (fun acc j -> max acc tail.(j))
          0 (Dag.succ_ids graph i)
      in
      tail.(i) <- best + compute i)
    (Dag.reverse_topological_order graph);
  let lct = Array.init n (fun i -> omega - (tail.(i) - compute i)) in
  (* Load-density maximisation over intervals generated by the window
     endpoints — Fernandez and Bussell's Theorem 3 quantity. *)
  let points =
    Array.to_list est @ Array.to_list lct
    |> List.filter (fun p -> p >= 0 && p <= omega)
    |> List.cons 0 |> List.cons omega |> List.sort_uniq Stdlib.compare
    |> Array.of_list
  in
  let psi i ~t1 ~t2 =
    Rtlb.Overlap.psi ~preemptive:false ~est:est.(i) ~lct:lct.(i)
      ~compute:(compute i) ~t1 ~t2
  in
  let bound = ref 0 in
  let np = Array.length points in
  for a = 0 to np - 2 do
    for b = a + 1 to np - 1 do
      let t1 = points.(a) and t2 = points.(b) in
      let demand = ref 0 in
      for i = 0 to n - 1 do
        demand := !demand + psi i ~t1 ~t2
      done;
      if !demand > 0 then
        bound := max !bound ((!demand + t2 - t1 - 1) / (t2 - t1))
    done
  done;
  { omega; est; lct; bound = !bound }
