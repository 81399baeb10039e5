type t = { omega : int; est : int array; lct : int array; bound : int }

let compute_of app i = (Rtlb.App.columns app).Rtlb.App.compute.(i)

(* Forward pass: E_i = min over the choice of at most one co-located
   predecessor p of max(E_p + C_p, max_{j <> p} E_j + C_j + m_ji). *)
let est_single_merge app =
  let graph = Rtlb.App.graph app in
  let n = Rtlb.App.n_tasks app in
  let est = Array.make n 0 in
  Array.iter
    (fun i ->
      let preds = Dag.pred_ids graph i in
      let emr j = est.(j) + compute_of app j + Rtlb.App.message app ~src:j ~dst:i in
      let no_merge = List.fold_left (fun acc j -> max acc (emr j)) 0 preds in
      let merged p =
        List.fold_left
          (fun acc j -> if j = p then max acc (est.(j) + compute_of app j) else max acc (emr j))
          0 preds
      in
      let best =
        List.fold_left (fun acc p -> min acc (merged p)) no_merge preds
      in
      est.(i) <- best)
    (Dag.topological_order graph);
  est

let lct_single_merge app ~omega =
  let graph = Rtlb.App.graph app in
  let n = Rtlb.App.n_tasks app in
  let lct = Array.make n 0 in
  Array.iter
    (fun i ->
      let succs = Dag.succ_ids graph i in
      if succs = [] then lct.(i) <- omega
      else begin
        let lms j =
          lct.(j) - compute_of app j - Rtlb.App.message app ~src:i ~dst:j
        in
        let no_merge =
          List.fold_left (fun acc j -> min acc (lms j)) max_int succs
        in
        let merged s =
          List.fold_left
            (fun acc j ->
              if j = s then min acc (lct.(j) - compute_of app j)
              else min acc (lms j))
            max_int succs
        in
        lct.(i) <-
          List.fold_left (fun acc s -> max acc (merged s)) no_merge succs
      end)
    (Dag.reverse_topological_order graph);
  lct

let analyse ?omega app =
  let n = Rtlb.App.n_tasks app in
  let est = est_single_merge app in
  let min_omega =
    let m = ref 0 in
    for i = 0 to n - 1 do
      m := max !m (est.(i) + compute_of app i)
    done;
    !m
  in
  let omega = max min_omega (Option.value ~default:min_omega omega) in
  let lct = lct_single_merge app ~omega in
  let points =
    Array.to_list est @ Array.to_list lct
    |> List.sort_uniq Stdlib.compare
    |> Array.of_list
  in
  let bound = ref 0 in
  let np = Array.length points in
  for a = 0 to np - 2 do
    for b = a + 1 to np - 1 do
      let t1 = points.(a) and t2 = points.(b) in
      let demand = ref 0 in
      for i = 0 to n - 1 do
        demand :=
          !demand
          + Rtlb.Overlap.psi ~preemptive:false ~est:est.(i) ~lct:lct.(i)
              ~compute:(compute_of app i) ~t1 ~t2
      done;
      if !demand > 0 then
        bound := max !bound ((!demand + t2 - t1 - 1) / (t2 - t1))
    done
  done;
  { omega; est; lct; bound = !bound }
