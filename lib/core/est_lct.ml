type decision = Merged of int | Rejected_no_gain of int

type step = { candidate : int; msg_bound : int; decision : decision }

type trace = {
  center : int;
  no_merge_bound : int;
  steps : step list;
  bound : int;
  merged : int list;
}

type t = {
  est : int array;
  lct : int array;
  est_merged : int list array;
  lct_merged : int list array;
  est_trace : trace array;
  lct_trace : trace array;
}

let compute_time app i = (App.columns app).App.compute.(i)

let lms app ~lct ~src ~dst =
  lct.(dst) - compute_time app dst - App.message app ~src ~dst

let emr app ~est ~src ~dst =
  est.(src) + compute_time app src + App.message app ~src ~dst

(* The EST and LCT recursions are mirror images; [direction] packages the
   asymmetries so one greedy loop serves both.  Everything is phrased in
   "EST terms"; for the LCT direction the comparisons are flipped by
   [better]/[worse] and the sequential schedule by [seq]. *)

type direction = {
  neighbours : App.t -> int -> int list;  (* Pred_i or Succ_i *)
  boundary : App.t -> int -> int;  (* rel_i or D_i *)
  msg_of : App.t -> int array -> center:int -> other:int -> int;
  (* emr or lms *)
  combine : int -> int -> int;  (* max for EST, min for LCT *)
  identity : int;  (* neutral element of [combine] *)
  strictly_better : int -> int -> bool;  (* new bound improves on old *)
  candidate_order : int -> int -> int;
  (* examine candidates: decreasing emr / increasing lms *)
  seq : (int * int) list -> int;  (* ect or lst *)
  window : int array -> int -> int;  (* E_j or L_j of a neighbour *)
}

let est_direction =
  {
    neighbours = App.preds;
    boundary = (fun app i -> (App.columns app).App.release.(i));
    msg_of = (fun app est ~center ~other -> emr app ~est ~src:other ~dst:center);
    combine = max;
    identity = min_int;
    strictly_better = (fun fresh old -> fresh < old);
    candidate_order = compare;
    seq = Seq_schedule.ect;
    window = (fun est j -> est.(j));
  }

let lct_direction =
  {
    neighbours = App.succs;
    boundary = (fun app i -> (App.columns app).App.deadline.(i));
    msg_of = (fun app lct ~center ~other -> lms app ~lct ~src:center ~dst:other);
    combine = min;
    identity = max_int;
    strictly_better = (fun fresh old -> fresh > old);
    candidate_order = compare;
    seq = Seq_schedule.lst;
    window = (fun lct j -> lct.(j));
  }

(* Equation 4.5 / 4.1 for an explicit merge set [a] (a sublist of the
   neighbours).  [values] holds the already-computed E/L of neighbours. *)
let bound_of_merge_set dir system app values i a =
  let nbrs = dir.neighbours app i in
  if not (List.for_all (fun j -> List.mem j nbrs) a) then None
  else if not (System.mergeable system app (i :: a)) then None
  else
    let boundary = dir.boundary app i in
    let unmerged = List.filter (fun j -> not (List.mem j a)) nbrs in
    let msg =
      List.fold_left
        (fun acc j -> dir.combine acc (dir.msg_of app values ~center:i ~other:j))
        dir.identity unmerged
    in
    let seq_bound =
      match a with
      | [] -> dir.identity
      | _ -> dir.seq (List.map (fun j -> (dir.window values j, compute_time app j)) a)
    in
    Some (dir.combine (dir.combine boundary msg) seq_bound)

(* Exact merge search for task [i] (see the .mli note).

   The paper's Figures 2/3 examine candidates greedily and stop at the
   first non-improving merge; that misses optima such as two predecessors
   with equal [emr] where only merging BOTH helps (and Theorem 2's proof,
   Case 2a, silently assumes the blocking term is [ect]).  The correct
   structure: inside a pool (a candidate set closed under union, cf.
   [System.merge_pools]) the optimal merge set is always a threshold set
   "all candidates with msg bound beyond v" --- any other member can be
   dropped without hurting, and every candidate beyond the threshold must
   be included --- and threshold sets are exactly the prefixes of the pool
   in msg-bound order.  Scanning every prefix of every pool is therefore
   an exact, polynomial search. *)
let scan_merges dir system app values i =
  let nbrs = dir.neighbours app i in
  match nbrs with
  | [] ->
      let bound = dir.boundary app i in
      { center = i; no_merge_bound = bound; steps = []; bound; merged = [] }
  | _ ->
      let no_merge =
        match bound_of_merge_set dir system app values i [] with
        | Some b -> b
        | None -> assert false
      in
      let sort_pool pool =
        List.map (fun j -> (dir.msg_of app values ~center:i ~other:j, j)) pool
        |> List.sort (fun (m1, j1) (m2, j2) ->
               let c = dir.candidate_order m1 m2 in
               if c <> 0 then c else compare j1 j2)
      in
      (* Value every prefix of a pool (in msg-bound order); keep the best
         value together with its shortest witness prefix. *)
      let scan_pool pool =
        let sorted = sort_pool pool in
        let rec go prefix_rev acc = function
          | [] -> List.rev acc
          | (msg_bound, j) :: rest ->
              let prefix_rev = j :: prefix_rev in
              let prefix = List.rev prefix_rev in
              let value =
                match bound_of_merge_set dir system app values i prefix with
                | Some b -> b
                | None -> assert false
              in
              go prefix_rev ((msg_bound, j, prefix, value) :: acc) rest
        in
        let valued = go [] [] sorted in
        let best =
          List.fold_left
            (fun acc (_, _, prefix, value) ->
              match acc with
              | Some (_, cur) when not (dir.strictly_better value cur) -> acc
              | _ -> Some (prefix, value))
            None valued
        in
        (valued, best)
      in
      let scans =
        List.map (scan_pool) (System.merge_pools system app ~center:i nbrs)
      in
      let best_scan =
        List.fold_left
          (fun acc scan ->
            match (acc, scan) with
            | None, _ -> Some scan
            | Some (_, Some (_, cur)), (_, Some (_, value))
              when dir.strictly_better value cur ->
                Some scan
            | Some (_, None), (_, Some _) -> Some scan
            | Some _, _ -> acc)
          None scans
      in
      let bound, merged, steps =
        match best_scan with
        | Some (valued, Some (prefix, value))
          when dir.strictly_better value no_merge ->
            (* Trace the accepted prefix and, when present, the first
               extension beyond it (a no-gain rejection). *)
            let k = List.length prefix in
            let steps =
              List.filteri (fun idx _ -> idx <= k) valued
              |> List.mapi (fun idx (msg_bound, j, _, v) ->
                     {
                       candidate = j;
                       msg_bound;
                       decision =
                         (if idx < k then Merged v else Rejected_no_gain v);
                     })
            in
            (value, prefix, steps)
        | None | Some (_, _) ->
            (* No pool improves on the unmerged bound; trace the first
               rejection for visibility when a candidate exists. *)
            let steps =
              match scans with
              | (( msg_bound, j, _, v) :: _, _) :: _ ->
                  [ { candidate = j; msg_bound;
                      decision = Rejected_no_gain v } ]
              | _ -> []
            in
            (no_merge, [], steps)
      in
      { center = i; no_merge_bound = no_merge; steps; bound; merged }

let greedy = scan_merges

(* For the LCT of a task, candidates sorted by increasing lms; for the EST,
   by decreasing emr.  [est_direction.candidate_order] above is ascending
   compare, so flip it here for EST. *)
let est_direction = { est_direction with candidate_order = (fun a b -> compare b a) }

let compute system app =
  let n = App.n_tasks app in
  let est = Array.make n 0 and lct = Array.make n 0 in
  let est_merged = Array.make n [] and lct_merged = Array.make n [] in
  let est_trace =
    Array.make n { center = 0; no_merge_bound = 0; steps = []; bound = 0; merged = [] }
  in
  let lct_trace = Array.copy est_trace in
  let order = Dag.topological_order (App.graph app) in
  Array.iter
    (fun i ->
      let tr = greedy est_direction system app est i in
      est.(i) <- tr.bound;
      est_merged.(i) <- tr.merged;
      est_trace.(i) <- tr)
    order;
  Array.iter
    (fun i ->
      let tr = greedy lct_direction system app lct i in
      lct.(i) <- tr.bound;
      lct_merged.(i) <- tr.merged;
      lct_trace.(i) <- tr)
    (Dag.reverse_topological_order (App.graph app));
  { est; lct; est_merged; lct_merged; est_trace; lct_trace }

let est_of_merge_set system app ~est i a =
  bound_of_merge_set est_direction system app est i a

let lct_of_merge_set system app ~lct i a =
  bound_of_merge_set lct_direction system app lct i a

let windows t = { Windows.est = t.est; lct = t.lct }

let pp_trace app ppf tr =
  let name i = (App.columns app).App.names.(i) in
  Format.fprintf ppf "@[<v>%s: no-merge bound %d" (name tr.center)
    tr.no_merge_bound;
  List.iter
    (fun s ->
      Format.fprintf ppf "@,  consider %s (msg bound %d): %s" (name s.candidate)
        s.msg_bound
        (match s.decision with
        | Merged b -> Printf.sprintf "merged, bound -> %d" b
        | Rejected_no_gain b -> Printf.sprintf "rejected (bound would be %d)" b))
    tr.steps;
  Format.fprintf ppf "@,  final %d, merged {%s}@]" tr.bound
    (String.concat ", " (List.map name tr.merged))
