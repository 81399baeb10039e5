type witness = { w_t1 : int; w_t2 : int; w_theta : int }

type bound = {
  resource : string;
  lb : int;
  witness : witness option;
  partition : Partition.t;
}

let theta ?resource ~est ~lct app tasks ~t1 ~t2 =
  List.fold_left
    (fun acc i ->
      let weight =
        match resource with
        | None -> 1
        | Some r -> App.units app i r
      in
      acc + (weight * Overlap.of_task ~est ~lct app i ~t1 ~t2))
    0 tasks

(* The Theorem 3/4 overlap of one task, as a function of t2 with t1
   fixed, is a clamped ramp: 0 until the window opens, then slope w up
   to a plateau of w*K.  Summing the per-task breakpoints once therefore
   answers every theta(t1, t2) query for that t1 in O(log n), instead of
   re-walking the task set per interval — the prefix-sum kernel behind
   the candidate-interval scan.

   Derivation from Overlap.psi (K = min(C, alpha(C - (t1 - E))) is the
   min of the constant terms; the two slope-1 terms fold into a single
   ramp started at the later breakpoint):

     non-preemptive: min(tail, t2 - t1)      = alpha(t2 - max(L - C, t1))
     preemptive:     min(tail, split)        = alpha(t2 - (L - C + alpha(t1 - E)))

   so psi(t2) = min(w*K, w * alpha(t2 - M)) for t2 > E, and 0 otherwise
   (the mu gate).  With a feasible window E + C <= L the gate is implied
   by the ramp start; with an infeasible one it can cut the ramp short,
   which the event construction below encodes as a start at E + 1. *)
module Theta_kernel = struct
  type t = {
    thr : int array;  (* ascending event thresholds *)
    slope : int array;  (* cumulative slope once thr.(i) <= t2 *)
    icept : int array;  (* cumulative intercept, same indexing *)
  }

  let make ?resource ~est ~lct app tasks ~t1 =
    let cols = App.columns app in
    let events = ref [] in
    let add thr ds di = events := (thr, ds, di) :: !events in
    List.iter
      (fun i ->
        let w =
          match resource with None -> 1 | Some r -> App.units app i r
        in
        let c = cols.App.compute.(i) in
        let e = est.(i) and l = lct.(i) in
        if w > 0 && c > 0 && l > t1 then begin
          let k = min c (c - (t1 - e)) in
          if k > 0 then begin
            let m =
              if cols.App.preemptive.(i) then l - c + max 0 (t1 - e)
              else max (l - c) t1
            in
            if e >= m + k then
              (* the mu gate opens past the whole ramp: a step to w*K *)
              add (e + 1) 0 (w * k)
            else begin
              let start = max m (e + 1) in
              add start w (-w * m);
              add (m + k) (-w) (w * (m + k))
            end
          end
        end)
      tasks;
    let events =
      List.sort (fun (a, _, _) (b, _, _) -> compare a b) !events
    in
    let n = List.length events in
    let thr = Array.make n 0
    and slope = Array.make n 0
    and icept = Array.make n 0 in
    let rec fill idx s ic = function
      | [] -> idx
      | (t, ds, di) :: rest ->
          let s = s + ds and ic = ic + di in
          if idx > 0 && thr.(idx - 1) = t then begin
            slope.(idx - 1) <- s;
            icept.(idx - 1) <- ic;
            fill idx s ic rest
          end
          else begin
            thr.(idx) <- t;
            slope.(idx) <- s;
            icept.(idx) <- ic;
            fill (idx + 1) s ic rest
          end
    in
    let used = fill 0 0 0 events in
    {
      thr = Array.sub thr 0 used;
      slope = Array.sub slope 0 used;
      icept = Array.sub icept 0 used;
    }

  let eval t ~t2 =
    (* largest index with thr <= t2, by binary search *)
    let n = Array.length t.thr in
    if n = 0 || t2 < t.thr.(0) then 0
    else begin
      let lo = ref 0 and hi = ref (n - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi + 1) / 2 in
        if t.thr.(mid) <= t2 then lo := mid else hi := mid - 1
      done;
      (t.slope.(!lo) * t2) + t.icept.(!lo)
    end
end

type point_policy = [ `Endpoints | `Enriched ]

(* The candidate points of [tasks], clipped to [lo, hi] with both ends
   included, sorted and deduplicated in one array: O(p log p) in the
   block's own points, whatever the size of the application. *)
let points ~policy ~est ~lct ~compute tasks ~lo ~hi =
  let per_task = match policy with `Endpoints -> 2 | `Enriched -> 4 in
  let buf = Array.make (2 + (per_task * List.length tasks)) lo in
  buf.(1) <- hi;
  let k = ref 2 in
  let add p =
    if p >= lo && p <= hi then begin
      buf.(!k) <- p;
      incr k
    end
  in
  List.iter
    (fun i ->
      add est.(i);
      add lct.(i);
      match policy with
      | `Endpoints -> ()
      | `Enriched ->
          let c = compute i in
          add (est.(i) + c);
          add (lct.(i) - c))
    tasks;
  let pts = Array.sub buf 0 !k in
  Array.sort Int.compare pts;
  let used = ref 1 in
  for j = 1 to Array.length pts - 1 do
    if pts.(j) <> pts.(!used - 1) then begin
      pts.(!used) <- pts.(j);
      incr used
    end
  done;
  Array.sub pts 0 !used

let candidate_points ?(policy = `Endpoints) ~est ~lct ?compute tasks ~lo ~hi =
  let compute =
    match (policy, compute) with
    | `Enriched, None ->
        invalid_arg "Lower_bound.candidate_points: `Enriched needs ~compute"
    | _, Some c -> fun i -> c.(i)
    | `Endpoints, None -> fun _ -> 0
  in
  Array.to_list (points ~policy ~est ~lct ~compute tasks ~lo ~hi)

(* ceil(a/b) for a >= 0, b > 0 *)
let ceil_div a b = (a + b - 1) / b

(* Merging two scan results keeps the earlier on ties (strict
   improvement only), exactly like the sequential loops; it is
   associative, so per-t1 results can be folded per block and then per
   resource without changing the winning witness. *)
let merge_scans (lb, wit) (b, w) = if b > lb then (b, w) else (lb, wit)

(* The candidate points of one block, as the scan array.  The compute
   times the `Enriched policy needs are read from the compute column. *)
let block_points ?(policy = `Endpoints) ~est ~lct app tasks ~lo ~hi =
  points ~policy ~est ~lct
    ~compute:(Array.get (App.columns app).App.compute)
    tasks ~lo ~hi

(* The densest interval starting at pts.(a): one prefix-sum kernel for
   the fixed left endpoint, then an O(log n) evaluation per right
   endpoint.  This is the unit of parallel work. *)
let scan_from ?resource ~est ~lct app tasks pts a =
  let n = Array.length pts in
  let t1 = pts.(a) in
  let kernel = Theta_kernel.make ?resource ~est ~lct app tasks ~t1 in
  let best = ref 0 and wit = ref None in
  for b = a + 1 to n - 1 do
    let t2 = pts.(b) in
    let demand = Theta_kernel.eval kernel ~t2 in
    if demand > 0 then begin
      let units = ceil_div demand (t2 - t1) in
      if units > !best then begin
        best := units;
        wit := Some { w_t1 = t1; w_t2 = t2; w_theta = demand }
      end
    end
  done;
  (!best, !wit)

(* Scan every interval generated by the candidate points of one block and
   keep the densest. *)
let scan_block ?policy ?resource ~est ~lct app tasks ~lo ~hi =
  let pts = block_points ?policy ~est ~lct app tasks ~lo ~hi in
  let acc = ref (0, None) in
  for a = 0 to Array.length pts - 2 do
    acc := merge_scans !acc (scan_from ?resource ~est ~lct app tasks pts a)
  done;
  !acc

let for_resource ?policy ~est ~lct app r =
  let tasks = App.tasks_using app r in
  let partition = Partition.compute ~est ~lct tasks in
  let lb, witness =
    List.fold_left2
      (fun (lb, wit) block (lo, hi) ->
        if lo >= hi then (lb, wit)
        else
          let b, w = scan_block ?policy ~resource:r ~est ~lct app block ~lo ~hi in
          if b > lb then (b, w) else (lb, wit))
      (0, None) partition.Partition.blocks partition.Partition.spans
  in
  { resource = r; lb; witness; partition }

let for_resource_unpartitioned ?policy ~est ~lct app r =
  let tasks = App.tasks_using app r in
  match tasks with
  | [] ->
      {
        resource = r;
        lb = 0;
        witness = None;
        partition = { Partition.blocks = []; spans = [] };
      }
  | _ ->
      let lo = List.fold_left (fun acc i -> min acc est.(i)) max_int tasks in
      let hi = List.fold_left (fun acc i -> max acc lct.(i)) min_int tasks in
      let lb, witness =
        if lo >= hi then (0, None)
        else scan_block ?policy ~resource:r ~est ~lct app tasks ~lo ~hi
      in
      {
        resource = r;
        lb;
        witness;
        partition = { Partition.blocks = [ tasks ]; spans = [ (lo, hi) ] };
      }

type completeness = [ `Complete | `Partial of float ]

(* The full scan, flattened to per-t1 granularity: one work item per
   (resource, partition block, left endpoint), so even a single dominant
   block parallelises, and a time budget can cut anywhere between two
   kernel scans.  Work items of one resource are contiguous and in the
   sequential scan order. *)
let scan_plan ?policy ~est ~lct app =
  let pointed =
    List.map
      (fun r ->
        let tasks = App.tasks_using app r in
        let partition = Partition.compute ~est ~lct tasks in
        let blocks =
          List.map2
            (fun block (lo, hi) ->
              if lo >= hi then (block, [||])
              else (block, block_points ?policy ~est ~lct app block ~lo ~hi))
            partition.Partition.blocks partition.Partition.spans
        in
        (r, partition, blocks))
      (App.resource_set app)
  in
  let work =
    List.concat_map
      (fun (r, _, blocks) ->
        List.concat_map
          (fun (block, pts) ->
            List.init
              (max 0 (Array.length pts - 1))
              (fun a -> (r, block, pts, a)))
          blocks)
      pointed
    |> Array.of_list
  in
  (pointed, work)

let all_within ?policy ?pool ?deadline_ns ?tracer ~est ~lct app =
  let tr = Option.value tracer ~default:Rtlb_obs.Tracer.null in
  let pointed, work =
    Rtlb_obs.Tracer.with_span tr "plan" (fun () ->
        scan_plan ?policy ~est ~lct app)
  in
  (* Counters are write-only telemetry: planned intervals counted here,
     executed evaluations counted inside the work-item body, so the two
     agree exactly when no deadline cut the scan short. *)
  if Rtlb_obs.Tracer.enabled tr then
    Rtlb_obs.Tracer.add tr Rtlb_obs.Tracer.Candidate_intervals
      (Array.fold_left
         (fun acc (_, _, pts, a) -> acc + (Array.length pts - 1 - a))
         0 work);
  (* Results come back slotted by index and are folded in exactly the
     sequential order — merge_scans is associative and tie-breaks on the
     earlier item, so bounds, witnesses and partitions are bit-identical
     to the sequential path whenever every item ran.  Items abandoned at
     the deadline fold as `no improvement', leaving the best bound found
     so far: still a valid lower bound, every witness still real. *)
  let scanned, _status =
    Rtlb_par.Pool.map_array_partial ?pool ?deadline_ns ~tracer:tr
      (fun (r, block, pts, a) ->
        let scan = scan_from ~resource:r ~est ~lct app block pts a in
        if Rtlb_obs.Tracer.enabled tr then begin
          Rtlb_obs.Tracer.add tr Rtlb_obs.Tracer.Tasks_scanned
            (List.length block);
          Rtlb_obs.Tracer.add tr Rtlb_obs.Tracer.Theta_evals
            (Array.length pts - 1 - a)
        end;
        scan)
      work
  in
  let items (_, _, blocks) =
    List.fold_left
      (fun acc (_, pts) -> acc + max 0 (Array.length pts - 1))
      0 blocks
  in
  let next = ref 0 and executed = ref 0 in
  let bounds =
    Rtlb_obs.Tracer.with_span tr "reduce" (fun () ->
        List.map
          (fun ((r, partition, _) as unit) ->
            let count = items unit in
            let acc = ref (0, None) in
            for i = !next to !next + count - 1 do
              match scanned.(i) with
              | Some scan ->
                  incr executed;
                  acc := merge_scans !acc scan
              | None -> ()
            done;
            next := !next + count;
            let lb, witness = !acc in
            { resource = r; lb; witness; partition })
          pointed)
  in
  let total = Array.length work in
  let completeness =
    if !executed = total then `Complete
    else `Partial (float_of_int !executed /. float_of_int total)
  in
  (bounds, completeness)

let all ?policy ?pool ?tracer ~est ~lct app =
  fst (all_within ?policy ?pool ?tracer ~est ~lct app)

let pp_bound ppf b =
  Format.fprintf ppf "LB_%s = %d" b.resource b.lb;
  match b.witness with
  | None -> ()
  | Some w ->
      Format.fprintf ppf "  (Theta(%s, %d, %d) = %d)" b.resource w.w_t1 w.w_t2
        w.w_theta
