(* Structure-of-arrays analysis engine.

   [pack] compiles an instance once into contiguous [Bigarray] int
   arrays — per-task scalars and a per-resource member table — and the
   sweeps below iterate over those arrays, and over the CSR adjacency
   the instance's [Dag] already holds (read in place, not copied),
   instead of chasing per-task records.  The merge search, the
   Section-5 partition and the Theta prefix-sum interval scan are
   re-derived on the packed layout with the exact integer arithmetic of
   the record path ([Est_lct] / [Partition] / [Lower_bound]), so
   windows, bounds, witnesses and costs are bit-identical; only the
   merge {e traces} (an explanation artifact) are not reconstructed.

   The interval scan adds candidate-interval dominance pruning: for a
   fixed left endpoint t1 the kernel total is bounded by

     theta_max(t1) = sum over tasks with L > t1 of w * max(0, C - max(0, t1 - E))

   and ceil(theta_max / (t2 - t1)) is non-increasing in t2, so once it
   drops strictly below the block's incumbent bound no interval starting
   at t1 can improve on it and the right-endpoint loop stops; a whole
   left endpoint is skipped when even its first gap cannot beat the
   incumbent.  Pruning is strict-inequality only and the incumbent is a
   per-block monotone maximum seeded from real interval values, so every
   interval achieving the block maximum is always evaluated and the
   fold ([Lower_bound.merge_scans], earlier-wins on ties) returns the
   same bound and the same earliest witness as the exhaustive scan, on
   the sequential and the pool path alike. *)

open Bigarray

type ia = (int, int_elt, c_layout) Array1.t

let ia n : ia = Array1.create int c_layout n

(* Scratch of the EST/LCT sweep, made once per packed instance. *)
type sweep_ws = {
  mutable cap : int;
  mutable cm : int array;  (* pool candidate msg bounds *)
  mutable cid : int array;  (* pool candidate ids *)
  mutable suf : int array;  (* suffix combine of cm *)
  mutable sv : int array;  (* prefix jobs sorted by window value *)
  mutable sc : int array;  (* their computes *)
}

let sweep_ws () =
  { cap = 16; cm = Array.make 16 0; cid = Array.make 16 0;
    suf = Array.make 17 0; sv = Array.make 16 0; sc = Array.make 16 0 }

type t = {
  system : System.t;
  n : int;
  (* per-task scalars *)
  release : ia;
  deadline : ia;
  compute : ia;
  preempt : ia;  (* 0/1 *)
  proc : ia;  (* index into [procs] *)
  host_words : int;  (* mask words per task in [host] *)
  host : ia;
      (* dedicated: task i can run on node type k iff bit [k mod mask_bits]
         of word [i * host_words + k / mask_bits] is set; shared: 0 *)
  (* the Dag's own CSR rows, message sizes as weights *)
  succ : Dag.csr;
  pred : Dag.csr;
  topo : int array;
  (* resource universe, RES order *)
  res_names : string array;
  res_off : ia;
  res_task : ia;  (* member ids, ascending *)
  res_units : ia;
  (* decode tables for [unpack] *)
  names : string array;
  procs : string array;
  nts : System.node_type array;  (* [] for shared systems *)
  (* window outputs, computed in place *)
  est : ia;
  lct : ia;
  sweep : sweep_ws;
  mutable flags : int array;  (* of an edit in progress; [||] before one *)
}

(* ------------------------------------------------------------------ *)
(* Packing                                                             *)
(* ------------------------------------------------------------------ *)

let mask_bits = Sys.int_size - 2

(* [f i (code r) u] for each demand [(r, u)] of task [i]. *)
let rec iter_demands f code i = function
  | [] -> ()
  | (r, u) :: rest ->
      f i (code r) u;
      iter_demands f code i rest

let pack system app =
  let n = App.n_tasks app in
  let g = App.graph app in
  let nts = Array.of_list (System.node_types system) in
  let host_words = max 1 ((Array.length nts + mask_bits - 1) / mask_bits) in
  let release = ia n
  and deadline = ia n
  and compute = ia n
  and preempt = ia n
  and proc = ia n
  and host = ia (n * host_words) in
  Array1.fill host 0;
  let proc_code = Hashtbl.create 16 in
  let procs = ref [] and n_procs = ref 0 in
  (* a name physically equal to the last one looked up (the [.app]
     reader interns names) keeps its code without a hash *)
  let last_proc = ref "" and last_code = ref (-1) in
  let names = Array.make n "" in
  for i = 0 to n - 1 do
    let task = App.task app i in
    names.(i) <- task.Task.name;
    release.{i} <- task.Task.release;
    deadline.{i} <- task.Task.deadline;
    compute.{i} <- task.Task.compute;
    preempt.{i} <- (if task.Task.preemptive then 1 else 0);
    let p = task.Task.proc in
    if !last_code < 0 || p != !last_proc then begin
      last_proc := p;
      last_code :=
        match Hashtbl.find_opt proc_code p with
        | Some c -> c
        | None ->
            let c = !n_procs in
            incr n_procs;
            Hashtbl.add proc_code p c;
            procs := p :: !procs;
            c
    end;
    proc.{i} <- !last_code;
    for k = 0 to Array.length nts - 1 do
      if System.node_can_host nts.(k) task then begin
        let w = (i * host_words) + (k / mask_bits) in
        host.{w} <- host.{w} lor (1 lsl (k mod mask_bits))
      end
    done
  done;
  let procs = Array.of_list (List.rev !procs) in
  (* per-resource member table, RES order: count every (task, resource)
     demand, then place them in task order, so members come out
     ascending *)
  let res_names = Array.of_list (App.resource_set app) in
  let nr = Array.length res_names in
  let res_index = Hashtbl.create 16 in
  Array.iteri (fun k r -> Hashtbl.replace res_index r k) res_names;
  let proc_res = Array.map (Hashtbl.find res_index) procs in
  let last_res = ref "" and last_index = ref (-1) in
  let res_code r =
    if !last_index < 0 || r != !last_res then begin
      last_res := r;
      last_index := Hashtbl.find res_index r
    end;
    !last_index
  in
  let each_demand f =
    for i = 0 to n - 1 do
      f i proc_res.(proc.{i}) 1;
      iter_demands f res_code i (App.task app i).Task.demands
    done
  in
  let res_off = ia (nr + 1) in
  Array1.fill res_off 0;
  each_demand (fun _ k _ -> res_off.{k + 1} <- res_off.{k + 1} + 1);
  for k = 1 to nr do
    res_off.{k} <- res_off.{k} + res_off.{k - 1}
  done;
  let res_task = ia res_off.{nr} and res_units = ia res_off.{nr} in
  let next = Array.init nr (fun k -> res_off.{k}) in
  each_demand (fun i k u ->
      let p = next.(k) in
      res_task.{p} <- i;
      res_units.{p} <- u;
      next.(k) <- p + 1);
  {
    system;
    n;
    release;
    deadline;
    compute;
    preempt;
    proc;
    host_words;
    host;
    succ = Dag.succ_csr g;
    pred = Dag.pred_csr g;
    topo = Dag.topological_order g;
    res_names;
    res_off;
    res_task;
    res_units;
    names;
    procs;
    nts;
    est = ia n;
    lct = ia n;
    sweep = sweep_ws ();
    flags = [||];
  }

(* Rebuild an [App.t] from the packed arrays alone — [pack] keeps no
   reference to the application (the edges come from the CSR rows it
   borrowed), which is what makes the round-trip test meaningful. *)
let unpack t =
  let n = t.n in
  (* invert the per-resource member table into per-task demand lists *)
  let demands = Array.make n [] in
  for k = Array.length t.res_names - 1 downto 0 do
    let r = t.res_names.(k) in
    for p = t.res_off.{k} to t.res_off.{k + 1} - 1 do
      let i = t.res_task.{p} in
      if not (String.equal r t.procs.(t.proc.{i})) then
        demands.(i) <- (r, t.res_units.{p}) :: demands.(i)
    done
  done;
  let tasks =
    List.init n (fun i ->
        let resources =
          List.concat_map (fun (r, u) -> List.init u (fun _ -> r)) demands.(i)
        in
        Task.make ~id:i ~name:t.names.(i) ~compute:t.compute.{i}
          ~release:t.release.{i} ~deadline:t.deadline.{i}
          ~proc:t.procs.(t.proc.{i}) ~resources
          ~preemptive:(t.preempt.{i} = 1) ())
  in
  let edges = ref [] in
  for i = n - 1 downto 0 do
    for p = t.succ.Dag.off.(i + 1) - 1 downto t.succ.Dag.off.(i) do
      edges := (i, t.succ.Dag.adj.(p), t.succ.Dag.weight.(p)) :: !edges
    done
  done;
  App.make ~tasks ~edges:!edges

(* ------------------------------------------------------------------ *)
(* EST / LCT merge-search sweep over the packed arrays                  *)
(*                                                                     *)
(* Exactly [Est_lct.scan_merges] in array clothing: value every prefix *)
(* of every merge pool in msg-bound order and keep the best against    *)
(* the no-merge bound.  See est_lct.ml for why prefixes are exact.     *)
(* ------------------------------------------------------------------ *)

let ensure ws cap =
  if cap > ws.cap then begin
    let cap = max cap (2 * ws.cap) in
    ws.cap <- cap;
    ws.cm <- Array.make cap 0;
    ws.cid <- Array.make cap 0;
    ws.suf <- Array.make (cap + 1) 0;
    ws.sv <- Array.make cap 0;
    ws.sc <- Array.make cap 0
  end

(* The sweep is first-order: [is_est] picks the EST recursion (preds,
   max-combine, minimise) or the LCT mirror (succs, min-combine,
   maximise) by a branch, not by closures, so a sweep allocates
   nothing. *)

let[@inline] combine is_est (a : int) b =
  if is_est then if a >= b then a else b else if a <= b then a else b

(* The msg bound of the neighbour at CSR position [p] of [rows]. *)
let[@inline] msg_bound t is_est (rows : Dag.csr) p =
  let j = rows.Dag.adj.(p) in
  if is_est then t.est.{j} + t.compute.{j} + rows.Dag.weight.(p)
  else t.lct.{j} - t.compute.{j} - rows.Dag.weight.(p)

(* Whether the neighbour at CSR position [p] is in task [i]'s merge pool:
   the same processor type on a shared system ([k] < 0), or a host of
   node type [k] on a dedicated one. *)
let[@inline] in_pool t (rows : Dag.csr) i k p =
  let j = rows.Dag.adj.(p) in
  if k < 0 then t.proc.{j} = t.proc.{i}
  else
    t.host.{(j * t.host_words) + (k / mask_bits)} land (1 lsl (k mod mask_bits))
    <> 0

(* Value the prefixes of one merge pool of task [i] (rows [d0, d1)) and
   return [best] improved by them. *)
let scan_pool t ws is_est rows i k d0 d1 boundary best =
  let identity = if is_est then min_int else max_int in
  let pl = ref 0 and nonpool = ref identity in
  for p = d0 to d1 - 1 do
    if in_pool t rows i k p then begin
      let x = !pl in
      ws.cm.(x) <- msg_bound t is_est rows p;
      ws.cid.(x) <- rows.Dag.adj.(p);
      pl := x + 1
    end
    else nonpool := combine is_est !nonpool (msg_bound t is_est rows p)
  done;
  let pl = !pl in
  let best = ref best in
  if pl > 0 then begin
    (* sort by msg bound — decreasing emr for EST, increasing lms for
       LCT — with ascending id tie-break, as the record path does *)
    for x = 1 to pl - 1 do
      let m = ws.cm.(x) and j = ws.cid.(x) in
      let y = ref x in
      while
        !y > 0
        &&
        let pm = ws.cm.(!y - 1) and pj = ws.cid.(!y - 1) in
        if pm <> m then if is_est then pm < m else pm > m else pj > j
      do
        ws.cm.(!y) <- ws.cm.(!y - 1);
        ws.cid.(!y) <- ws.cid.(!y - 1);
        decr y
      done;
      ws.cm.(!y) <- m;
      ws.cid.(!y) <- j
    done;
    ws.suf.(pl) <- identity;
    for x = pl - 1 downto 0 do
      ws.suf.(x) <- combine is_est ws.suf.(x + 1) ws.cm.(x)
    done;
    let base = combine is_est boundary !nonpool in
    (* grow the prefix one candidate at a time, keeping the prefix jobs
       sorted by window value for the sequential bound *)
    for k = 1 to pl do
      let j = ws.cid.(k - 1) in
      let v = if is_est then t.est.{j} else t.lct.{j} in
      let c = t.compute.{j} in
      let x = ref (k - 1) in
      while
        !x > 0 && if is_est then ws.sv.(!x - 1) > v else ws.sv.(!x - 1) < v
      do
        ws.sv.(!x) <- ws.sv.(!x - 1);
        ws.sc.(!x) <- ws.sc.(!x - 1);
        decr x
      done;
      ws.sv.(!x) <- v;
      ws.sc.(!x) <- c;
      (* ect: ascending EST fold; lst: descending LCT fold *)
      let seqv = ref identity in
      for x = 0 to k - 1 do
        seqv :=
          if is_est then combine true !seqv ws.sv.(x) + ws.sc.(x)
          else combine false !seqv ws.sv.(x) - ws.sc.(x)
      done;
      let value = combine is_est (combine is_est base ws.suf.(k)) !seqv in
      if if is_est then value < !best else value > !best then best := value
    done
  end;
  !best

(* One direction of the sweep for one task. *)
let sweep_task t ws ~is_est i =
  let rows = if is_est then t.pred else t.succ in
  let d0 = rows.Dag.off.(i) and d1 = rows.Dag.off.(i + 1) in
  let boundary = if is_est then t.release.{i} else t.deadline.{i} in
  if d1 = d0 then boundary
  else begin
    let msg_all = ref (if is_est then min_int else max_int) in
    for p = d0 to d1 - 1 do
      msg_all := combine is_est !msg_all (msg_bound t is_est rows p)
    done;
    let best = ref (combine is_est boundary !msg_all) in
    ensure ws (d1 - d0);
    (match t.system with
    | System.Shared _ ->
        best := scan_pool t ws is_est rows i (-1) d0 d1 boundary !best
    | System.Dedicated _ ->
        let hw = t.host_words in
        for k = 0 to Array.length t.nts - 1 do
          if
            t.host.{(i * hw) + (k / mask_bits)} land (1 lsl (k mod mask_bits))
            <> 0
          then best := scan_pool t ws is_est rows i k d0 d1 boundary !best
        done);
    !best
  end

let compute_windows t =
  let ws = t.sweep in
  for k = 0 to t.n - 1 do
    let i = t.topo.(k) in
    t.est.{i} <- sweep_task t ws ~is_est:true i
  done;
  for k = t.n - 1 downto 0 do
    let i = t.topo.(k) in
    t.lct.{i} <- sweep_task t ws ~is_est:false i
  done

(* The windows record, values only: merge traces are an explanation
   artifact of the record engine and are left empty here. *)
let windows t =
  let est = Array.init t.n (fun i -> t.est.{i})
  and lct = Array.init t.n (fun i -> t.lct.{i}) in
  let trace v =
    Array.init t.n (fun i ->
        {
          Est_lct.center = i;
          no_merge_bound = v.(i);
          steps = [];
          bound = v.(i);
          merged = [];
        })
  in
  {
    Est_lct.est;
    lct;
    est_merged = Array.make t.n [];
    lct_merged = Array.make t.n [];
    est_trace = trace est;
    lct_trace = trace lct;
  }

(* ------------------------------------------------------------------ *)
(* Theta kernel over the packed arrays                                  *)
(* ------------------------------------------------------------------ *)

let ceil_div a b = (a + b - 1) / b

(* Scan scratch: event buffers, the cumulative kernel arrays and a
   bucket accumulator for the counting-sort fast path.  Reused across
   work items so the scan allocates nothing per task. *)
type kernel_ws = {
  mutable kcap : int;
  mutable ev_thr : int array;
  mutable ev_ds : int array;
  mutable ev_di : int array;
  mutable thr : int array;
  mutable slope : int array;
  mutable icept : int array;
  mutable kn : int;  (* kernel entries in use *)
  mutable bcap : int;
  mutable bds : int array;  (* bucket slope deltas, zeroed after use *)
  mutable bdi : int array;
}

let kernel_ws () =
  {
    kcap = 32;
    ev_thr = Array.make 64 0;
    ev_ds = Array.make 64 0;
    ev_di = Array.make 64 0;
    thr = Array.make 64 0;
    slope = Array.make 64 0;
    icept = Array.make 64 0;
    kn = 0;
    bcap = 0;
    bds = [||];
    bdi = [||];
  }

(* Each domain keeps one spare workspace.  A scan takes it out of the
   domain's cell for the whole work item and puts the same [Some] block
   back afterwards (so the common path allocates nothing), and
   systhreads of one domain never share it: a thread switch inside a
   scan leaves the cell empty, and a scan that finds it empty builds a
   workspace of its own. *)
let spare_kernel =
  Domain.DLS.new_key (fun () -> Atomic.make (Some (kernel_ws ())))

let ensure_kernel ws cap =
  if cap > ws.kcap then begin
    let cap = max cap (2 * ws.kcap) in
    ws.kcap <- cap;
    ws.ev_thr <- Array.make (2 * cap) 0;
    ws.ev_ds <- Array.make (2 * cap) 0;
    ws.ev_di <- Array.make (2 * cap) 0;
    ws.thr <- Array.make (2 * cap) 0;
    ws.slope <- Array.make (2 * cap) 0;
    ws.icept <- Array.make (2 * cap) 0
  end

let ensure_buckets ws len =
  if len > ws.bcap then begin
    let len = max len (2 * ws.bcap) in
    ws.bcap <- len;
    ws.bds <- Array.make len 0;
    ws.bdi <- Array.make len 0
  end

(* Build the cumulative (thr, slope, icept) arrays for the fixed left
   endpoint [t1] over the block members [ids]/[w].  Same events as
   [Lower_bound.Theta_kernel.make]; equal thresholds collapse into one
   cumulative entry, so evaluations are identical. *)
let build_kernel t ws ids w nb ~t1 =
  ensure_kernel ws (2 * nb);
  let nev = ref 0 in
  let push thr ds di =
    let k = !nev in
    ws.ev_thr.(k) <- thr;
    ws.ev_ds.(k) <- ds;
    ws.ev_di.(k) <- di;
    nev := k + 1
  in
  for x = 0 to nb - 1 do
    let i = ids.(x) in
    let wi = w.(x) in
    let c = t.compute.{i} in
    let l = t.lct.{i} in
    if wi > 0 && c > 0 && l > t1 then begin
      let e = t.est.{i} in
      let k = if t1 <= e then c else c - (t1 - e) in
      if k > 0 then begin
        let m =
          if t.preempt.{i} = 1 then l - c + max 0 (t1 - e) else max (l - c) t1
        in
        if e >= m + k then push (e + 1) 0 (wi * k)
        else begin
          push (max m (e + 1)) wi (-wi * m);
          push (m + k) (-wi) (wi * (m + k))
        end
      end
    end
  done;
  let nev = !nev in
  if nev = 0 then ws.kn <- 0
  else begin
    let lo = ref max_int and hi = ref min_int in
    for k = 0 to nev - 1 do
      if ws.ev_thr.(k) < !lo then lo := ws.ev_thr.(k);
      if ws.ev_thr.(k) > !hi then hi := ws.ev_thr.(k)
    done;
    let span = !hi - !lo + 1 in
    let kn = ref 0 in
    if span <= (4 * nev) + 64 then begin
      (* counting sort over the threshold span *)
      ensure_buckets ws span;
      for k = 0 to nev - 1 do
        let o = ws.ev_thr.(k) - !lo in
        ws.bds.(o) <- ws.bds.(o) + ws.ev_ds.(k);
        ws.bdi.(o) <- ws.bdi.(o) + ws.ev_di.(k)
      done;
      let s = ref 0 and ic = ref 0 in
      for o = 0 to span - 1 do
        if ws.bds.(o) <> 0 || ws.bdi.(o) <> 0 then begin
          s := !s + ws.bds.(o);
          ic := !ic + ws.bdi.(o);
          ws.bds.(o) <- 0;
          ws.bdi.(o) <- 0;
          ws.thr.(!kn) <- !lo + o;
          ws.slope.(!kn) <- !s;
          ws.icept.(!kn) <- !ic;
          incr kn
        end
      done
    end
    else begin
      (* sparse thresholds: comparison sort of the event triples *)
      let evs =
        Array.init nev (fun k -> (ws.ev_thr.(k), ws.ev_ds.(k), ws.ev_di.(k)))
      in
      Array.sort (fun (a, _, _) (b, _, _) -> compare a b) evs;
      let s = ref 0 and ic = ref 0 in
      Array.iter
        (fun (thr, ds, di) ->
          s := !s + ds;
          ic := !ic + di;
          if !kn > 0 && ws.thr.(!kn - 1) = thr then begin
            ws.slope.(!kn - 1) <- !s;
            ws.icept.(!kn - 1) <- !ic
          end
          else begin
            ws.thr.(!kn) <- thr;
            ws.slope.(!kn) <- !s;
            ws.icept.(!kn) <- !ic;
            incr kn
          end)
        evs
    end;
    ws.kn <- !kn
  end

let eval_kernel ws ~t2 =
  let n = ws.kn in
  if n = 0 || t2 < ws.thr.(0) then 0
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if ws.thr.(mid) <= t2 then lo := mid else hi := mid - 1
    done;
    (ws.slope.(!lo) * t2) + ws.icept.(!lo)
  end

(* ------------------------------------------------------------------ *)
(* Partition, candidate points and the dominance-pruned interval scan   *)
(* ------------------------------------------------------------------ *)

(* One scannable partition block, fully planned. *)
type blk = {
  b_ids : int array;  (* member ids, partition order *)
  b_w : int array;  (* member weights for the resource *)
  b_pts : int array;  (* candidate points, ascending, deduped *)
  b_tmax : int array;  (* theta_max at each left endpoint *)
  b_inc : int Atomic.t;  (* incumbent block bound for pruning *)
  mutable b_slot0 : int;  (* first work slot of the block *)
}

(* theta_max(t1) for every candidate point of a block, by an event sweep
   over t1: a member contributes the constant w*C up to its EST, then a
   ramp of slope -w, and nothing once t1 reaches min(E + C, L).  An
   event at threshold thr applies from the first point >= thr on, so
   the events are bucketed by that point (a binary search) and summed
   in point order — no sort. *)
let block_theta_max t ids w nb pts =
  let np = Array.length pts in
  let dslope = Array.make (np + 1) 0 and dicept = Array.make (np + 1) 0 in
  let event thr ds di =
    let lo = ref 0 and hi = ref np in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if pts.(mid) < thr then lo := mid + 1 else hi := mid
    done;
    dslope.(!lo) <- dslope.(!lo) + ds;
    dicept.(!lo) <- dicept.(!lo) + di
  in
  let base = ref 0 in
  for x = 0 to nb - 1 do
    let i = ids.(x) in
    let wi = w.(x) in
    let c = t.compute.{i} in
    if wi > 0 && c > 0 then begin
      let e = t.est.{i} in
      let stop = min (e + c) t.lct.{i} in
      base := !base + (wi * c);
      if stop <= e then event stop 0 (-wi * c)
      else begin
        event (e + 1) (-wi) (wi * e);
        event stop wi (-wi * (c + e))
      end
    end
  done;
  let slope = ref 0 and icept = ref !base in
  Array.init np (fun a ->
      slope := !slope + dslope.(a);
      icept := !icept + dicept.(a);
      (!slope * pts.(a)) + !icept)

let rec atomic_max a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then atomic_max a v

(* Scan the intervals with left endpoint [pts.(a)], pruned against the
   block incumbent.  Mirrors [Lower_bound.scan_from]; counters follow
   the record path's convention (tasks per executed kernel, executed
   evaluations). *)
let scan_item t ~prune ~tr blk a =
  let pts = blk.b_pts in
  let np = Array.length pts in
  let t1 = pts.(a) in
  (* [b_tmax] is only populated when the plan was built with pruning. *)
  let tmax = if prune then blk.b_tmax.(a) else 0 in
  let inc0 = if prune then Atomic.get blk.b_inc else 0 in
  if
    prune
    && (tmax <= 0 || (inc0 > 0 && ceil_div tmax (pts.(a + 1) - t1) < inc0))
  then (0, None)
  else begin
    let spare = Domain.DLS.get spare_kernel in
    let held = Atomic.exchange spare None in
    let ws = match held with Some ws -> ws | None -> kernel_ws () in
    let nb = Array.length blk.b_ids in
    build_kernel t ws blk.b_ids blk.b_w nb ~t1;
    let best = ref 0 and wit = ref None and evals = ref 0 in
    (try
       for b = a + 1 to np - 1 do
         let t2 = pts.(b) in
         if prune then begin
           let inc = max !best (Atomic.get blk.b_inc) in
           if inc > 0 && ceil_div tmax (t2 - t1) < inc then raise Exit
         end;
         incr evals;
         let demand = eval_kernel ws ~t2 in
         if demand > 0 then begin
           let units = ceil_div demand (t2 - t1) in
           if units > !best then begin
             best := units;
             wit :=
               Some { Lower_bound.w_t1 = t1; w_t2 = t2; w_theta = demand };
             if prune then atomic_max blk.b_inc units
           end
         end
       done
     with Exit -> ());
    if Option.is_some held then Atomic.set spare held;
    if Rtlb_obs.Tracer.enabled tr then begin
      Rtlb_obs.Tracer.add tr Rtlb_obs.Tracer.Tasks_scanned nb;
      Rtlb_obs.Tracer.add tr Rtlb_obs.Tracer.Theta_evals !evals
    end;
    (!best, !wit)
  end

(* Partition the members of resource [r_idx] exactly as
   [Partition.compute]: sort by (EST asc, LCT desc, id asc), then sweep
   with the strict window-overlap rule.  Returns the member slots in
   partition order and each block as [(x0, x1, lo, hi)]: its range of
   that order and its span. *)
let partition_resource t r_idx =
  let m0 = t.res_off.{r_idx} and m1 = t.res_off.{r_idx + 1} in
  let nm = m1 - m0 in
  let ord = Array.init nm (fun x -> m0 + x) in
  (* a total order, so the (faster) merge sort gives the same result *)
  Array.stable_sort
    (fun pa pb ->
      let a = t.res_task.{pa} and b = t.res_task.{pb} in
      let c = compare t.est.{a} t.est.{b} in
      if c <> 0 then c
      else
        let c = compare t.lct.{b} t.lct.{a} in
        if c <> 0 then c else compare a b)
    ord;
  if nm = 0 then (ord, [])
  else begin
    let ranges = ref [] in
    let start = ref 0 in
    let first = t.res_task.{ord.(0)} in
    let s = ref t.est.{first} and f = ref t.lct.{first} in
    for x = 1 to nm - 1 do
      let i = t.res_task.{ord.(x)} in
      if t.est.{i} < !f then begin
        if t.est.{i} < !s then s := t.est.{i};
        if t.lct.{i} > !f then f := t.lct.{i}
      end
      else begin
        ranges := (!start, x, !s, !f) :: !ranges;
        start := x;
        s := t.est.{i};
        f := t.lct.{i}
      end
    done;
    (ord, List.rev ((!start, nm, !s, !f) :: !ranges))
  end

let partition_record t ord ranges =
  {
    Partition.blocks =
      List.map
        (fun (x0, x1, _, _) ->
          List.init (x1 - x0) (fun k -> t.res_task.{ord.(x0 + k)}))
        ranges;
    spans = List.map (fun (_, _, s, f) -> (s, f)) ranges;
  }

(* Plan one scannable block: its members and weights in partition
   order, its candidate points (member EST/LCT clipped to the span, plus
   the span bounds, sorted and deduped) and, with pruning, theta_max at
   each point. *)
let plan_block t ~prune ord (x0, x1, lo, hi) =
  let nb = x1 - x0 in
  let ids = Array.init nb (fun k -> t.res_task.{ord.(x0 + k)}) in
  let w = Array.init nb (fun k -> t.res_units.{ord.(x0 + k)}) in
  let raw = Array.make ((2 * nb) + 2) lo in
  raw.(1) <- hi;
  let np = ref 2 in
  for k = 0 to nb - 1 do
    let e = t.est.{ids.(k)} and l = t.lct.{ids.(k)} in
    if e >= lo && e <= hi then begin
      raw.(!np) <- e;
      incr np
    end;
    if l >= lo && l <= hi then begin
      raw.(!np) <- l;
      incr np
    end
  done;
  let raw = Array.sub raw 0 !np in
  Array.stable_sort Int.compare raw;
  let u = ref 0 in
  Array.iter
    (fun p ->
      if !u = 0 || raw.(!u - 1) <> p then begin
        raw.(!u) <- p;
        incr u
      end)
    raw;
  let pts = Array.sub raw 0 !u in
  {
    b_ids = ids;
    b_w = w;
    b_pts = pts;
    b_tmax = (if prune then block_theta_max t ids w nb pts else [||]);
    b_inc = Atomic.make 0;
    b_slot0 = -1;
  }

(* The cache key of block [x0, x1) of [ord]: the resource, then each
   member's id, EST, LCT and compute in partition order — all a block
   scan reads that an edit can change. *)
let block_key t r_idx ord x0 x1 =
  let key = Array.make (1 + (4 * (x1 - x0))) r_idx in
  for x = x0 to x1 - 1 do
    let i = t.res_task.{ord.(x)} and o = 1 + (4 * (x - x0)) in
    key.(o) <- i;
    key.(o + 1) <- t.est.{i};
    key.(o + 2) <- t.lct.{i};
    key.(o + 3) <- t.compute.{i}
  done;
  key

let default_prune () = Sys.getenv_opt "RTLB_SOA_NO_PRUNE" = None

type known = { k_scan : int * Lower_bound.witness option; k_items : int }

type resource_scan = {
  r_bound : Lower_bound.bound;
  r_items : int;
  r_blocks : int;
  r_complete : bool;
}

type cache = {
  c_base : resource_scan array;
  c_find : int array -> known option;
  c_keep : int array -> known -> unit;
}

(* A scannable block as planned: its result known, or to scan. *)
type planned = Known of known | Live of int array * blk

type resource_plan =
  | Reused of resource_scan
  | Planned of Partition.t * planned list

(* Per-task flags of an edit in progress: [est_bit] and [lct_bit] mark
   a task's cones, [moved_bit] an (EST, LCT, C) that differs from the
   base.  Allocated at the first edit; all zero between edits. *)
let est_bit = 1
let lct_bit = 2
let moved_bit = 4

let edit_flags t =
  if Array.length t.flags <> t.n then t.flags <- Array.make t.n 0;
  t.flags

(* Whether some [ids.(p)], [p] in [p, stop), has flag [bit]. *)
let rec flagged_from (ids : int array) flags bit p stop =
  p < stop
  && (flags.(ids.(p)) land bit <> 0 || flagged_from ids flags bit (p + 1) stop)

(* Whether a member in slots [p, stop) of the resource table moved. *)
let rec moved_from t flags p stop =
  p < stop
  && (flags.(t.res_task.{p}) land moved_bit <> 0
     || moved_from t flags (p + 1) stop)

(* The lower-bound pass: plan (partition + points + theta_max), one
   flat work array at (block, left endpoint) granularity through the
   pool, then a fold in plan order — the same shape, item order and
   counters as [Lower_bound.all_within].  With a [cache], a resource
   whose members did not move and whose base scan ran in full is reused
   whole, and a block found by its key is folded from the cache. *)
let scan ?prune ?pool ?deadline_ns ?tracer ?cache t =
  let prune = match prune with Some p -> p | None -> default_prune () in
  let tr = Option.value tracer ~default:Rtlb_obs.Tracer.null in
  let hits = ref 0 in
  let plan r_idx =
    match cache with
    | Some c
      when r_idx < Array.length c.c_base
           && c.c_base.(r_idx).r_complete
           && not
                (moved_from t (edit_flags t) t.res_off.{r_idx}
                   t.res_off.{r_idx + 1}) ->
        hits := !hits + c.c_base.(r_idx).r_blocks;
        Reused c.c_base.(r_idx)
    | _ ->
        let ord, ranges = partition_resource t r_idx in
        let blocks =
          List.filter_map
            (fun ((x0, x1, lo, hi) as range) ->
              if lo >= hi then None
              else
                match cache with
                | None -> Some (Live ([||], plan_block t ~prune ord range))
                | Some c -> (
                    let key = block_key t r_idx ord x0 x1 in
                    match c.c_find key with
                    | Some k ->
                        incr hits;
                        Some (Known k)
                    | None -> Some (Live (key, plan_block t ~prune ord range))))
            ranges
        in
        Planned (partition_record t ord ranges, blocks)
  in
  let plans =
    Rtlb_obs.Tracer.with_span tr "plan" (fun () ->
        Array.init (Array.length t.res_names) plan)
  in
  let n_items = ref 0 in
  let each_live f =
    Array.iter
      (function
        | Reused _ -> ()
        | Planned (_, blocks) ->
            List.iter (function Known _ -> () | Live (_, b) -> f b) blocks)
      plans
  in
  each_live (fun b ->
      b.b_slot0 <- !n_items;
      n_items := !n_items + Array.length b.b_pts - 1);
  let dummy =
    {
      b_ids = [||];
      b_w = [||];
      b_pts = [||];
      b_tmax = [||];
      b_inc = Atomic.make 0;
      b_slot0 = 0;
    }
  in
  let work = Array.make (max 1 !n_items) (dummy, 0) in
  let work = if !n_items = 0 then [||] else work in
  each_live (fun b ->
      for a = 0 to Array.length b.b_pts - 2 do
        work.(b.b_slot0 + a) <- (b, a)
      done);
  if Rtlb_obs.Tracer.enabled tr then
    Rtlb_obs.Tracer.add tr Rtlb_obs.Tracer.Candidate_intervals
      (Array.fold_left
         (fun acc (b, a) -> acc + (Array.length b.b_pts - 1 - a))
         0 work);
  let scanned, _status =
    Rtlb_par.Pool.map_array_partial ?pool ?deadline_ns ~tracer:tr
      (fun (b, a) -> scan_item t ~prune ~tr b a)
      work
  in
  (* known and reused items count as executed *)
  let executed = ref 0 and total = ref 0 in
  let fold r_idx = function
    | Reused rs ->
        executed := !executed + rs.r_items;
        total := !total + rs.r_items;
        rs
    | Planned (partition, blocks) ->
        let acc = ref (0, None) and items = ref 0 and complete = ref true in
        List.iter
          (function
            | Known k ->
                items := !items + k.k_items;
                executed := !executed + k.k_items;
                acc := Lower_bound.merge_scans !acc k.k_scan
            | Live (key, b) ->
                let n = Array.length b.b_pts - 1 in
                let bacc = ref (0, None) and ran = ref 0 in
                for k = 0 to n - 1 do
                  match scanned.(b.b_slot0 + k) with
                  | Some s ->
                      incr ran;
                      bacc := Lower_bound.merge_scans !bacc s
                  | None -> ()
                done;
                items := !items + n;
                executed := !executed + !ran;
                (* a block cut short by the budget is never cached *)
                if !ran < n then complete := false
                else
                  Option.iter
                    (fun c -> c.c_keep key { k_scan = !bacc; k_items = n })
                    cache;
                acc := Lower_bound.merge_scans !acc !bacc)
          blocks;
        total := !total + !items;
        let lb, witness = !acc in
        {
          r_bound =
            {
              Lower_bound.resource = t.res_names.(r_idx);
              lb;
              witness;
              partition;
            };
          r_items = !items;
          r_blocks = List.length blocks;
          r_complete = !complete;
        }
  in
  let results =
    Rtlb_obs.Tracer.with_span tr "reduce" (fun () -> Array.mapi fold plans)
  in
  if Option.is_some cache && Rtlb_obs.Tracer.enabled tr then
    Rtlb_obs.Tracer.add tr Rtlb_obs.Tracer.Cache_hits !hits;
  let completeness =
    if !executed = !total then `Complete
    else `Partial (float_of_int !executed /. float_of_int !total)
  in
  (results, completeness)

let bounds ?prune ?pool ?deadline_ns ?tracer t =
  let results, completeness = scan ?prune ?pool ?deadline_ns ?tracer t in
  (Array.to_list (Array.map (fun r -> r.r_bound) results), completeness)

(* ------------------------------------------------------------------ *)
(* In-place what-ifs                                                    *)
(*                                                                     *)
(* An edit writes its scalars into the packed arrays, re-sweeps the    *)
(* EST cone (the edited releases and computes, closed over successors, *)
(* in topological order) and the LCT cone (deadlines and computes,     *)
(* closed over predecessors, in reverse order), and [restore] puts the *)
(* base back.                                                          *)
(* ------------------------------------------------------------------ *)

let edit_task t i ~release ~deadline ~compute =
  let flags = edit_flags t in
  (* a compute enters both cones and is part of the block key *)
  let compute_bits = est_bit lor lct_bit lor moved_bit in
  flags.(i) <-
    flags.(i)
    lor (if release <> t.release.{i} then est_bit else 0)
    lor (if deadline <> t.deadline.{i} then lct_bit else 0)
    lor if compute <> t.compute.{i} then compute_bits else 0;
  t.release.{i} <- release;
  t.deadline.{i} <- deadline;
  t.compute.{i} <- compute

(* Re-sweep task [i] in one direction if it is in that cone: marked
   already, or a neighbour it reads is.  Returns 1 if it was. *)
let resweep t flags ~is_est i =
  let bit = if is_est then est_bit else lct_bit in
  let rows = if is_est then t.pred else t.succ in
  if
    flags.(i) land bit <> 0
    || flagged_from rows.Dag.adj flags bit rows.Dag.off.(i) rows.Dag.off.(i + 1)
  then begin
    let v = sweep_task t t.sweep ~is_est i in
    let w = if is_est then t.est else t.lct in
    flags.(i) <- flags.(i) lor bit lor if v <> w.{i} then moved_bit else 0;
    w.{i} <- v;
    1
  end
  else 0

let sweep_cone t =
  let flags = edit_flags t in
  let cone = ref 0 in
  for k = 0 to t.n - 1 do
    cone := !cone + resweep t flags ~is_est:true t.topo.(k)
  done;
  for k = t.n - 1 downto 0 do
    cone := !cone + resweep t flags ~is_est:false t.topo.(k)
  done;
  !cone

let restore t app (w : Est_lct.t) =
  let flags = t.flags in
  for i = 0 to Array.length flags - 1 do
    if flags.(i) <> 0 then begin
      let task = App.task app i in
      t.release.{i} <- task.Task.release;
      t.deadline.{i} <- task.Task.deadline;
      t.compute.{i} <- task.Task.compute;
      t.est.{i} <- w.Est_lct.est.(i);
      t.lct.{i} <- w.Est_lct.lct.(i);
      flags.(i) <- 0
    end
  done
