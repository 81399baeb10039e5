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
   the sequential and the pool path alike.

   Planning and the kernel avoid per-endpoint sorts and searches.  A
   resource is ordered by two stable counting passes over its member
   slots when its EST and LCT ranges are narrow.  Each scannable block
   is planned once into its own columns (E, L, C, units, preemptability
   in partition order).  A threshold applies to the right endpoints from
   the first candidate point at or after it, its slot; a block whose span
   is narrow marks its points on the span and keeps the slot of every
   time in it, so theta_max events and each left endpoint's kernel
   events go straight into per-slot buckets, and one forward cursor over
   the buckets evaluates the ascending right endpoints.  Wide ranges and
   spans fall back to a comparison sort and a binary search per slot. *)

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
(* Partition and block planning                                        *)
(* ------------------------------------------------------------------ *)

let ceil_div a b = (a + b - 1) / b
let[@inline] imax (a : int) b = if a >= b then a else b
let[@inline] imin (a : int) b = if a <= b then a else b

(* Whether [hi - lo] (with [hi >= lo]) is below [limit], without
   overflow: a difference past [max_int] wraps negative. *)
let[@inline] narrow ~lo ~hi limit =
  let d = hi - lo in
  d >= 0 && d < limit

(* One stable counting pass over member slots [src] into [dst]: by EST
   ascending ([by_est]) or by LCT descending, keys offset by [base] into
   [0, range). *)
let[@inline] sort_key t by_est base p =
  let i = t.res_task.{p} in
  if by_est then t.est.{i} - base else base - t.lct.{i}

let counting_pass t ~by_est ~base ~range src dst =
  let count = Array.make (range + 1) 0 in
  Array.iter
    (fun p ->
      let k = sort_key t by_est base p + 1 in
      count.(k) <- count.(k) + 1)
    src;
  for k = 1 to range do
    count.(k) <- count.(k) + count.(k - 1)
  done;
  Array.iter
    (fun p ->
      let k = sort_key t by_est base p in
      dst.(count.(k)) <- p;
      count.(k) <- count.(k) + 1)
    src

(* Partition the members of resource [r_idx] exactly as
   [Partition.compute]: order them by (EST asc, LCT desc, id asc), then
   sweep with the strict window-overlap rule.  The member slots are in
   ascending id order already, so two stable counting passes (LCT
   descending, then EST ascending) give the order when both ranges are
   below [4 nm + 1024]; wider ranges take a comparison sort.  Returns
   the member slots in partition order and each block as
   [(x0, x1, lo, hi)]: its range of that order and its span. *)
let partition_resource t r_idx =
  let m0 = t.res_off.{r_idx} and m1 = t.res_off.{r_idx + 1} in
  let nm = m1 - m0 in
  let ord = Array.init nm (fun x -> m0 + x) in
  let emin = ref max_int and emax = ref min_int in
  let lmin = ref max_int and lmax = ref min_int in
  for p = m0 to m1 - 1 do
    let i = t.res_task.{p} in
    emin := imin !emin t.est.{i};
    emax := imax !emax t.est.{i};
    lmin := imin !lmin t.lct.{i};
    lmax := imax !lmax t.lct.{i}
  done;
  let limit = (4 * nm) + 1024 in
  if
    narrow ~lo:!emin ~hi:!emax limit && narrow ~lo:!lmin ~hi:!lmax limit
  then begin
    let by_lct = Array.make nm 0 in
    counting_pass t ~by_est:false ~base:!lmax ~range:(!lmax - !lmin + 1) ord
      by_lct;
    counting_pass t ~by_est:true ~base:!emin ~range:(!emax - !emin + 1) by_lct
      ord
  end
  else
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

(* One scannable partition block, fully planned.  A threshold [thr]
   applies to the right endpoints from the first candidate point
   [>= thr] on: its {e slot}.  A block whose span [hi - lo] is below
   [8 nb + 64] keeps the slot of every time in its span in [b_rank]; a
   wider one finds slots by binary search over its points. *)
type blk = {
  b_nb : int;  (* members, for [Tasks_scanned] *)
  b_cols : int array;
      (* per member with units and compute, partition order: E, L, C,
         units, preemptive (0/1) *)
  b_pts : int array;  (* candidate points, ascending, deduped *)
  b_rank : int array;  (* slot of [lo + o] at [o]; [||] when wide *)
  b_tmax : int array;  (* theta_max at each left endpoint *)
  b_inc : int Atomic.t;  (* incumbent block bound for pruning *)
  mutable b_slot0 : int;  (* first work slot of the block *)
}

let stride = 5  (* words per member in [b_cols] *)

(* The slot of [thr] for [lo < thr <= hi], [lo] and [hi] being the
   first and last points. *)
let search pts thr =
  let lo = ref 0 and hi = ref (Array.length pts - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if pts.(mid) < thr then lo := mid + 1 else hi := mid
  done;
  !lo

let[@inline] slot rank pts thr =
  if Array.length rank > 0 then rank.(thr - pts.(0)) else search pts thr

(* The candidate points of a block (member EST/LCT clipped to its span,
   plus the span bounds) and its slot map: on a narrow span, marked on
   the span and read off in order; on a wide one, sorted and deduped. *)
let block_points t ord x0 x1 lo hi =
  let nb = x1 - x0 in
  if narrow ~lo ~hi ((8 * nb) + 64) then begin
    let rank = Array.make (hi - lo + 1) 0 in
    let np = ref 0 in
    let mark v =
      if v >= lo && v <= hi && rank.(v - lo) = 0 then begin
        rank.(v - lo) <- 1;
        incr np
      end
    in
    mark lo;
    mark hi;
    for x = x0 to x1 - 1 do
      let i = t.res_task.{ord.(x)} in
      mark t.est.{i};
      mark t.lct.{i}
    done;
    let pts = Array.make !np 0 in
    let k = ref 0 in
    for o = 0 to hi - lo do
      let marked = rank.(o) in
      rank.(o) <- !k;
      if marked = 1 then begin
        pts.(!k) <- lo + o;
        incr k
      end
    done;
    (pts, rank)
  end
  else begin
    let raw = Array.make ((2 * nb) + 2) lo in
    raw.(1) <- hi;
    let np = ref 2 in
    let add v =
      if v >= lo && v <= hi then begin
        raw.(!np) <- v;
        incr np
      end
    in
    for x = x0 to x1 - 1 do
      let i = t.res_task.{ord.(x)} in
      add t.est.{i};
      add t.lct.{i}
    done;
    let raw = Array.sub raw 0 !np in
    Array.sort Int.compare raw;
    let u = ref 1 in
    for k = 1 to !np - 1 do
      if raw.(k) <> raw.(!u - 1) then begin
        raw.(!u) <- raw.(k);
        incr u
      end
    done;
    (Array.sub raw 0 !u, [||])
  end

(* theta_max(t1) for every candidate point of a block, by an event sweep
   over t1: a member contributes the constant w*C up to its EST, then a
   ramp of slope -w, and nothing once t1 reaches min(E + C, L).  An
   event at threshold thr applies from its slot on — the first point
   when thr is at or before it (an infeasible window's L < E), none
   past the last — so the events are bucketed by slot and summed in
   point order, with no sort. *)
let block_theta_max cls pts rank =
  let np = Array.length pts in
  let lo = pts.(0) and hi = pts.(np - 1) in
  let dslope = Array.make np 0 and dicept = Array.make np 0 in
  let event thr ds di =
    if thr <= hi then begin
      let s = if thr <= lo then 0 else slot rank pts thr in
      dslope.(s) <- dslope.(s) + ds;
      dicept.(s) <- dicept.(s) + di
    end
  in
  let base = ref 0 in
  for x = 0 to (Array.length cls / stride) - 1 do
    let o = stride * x in
    let e = cls.(o) and l = cls.(o + 1) and c = cls.(o + 2) in
    let wi = cls.(o + 3) in
    let stop = imin (e + c) l in
    base := !base + (wi * c);
    if stop <= e then event stop 0 (-wi * c)
    else begin
      event (e + 1) (-wi) (wi * e);
      event stop wi (-wi * (c + e))
    end
  done;
  let slope = ref 0 and icept = ref !base in
  Array.init np (fun a ->
      slope := !slope + dslope.(a);
      icept := !icept + dicept.(a);
      (!slope * pts.(a)) + !icept)

(* Plan one scannable block: its member columns, its candidate points
   and slot map and, with pruning, theta_max at each point. *)
let plan_block t ~prune ord (x0, x1, lo, hi) =
  let nb = x1 - x0 in
  let cls = Array.make (stride * nb) 0 in
  let used = ref 0 in
  for x = x0 to x1 - 1 do
    let p = ord.(x) in
    let i = t.res_task.{p} and w = t.res_units.{p} in
    let c = t.compute.{i} in
    if w > 0 && c > 0 then begin
      let o = !used in
      cls.(o) <- t.est.{i};
      cls.(o + 1) <- t.lct.{i};
      cls.(o + 2) <- c;
      cls.(o + 3) <- w;
      cls.(o + 4) <- t.preempt.{i};
      used := o + stride
    end
  done;
  let cls = if !used < Array.length cls then Array.sub cls 0 !used else cls in
  let pts, rank = block_points t ord x0 x1 lo hi in
  {
    b_nb = nb;
    b_cols = cls;
    b_pts = pts;
    b_rank = rank;
    b_tmax = (if prune then block_theta_max cls pts rank else [||]);
    b_inc = Atomic.make 0;
    b_slot0 = -1;
  }

(* ------------------------------------------------------------------ *)
(* Theta kernel and the dominance-pruned interval scan                  *)
(* ------------------------------------------------------------------ *)

(* Kernel buckets: slope and intercept deltas by slot, all zero between
   work items.  Reused across items so the scan allocates nothing per
   task. *)
type kernel_ws = { mutable bds : int array; mutable bdi : int array }

let kernel_ws () = { bds = Array.make 64 0; bdi = Array.make 64 0 }

(* Each domain keeps one spare workspace.  A scan takes it out of the
   domain's cell for the whole work item and puts the same [Some] block
   back afterwards (so the common path allocates nothing), and
   systhreads of one domain never share it: a thread switch inside a
   scan leaves the cell empty, and a scan that finds it empty builds a
   workspace of its own. *)
let spare_kernel =
  Domain.DLS.new_key (fun () -> Atomic.make (Some (kernel_ws ())))

let ensure_buckets ws len =
  if len > Array.length ws.bds then begin
    let len = imax len (2 * Array.length ws.bds) in
    ws.bds <- Array.make len 0;
    ws.bdi <- Array.make len 0
  end

(* Add one kernel event at threshold [thr] for the left endpoint
   [pts.(a)] = [t1]: a threshold at or before t1 applies from the first
   right endpoint, one past the last point never applies. *)
let[@inline] bucket ws rank pts a t1 hi thr ds di =
  if thr <= hi then begin
    let s = if thr <= t1 then a + 1 else slot rank pts thr in
    ws.bds.(s) <- ws.bds.(s) + ds;
    ws.bdi.(s) <- ws.bdi.(s) + di
  end

(* Build the Theta kernel of the left endpoint [pts.(a)] in the
   buckets: the events of [Lower_bound.Theta_kernel.make], each added at
   its slot, so the cumulative sums up to slot [b] are the kernel at
   [pts.(b)]. *)
let build_kernel ws blk a =
  let cls = blk.b_cols and pts = blk.b_pts and rank = blk.b_rank in
  let t1 = pts.(a) and hi = pts.(Array.length pts - 1) in
  for x = 0 to (Array.length cls / stride) - 1 do
    let o = stride * x in
    let l = cls.(o + 1) in
    if l > t1 then begin
      let e = cls.(o) and c = cls.(o + 2) in
      let k = if t1 <= e then c else c - (t1 - e) in
      if k > 0 then begin
        let wi = cls.(o + 3) in
        let m =
          if cls.(o + 4) = 1 then l - c + imax 0 (t1 - e) else imax (l - c) t1
        in
        if e >= m + k then bucket ws rank pts a t1 hi (e + 1) 0 (wi * k)
        else begin
          bucket ws rank pts a t1 hi (imax m (e + 1)) wi (-wi * m);
          bucket ws rank pts a t1 hi (m + k) (-wi) (wi * (m + k))
        end
      end
    end
  done

let rec atomic_max a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then atomic_max a v

(* Scan the intervals with left endpoint [pts.(a)], pruned against the
   block incumbent: the right endpoints ascend, so one cursor over the
   kernel buckets accumulates each Theta from the last.  Mirrors
   [Lower_bound.scan_from]; counters follow the record path's
   convention (tasks per executed kernel, executed evaluations). *)
let scan_item ~prune ~tr blk a =
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
    ensure_buckets ws np;
    build_kernel ws blk a;
    let bds = ws.bds and bdi = ws.bdi in
    let best = ref 0 and wit = ref None and evals = ref 0 in
    let slope = ref 0 and icept = ref 0 in
    let b = ref (a + 1) in
    while !b < np do
      let t2 = pts.(!b) in
      if
        prune
        &&
        let inc = imax !best (Atomic.get blk.b_inc) in
        inc > 0 && ceil_div tmax (t2 - t1) < inc
      then begin
        (* cut short: clear the buckets the cursor did not reach *)
        Array.fill bds !b (np - !b) 0;
        Array.fill bdi !b (np - !b) 0;
        b := np
      end
      else begin
        slope := !slope + bds.(!b);
        icept := !icept + bdi.(!b);
        bds.(!b) <- 0;
        bdi.(!b) <- 0;
        incr evals;
        let demand = (!slope * t2) + !icept in
        if demand > 0 then begin
          let units = ceil_div demand (t2 - t1) in
          if units > !best then begin
            best := units;
            wit :=
              Some { Lower_bound.w_t1 = t1; w_t2 = t2; w_theta = demand };
            if prune then atomic_max blk.b_inc units
          end
        end;
        incr b
      end
    done;
    if Option.is_some held then Atomic.set spare held;
    if Rtlb_obs.Tracer.enabled tr then begin
      Rtlb_obs.Tracer.add tr Rtlb_obs.Tracer.Tasks_scanned blk.b_nb;
      Rtlb_obs.Tracer.add tr Rtlb_obs.Tracer.Theta_evals !evals
    end;
    (!best, !wit)
  end

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
      b_nb = 0;
      b_cols = [||];
      b_pts = [||];
      b_rank = [||];
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
      (fun (b, a) -> scan_item ~prune ~tr b a)
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
