(* Incremental analysis: one full run builds a handle; perturbed queries
   recompute only the dirty cone.

   The engine rests on three structural facts of the pipeline:

   - EST depends only on releases, computes, messages and predecessors
     (topological order); LCT only on deadlines, computes, messages and
     successors (reverse order).  An edit therefore dirties a directed
     cone — descendants for release/compute, ancestors for
     deadline/compute — and [Est_lct.recompute] re-runs the merge search
     for exactly that cone.
   - The candidate-interval scan folds with [Lower_bound.merge_scans],
     which is associative with an earlier-wins tie-break, so per-block
     partial results can be cached and folded in plan order with the
     exact winning witness of a flat scan.
   - A block's scan result is a function of its member set and each
     member's (EST, LCT, compute, preemptive) tuple alone, which makes a
     sound cache key; a whole resource whose members' tuples are all
     unchanged can reuse its base bound (partition included) wholesale.

   [create] runs the plan/scan/reduce of [Lower_bound.all_within] — one global
   work array in RES/block/left-endpoint order through the same budgeted
   pool map — so its result is bit-identical by construction, while the
   per-block folds feed the cache.  Blocks whose scans were cut short by
   a [?deadline_ns] budget are never cached, and a resource is wholesale-
   reusable only if every one of its items executed in the base run. *)

type fp = {
  f_est : int;
  f_lct : int;
  f_compute : int;
  f_preemptive : bool;
}

type block_key = {
  bk_resource : string;
  bk_tasks : int list;
  bk_fp : fp list;
}

type block_entry = {
  be_scan : int * Lower_bound.witness option;
  be_items : int;  (* left endpoints the block contributes to the plan *)
}

type rstate = {
  rs_bound : Lower_bound.bound;
  rs_fp : fp list;  (* member tuples at base time, ST_r order *)
  rs_items : int;
  rs_blocks : int;  (* scannable (lo < hi) blocks *)
  rs_complete : bool;  (* every item of the resource ran in the base *)
}

type t = {
  i_system : System.t;
  i_app : App.t;
  i_windows : Est_lct.t;
  i_base : Analysis.t;
  i_cache : (block_key, block_entry) Hashtbl.t;  (* the base run's *)
  i_recent : (block_key, block_entry) Hashtbl.t;
      (* later queries', emptied whenever it reaches [recent_limit] *)
  i_rstates : (string * rstate) list;
}

let base t = t.i_base
let cached_blocks t = Hashtbl.length t.i_cache + Hashtbl.length t.i_recent

(* Query results a handle keeps beside the base run's.  Each distinct
   edit adds the blocks it rescanned, so without a limit a long-lived
   handle (a serve daemon's) would grow with every what-if it answers. *)
let recent_limit t = max 64 (Hashtbl.length t.i_cache)

(* [string_of_int i] appended to [buf]; the quantities of an instance
   are non-negative, and those skip the intermediate string. *)
let rec add_digits buf i =
  if i >= 10 then add_digits buf (i / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (i mod 10)))

let add_int buf i =
  if i >= 0 then add_digits buf i else Buffer.add_string buf (string_of_int i)

(* Stable digest over everything the analysis result depends on: the
   full per-task tuple (not just the release/compute/deadline triple),
   the graph with weights, and the system model.  Checkpoint files are
   keyed by this so a resume against an edited instance is detected as
   stale rather than silently splicing in samples of a different
   problem. *)
let instance_fingerprint system app =
  let buf = Buffer.create (64 * (App.n_tasks app + 1)) in
  let str = Buffer.add_string buf and chr = Buffer.add_char buf in
  let int i = add_int buf i in
  (* "<sep><name>=<count>" *)
  let pair sep (r, c) =
    chr sep;
    str r;
    chr '=';
    int c
  in
  (match system with
  | System.Shared costs ->
      str "shared";
      List.iter (pair '|') costs
  | System.Dedicated nts ->
      str "dedicated";
      List.iter
        (fun nt ->
          chr '|';
          str nt.System.nt_name;
          chr ':';
          str nt.System.nt_proc;
          chr ':';
          int nt.System.nt_cost;
          List.iter (pair ',') nt.System.nt_provides)
        nts);
  for i = 0 to App.n_tasks app - 1 do
    let t = App.task app i in
    (* "\nT<id>|<name>|<compute>|<release>|<deadline>|<proc>|<preemptive>" *)
    str "\nT";
    int t.Task.id;
    chr '|';
    str t.Task.name;
    chr '|';
    int t.Task.compute;
    chr '|';
    int t.Task.release;
    chr '|';
    int t.Task.deadline;
    chr '|';
    str t.Task.proc;
    chr '|';
    str (string_of_bool t.Task.preemptive);
    List.iter (pair '|') t.Task.demands
  done;
  (* Dag keeps each successor list sorted, so its edge walk is already
     in (src, dst) order. *)
  str "\nE";
  Dag.fold_edges (App.graph app) ~init:() ~f:(fun () ~src ~dst w ->
      chr '|';
      int src;
      chr '>';
      int dst;
      chr ':';
      int w);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let fingerprint app ~est ~lct tasks =
  List.map
    (fun i ->
      let task = App.task app i in
      {
        f_est = est.(i);
        f_lct = lct.(i);
        f_compute = task.Task.compute;
        f_preemptive = task.Task.preemptive;
      })
    tasks

(* One block of one resource's partition, as planned for a query. *)
type block_plan =
  | Trivial  (* lo >= hi: contributes nothing, exactly as in scan_plan *)
  | Cached of block_entry
  | Live of {
      lv_key : block_key;
      lv_tasks : int list;
      lv_pts : int array;
      mutable lv_first : int;  (* slot of the block's first work item *)
    }

type resource_plan =
  | Reused of rstate
  | Scanned of { sp_partition : Partition.t; sp_blocks : block_plan list }

(* The shared plan/scan/reduce.  [reuse r] offers a wholesale base state
   for the resource (the caller has already checked fingerprint equality
   and base completeness); everything else is planned block by block
   against the cache.  Live items flow through the same
   [map_array_partial] call as the cold path — same work-item order,
   same chunking, same counters — and the reduce folds cached and live
   block results in plan order with [merge_scans], so whenever nothing
   is cached the result is bit-identical to [Lower_bound.all_within]
   field by field; with cache hits it is bit-identical by the
   associativity argument above.  [find] looks a block up in the cache
   and [keep] stores the result of a block whose every item ran.
   Returns the per-resource bounds (RES order), the refreshed
   per-resource states, and the completeness, where cached and reused
   items count as executed. *)
let scan ?pool ?deadline_ns ~tracer:tr ~find ~keep ~reuse ~est ~lct app =
  let plans =
    Rtlb_obs.Tracer.with_span tr "plan" (fun () ->
        List.map
          (fun r ->
            match reuse r with
            | Some rs -> (r, Reused rs)
            | None ->
                let tasks = App.tasks_using app r in
                let partition = Partition.compute ~est ~lct tasks in
                let blocks =
                  List.map2
                    (fun block (lo, hi) ->
                      if lo >= hi then Trivial
                      else
                        let key =
                          {
                            bk_resource = r;
                            bk_tasks = block;
                            bk_fp = fingerprint app ~est ~lct block;
                          }
                        in
                        match find key with
                        | Some entry -> Cached entry
                        | None ->
                            Live
                              {
                                lv_key = key;
                                lv_tasks = block;
                                lv_pts =
                                  Lower_bound.block_points ~est ~lct app
                                    block ~lo ~hi;
                                lv_first = -1;
                              })
                    partition.Partition.blocks partition.Partition.spans
                in
                (r, Scanned { sp_partition = partition; sp_blocks = blocks }))
          (App.resource_set app))
  in
  (* Flatten live blocks into one work array in plan order — the exact
     item order of the cold scan plan restricted to the uncached part. *)
  let n_live =
    List.fold_left
      (fun acc (_, plan) ->
        match plan with
        | Reused _ -> acc
        | Scanned { sp_blocks; _ } ->
            List.fold_left
              (fun acc -> function
                | Trivial | Cached _ -> acc
                | Live lv ->
                    lv.lv_first <- acc;
                    acc + Array.length lv.lv_pts - 1)
              acc sp_blocks)
      0 plans
  in
  let work = Array.make (max 1 n_live) ("", [], [||], 0) in
  let work = if n_live = 0 then [||] else work in
  List.iter
    (fun (r, plan) ->
      match plan with
      | Reused _ -> ()
      | Scanned { sp_blocks; _ } ->
          List.iter
            (function
              | Trivial | Cached _ -> ()
              | Live lv ->
                  for a = 0 to Array.length lv.lv_pts - 2 do
                    work.(lv.lv_first + a) <- (r, lv.lv_tasks, lv.lv_pts, a)
                  done)
            sp_blocks)
    plans;
  if Rtlb_obs.Tracer.enabled tr then
    Rtlb_obs.Tracer.add tr Rtlb_obs.Tracer.Candidate_intervals
      (Array.fold_left
         (fun acc (_, _, pts, a) -> acc + (Array.length pts - 1 - a))
         0 work);
  let scanned, _status =
    Rtlb_par.Pool.map_array_partial ?pool ?deadline_ns ~tracer:tr
      (fun (r, block, pts, a) ->
        let scan =
          Lower_bound.scan_from ~resource:r ~est ~lct app block pts a
        in
        if Rtlb_obs.Tracer.enabled tr then begin
          Rtlb_obs.Tracer.add tr Rtlb_obs.Tracer.Tasks_scanned
            (List.length block);
          Rtlb_obs.Tracer.add tr Rtlb_obs.Tracer.Theta_evals
            (Array.length pts - 1 - a)
        end;
        scan)
      work
  in
  let executed = ref 0 and total = ref 0 and cache_hits = ref 0 in
  let states =
    Rtlb_obs.Tracer.with_span tr "reduce" (fun () ->
        List.map
          (fun (r, plan) ->
            match plan with
            | Reused rs ->
                executed := !executed + rs.rs_items;
                total := !total + rs.rs_items;
                cache_hits := !cache_hits + rs.rs_blocks;
                (r, rs)
            | Scanned { sp_partition; sp_blocks } ->
                let racc = ref (0, None) in
                let r_items = ref 0 and r_blocks = ref 0 in
                let r_complete = ref true in
                List.iter
                  (function
                    | Trivial -> ()
                    | Cached entry ->
                        incr r_blocks;
                        incr cache_hits;
                        r_items := !r_items + entry.be_items;
                        executed := !executed + entry.be_items;
                        racc := Lower_bound.merge_scans !racc entry.be_scan
                    | Live lv ->
                        incr r_blocks;
                        let items = Array.length lv.lv_pts - 1 in
                        r_items := !r_items + items;
                        let bacc = ref (0, None) and ran = ref 0 in
                        for k = 0 to items - 1 do
                          match scanned.(lv.lv_first + k) with
                          | Some s ->
                              incr ran;
                              bacc := Lower_bound.merge_scans !bacc s
                          | None -> ()
                        done;
                        executed := !executed + !ran;
                        if !ran = items then
                          keep lv.lv_key { be_scan = !bacc; be_items = items }
                        else r_complete := false;
                        racc := Lower_bound.merge_scans !racc !bacc)
                  sp_blocks;
                total := !total + !r_items;
                let lb, witness = !racc in
                let bound =
                  { Lower_bound.resource = r; lb; witness;
                    partition = sp_partition }
                in
                ( r,
                  {
                    rs_bound = bound;
                    rs_fp = fingerprint app ~est ~lct (App.tasks_using app r);
                    rs_items = !r_items;
                    rs_blocks = !r_blocks;
                    rs_complete = !r_complete;
                  } ))
          plans)
  in
  if Rtlb_obs.Tracer.enabled tr then
    Rtlb_obs.Tracer.add tr Rtlb_obs.Tracer.Cache_hits !cache_hits;
  let bounds = List.map (fun (_, rs) -> rs.rs_bound) states in
  let completeness =
    if !executed = !total then `Complete
    else `Partial (float_of_int !executed /. float_of_int !total)
  in
  (bounds, states, completeness)

let create ?pool ?deadline_ns ?tracer system app =
  let tr = Option.value tracer ~default:Rtlb_obs.Tracer.null in
  Rtlb_obs.Tracer.with_span tr "analyze" (fun () ->
      (match System.validate_for system app with
      | Ok () -> ()
      | Error e -> invalid_arg ("Incremental.create: " ^ e));
      let windows =
        Rtlb_obs.Tracer.with_span tr "est_lct" (fun () ->
            Est_lct.compute system app)
      in
      let est = windows.Est_lct.est and lct = windows.Est_lct.lct in
      let cache = Hashtbl.create 64 in
      let bounds, states, completeness =
        Rtlb_obs.Tracer.with_span tr "lower_bounds" (fun () ->
            scan ?pool ?deadline_ns ~tracer:tr ~find:(Hashtbl.find_opt cache)
              ~keep:(Hashtbl.replace cache) ~reuse:(fun _ -> None)
              ~est ~lct app)
      in
      let cost =
        Rtlb_obs.Tracer.with_span tr "cost" (fun () ->
            Cost.compute system app bounds)
      in
      let base =
        { Analysis.app; system; windows; bounds; cost; completeness }
      in
      {
        i_system = system;
        i_app = app;
        i_windows = windows;
        i_base = base;
        i_cache = cache;
        i_recent = Hashtbl.create 16;
        i_rstates = states;
      })

(* Per-task diff between the base application and a query's.  Anything
   beyond the release/compute/deadline triple — names, processor types,
   resource demands, preemptability, the graph itself — escapes the
   incremental path's invalidation rules, so the query falls back to a
   cold run. *)
type diff =
  | Reshaped
  | Same_shape of { d_rel : bool array; d_dl : bool array; d_comp : bool array }

let diff base app =
  if App.n_tasks base <> App.n_tasks app then Reshaped
  else begin
    let n = App.n_tasks base in
    let d_rel = Array.make n false
    and d_dl = Array.make n false
    and d_comp = Array.make n false in
    let compatible = ref true in
    for i = 0 to n - 1 do
      let a = App.task base i and b = App.task app i in
      if
        a.Task.id = b.Task.id
        && String.equal a.Task.name b.Task.name
        && String.equal a.Task.proc b.Task.proc
        && a.Task.resources = b.Task.resources
        && a.Task.demands = b.Task.demands
        && a.Task.preemptive = b.Task.preemptive
      then begin
        if a.Task.release <> b.Task.release then d_rel.(i) <- true;
        if a.Task.deadline <> b.Task.deadline then d_dl.(i) <- true;
        if a.Task.compute <> b.Task.compute then d_comp.(i) <- true
      end
      else compatible := false
    done;
    (* [apply] edits through [App.map_tasks], which keeps the graph, so
       edge lists are compared only for distinct graphs; [Dag]'s edge
       walk runs in (src, dst) order, so equal graphs give equal lists. *)
    let same_graph () =
      let g = App.graph base and g' = App.graph app in
      g == g'
      ||
      let edges g =
        Dag.fold_edges g ~init:[] ~f:(fun acc ~src ~dst w ->
            (src, dst, w) :: acc)
      in
      edges g = edges g'
    in
    if (not !compatible) || not (same_graph ()) then Reshaped
    else Same_shape { d_rel; d_dl; d_comp }
  end

(* Dirty cones: one linear pass in (reverse) topological order closes a
   seed set under descendants (resp. ancestors). *)
let forward_close app seed =
  let dirty = Array.copy seed in
  Array.iter
    (fun i ->
      if
        (not dirty.(i))
        && List.exists (fun j -> dirty.(j)) (App.preds app i)
      then dirty.(i) <- true)
    (Dag.topological_order (App.graph app));
  dirty

let backward_close app seed =
  let dirty = Array.copy seed in
  Array.iter
    (fun i ->
      if
        (not dirty.(i))
        && List.exists (fun j -> dirty.(j)) (App.succs app i)
      then dirty.(i) <- true)
    (Dag.reverse_topological_order (App.graph app));
  dirty

let count dirty = Array.fold_left (fun acc d -> if d then acc + 1 else acc) 0 dirty

let query ?pool ?deadline_ns ?tracer t app =
  match diff t.i_app app with
  | Reshaped -> (create ?pool ?deadline_ns ?tracer t.i_system app).i_base
  | Same_shape { d_rel; d_dl; d_comp } ->
      let tr = Option.value tracer ~default:Rtlb_obs.Tracer.null in
      Rtlb_obs.Tracer.with_span tr "analyze" (fun () ->
          (match System.validate_for t.i_system app with
          | Ok () -> ()
          | Error e -> invalid_arg ("Incremental.query: " ^ e));
          let n = App.n_tasks app in
          let est_seed = Array.init n (fun i -> d_rel.(i) || d_comp.(i)) in
          let lct_seed = Array.init n (fun i -> d_dl.(i) || d_comp.(i)) in
          let est_dirty = forward_close app est_seed in
          let lct_dirty = backward_close app lct_seed in
          let cone = count est_dirty + count lct_dirty in
          if Rtlb_obs.Tracer.enabled tr then
            Rtlb_obs.Tracer.add tr Rtlb_obs.Tracer.Cone_tasks cone;
          let windows =
            Rtlb_obs.Tracer.with_span tr "est_lct" (fun () ->
                if cone = 0 then t.i_windows
                else
                  Est_lct.recompute t.i_system app t.i_windows ~est_dirty
                    ~lct_dirty)
          in
          let est = windows.Est_lct.est and lct = windows.Est_lct.lct in
          let reuse r =
            match List.assoc_opt r t.i_rstates with
            | Some rs
              when rs.rs_complete
                   && rs.rs_fp = fingerprint app ~est ~lct
                                    (App.tasks_using app r) ->
                Some rs
            | _ -> None
          in
          let find key =
            match Hashtbl.find_opt t.i_cache key with
            | Some _ as hit -> hit
            | None -> Hashtbl.find_opt t.i_recent key
          in
          let keep key entry =
            if Hashtbl.length t.i_recent >= recent_limit t then
              Hashtbl.reset t.i_recent;
            Hashtbl.replace t.i_recent key entry
          in
          let bounds, _states, completeness =
            Rtlb_obs.Tracer.with_span tr "lower_bounds" (fun () ->
                scan ?pool ?deadline_ns ~tracer:tr ~find ~keep ~reuse ~est
                  ~lct app)
          in
          let cost =
            Rtlb_obs.Tracer.with_span tr "cost" (fun () ->
                Cost.compute t.i_system app bounds)
          in
          {
            Analysis.app;
            system = t.i_system;
            windows;
            bounds;
            cost;
            completeness;
          })

type edit =
  | Set_release of { task : int; release : int }
  | Set_deadline of { task : int; deadline : int }
  | Set_compute of { task : int; compute : int }

let apply app edits =
  let n = App.n_tasks app in
  let check task =
    if task < 0 || task >= n then
      invalid_arg
        (Printf.sprintf "Incremental.apply: task %d outside [0, %d)" task n)
  in
  List.iter
    (function
      | Set_release { task; _ }
      | Set_deadline { task; _ }
      | Set_compute { task; _ } -> check task)
    edits;
  App.map_tasks app ~f:(fun task ->
      List.fold_left
        (fun acc -> function
          | Set_release { task = i; release } when i = acc.Task.id ->
              Task.with_release acc release
          | Set_deadline { task = i; deadline } when i = acc.Task.id ->
              Task.with_deadline acc deadline
          | Set_compute { task = i; compute } when i = acc.Task.id ->
              Task.with_compute acc compute
          | _ -> acc)
        task edits)

let edit ?pool ?deadline_ns ?tracer t edits =
  query ?pool ?deadline_ns ?tracer t (apply t.i_app edits)
