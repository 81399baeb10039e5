(* Incremental analysis: one full run builds a handle; perturbed queries
   recompute only the dirty cone.

   A handle keeps the packed instance of its base ([Soa.t], windows
   computed), the base analysis and the base run's per-resource and
   per-block scan results.  An edit writes its scalars into the packed
   arrays, re-sweeps only the cones they reach ([Soa.sweep_cone]), and
   rescans only what moved ([Soa.scan] with the handle's cache); the
   base is restored before the edit returns or raises.  Three facts
   make this exact:

   - EST depends only on releases, computes, messages and predecessors
     (topological order); LCT only on deadlines, computes, messages and
     successors (reverse order).  An edit therefore dirties a directed
     cone — descendants for release/compute, ancestors for
     deadline/compute.
   - The candidate-interval scan folds with [Lower_bound.merge_scans],
     which is associative with an earlier-wins tie-break, so per-block
     results can be cached and folded in plan order with the exact
     winning witness of a flat scan.  Pruning keeps each block's own
     result, so pruned block scans may be cached.
   - A block's scan result is a function of its members and each
     member's (EST, LCT, compute) alone, which makes a sound cache key;
     a resource none of whose members moved reuses its base bound
     (partition included) whole.

   Blocks whose scans were cut short by a [?deadline_ns] budget are
   never cached, and a resource is reused whole only if every one of
   its items ran in the base run. *)

module Tbl = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) b = a = b
  let hash (a : t) = Array.fold_left (fun h x -> (h lxor x) * 1099511628211) 0 a
end)

type t = {
  i_system : System.t;
  i_app : App.t;
  i_base : Analysis.t;
  i_soa : Soa.t;  (* the base instance; an edit writes it, then restores it *)
  i_res : Soa.resource_scan array;  (* the base run's, RES order *)
  i_cache : Soa.known Tbl.t;  (* the base run's blocks *)
  i_recent : Soa.known Tbl.t;
      (* later queries', emptied whenever it reaches [recent_limit] *)
}

let base t = t.i_base
let cached_blocks t = Tbl.length t.i_cache + Tbl.length t.i_recent

(* Query results a handle keeps beside the base run's.  Each distinct
   edit adds the blocks it rescanned, so without a limit a long-lived
   handle (a serve daemon's) would grow with every what-if it answers. *)
let recent_limit t = max 64 (Tbl.length t.i_cache)

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

let bounds_of results =
  Array.to_list (Array.map (fun r -> r.Soa.r_bound) results)

let create ?pool ?deadline_ns ?tracer system app =
  let tr = Option.value tracer ~default:Rtlb_obs.Tracer.null in
  Rtlb_obs.Tracer.with_span tr "analyze" (fun () ->
      (match Analysis.check_input system app with
      | Ok () -> ()
      | Error e -> invalid_arg ("Incremental.create: " ^ e));
      let soa =
        Rtlb_obs.Tracer.with_span tr "pack" (fun () -> Soa.pack system app)
      in
      let windows =
        Rtlb_obs.Tracer.with_span tr "est_lct" (fun () ->
            Soa.compute_windows soa;
            Soa.windows soa)
      in
      let cache = Tbl.create 64 in
      let results, completeness =
        Rtlb_obs.Tracer.with_span tr "lower_bounds" (fun () ->
            Soa.scan ?pool ?deadline_ns ~tracer:tr
              ~cache:
                {
                  Soa.c_base = [||];
                  c_find = (fun _ -> None);
                  c_keep = Tbl.replace cache;
                }
              soa)
      in
      let bounds = bounds_of results in
      let cost =
        Rtlb_obs.Tracer.with_span tr "cost" (fun () ->
            Cost.compute system app bounds)
      in
      {
        i_system = system;
        i_app = app;
        i_base = { Analysis.app; system; windows; bounds; cost; completeness };
        i_soa = soa;
        i_res = results;
        i_cache = cache;
        i_recent = Tbl.create 16;
      })

(* The analysis of [app], which differs from the base in the release,
   deadline or compute of [tasks] alone (ids may repeat). *)
let rerun ?pool ?deadline_ns ?tracer t app tasks =
  let tr = Option.value tracer ~default:Rtlb_obs.Tracer.null in
  let soa = t.i_soa in
  Rtlb_obs.Tracer.with_span tr "analyze" (fun () ->
      Fun.protect
        ~finally:(fun () -> Soa.restore soa t.i_app t.i_base.Analysis.windows)
      @@ fun () ->
      List.iter
        (fun i ->
          let task = App.task app i in
          Soa.edit_task soa i ~release:task.Task.release
            ~deadline:task.Task.deadline ~compute:task.Task.compute)
        tasks;
      let cone, windows =
        Rtlb_obs.Tracer.with_span tr "est_lct" (fun () ->
            match Soa.sweep_cone soa with
            | 0 -> (0, t.i_base.Analysis.windows)
            | cone -> (cone, Soa.windows soa))
      in
      if Rtlb_obs.Tracer.enabled tr then
        Rtlb_obs.Tracer.add tr Rtlb_obs.Tracer.Cone_tasks cone;
      let find key =
        match Tbl.find_opt t.i_cache key with
        | Some _ as hit -> hit
        | None -> Tbl.find_opt t.i_recent key
      in
      let keep key known =
        if Tbl.length t.i_recent >= recent_limit t then Tbl.reset t.i_recent;
        Tbl.replace t.i_recent key known
      in
      let results, completeness =
        Rtlb_obs.Tracer.with_span tr "lower_bounds" (fun () ->
            Soa.scan ?pool ?deadline_ns ~tracer:tr
              ~cache:{ Soa.c_base = t.i_res; c_find = find; c_keep = keep }
              soa)
      in
      let bounds = bounds_of results in
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

(* The tasks whose release, deadline or compute differ between the base
   application and a query's, or [None] when anything else differs —
   names, processor types, resource demands, preemptability, the graph
   itself — which escapes the edit path's invalidation rules. *)
let changed base app =
  if App.n_tasks base <> App.n_tasks app then None
  else begin
    let tasks = ref [] and compatible = ref true in
    for i = App.n_tasks base - 1 downto 0 do
      let a = App.task base i and b = App.task app i in
      if
        a.Task.id = b.Task.id
        && String.equal a.Task.name b.Task.name
        && String.equal a.Task.proc b.Task.proc
        && a.Task.resources = b.Task.resources
        && a.Task.demands = b.Task.demands
        && a.Task.preemptive = b.Task.preemptive
      then begin
        if
          a.Task.release <> b.Task.release
          || a.Task.deadline <> b.Task.deadline
          || a.Task.compute <> b.Task.compute
        then tasks := i :: !tasks
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
    if !compatible && same_graph () then Some !tasks else None
  end

let query ?pool ?deadline_ns ?tracer t app =
  match changed t.i_app app with
  | Some tasks -> rerun ?pool ?deadline_ns ?tracer t app tasks
  | None -> (create ?pool ?deadline_ns ?tracer t.i_system app).i_base

type edit =
  | Set_release of { task : int; release : int }
  | Set_deadline of { task : int; deadline : int }
  | Set_compute of { task : int; compute : int }

let task_of = function
  | Set_release { task; _ } | Set_deadline { task; _ } | Set_compute { task; _ }
    ->
      task

let apply app edits =
  let n = App.n_tasks app in
  List.iter
    (fun e ->
      let task = task_of e in
      if task < 0 || task >= n then
        invalid_arg
          (Printf.sprintf "Incremental.apply: task %d outside [0, %d)" task n))
    edits;
  let edited =
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
  in
  match App.check_range edited with
  | Ok () -> edited
  | Error e -> invalid_arg ("Incremental.apply: " ^ e)

let edit ?pool ?deadline_ns ?tracer t edits =
  let app = apply t.i_app edits in
  rerun ?pool ?deadline_ns ?tracer t app (List.map task_of edits)
