(* The traced run: per-layer numbers.

   The benchmark times, from its own code, the calls into each layer's
   public functions, and reads the spans and counters the library
   records on a passed [Rtlb_obs.Tracer].  End-to-end metrics never come
   from here: tracing costs time, and [trace.overhead_frac] says how
   much. *)

module Tracer = Rtlb_obs.Tracer
module Json = Rtfmt.Json
module Server = Rtlb_serve.Server
module Protocol = Rtlb_serve.Protocol

let ms_since t0 = float_of_int (Proc.now_ns () - t0) /. 1e6

let timed f =
  let t0 = Proc.now_ns () in
  let x = f () in
  (x, ms_since t0)

(* ---- spans ------------------------------------------------------- *)

type span_totals = {
  total_ms : (string, float) Hashtbl.t;  (** Summed durations by name. *)
  self_ms : (string, float) Hashtbl.t;
      (** Summed self time: duration minus that of the direct children. *)
}

let bump tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))

(* Spans on one domain are well nested, so a span's parent is the
   innermost earlier span on the same domain that still encloses it. *)
let span_totals ?(since_ns = Int64.min_int) tracer =
  let total_ms = Hashtbl.create 16 and self_ms = Hashtbl.create 16 in
  let by_tid = Hashtbl.create 8 in
  List.iter
    (fun (e : Tracer.event) ->
      if Int64.compare e.Tracer.ev_ts_ns since_ns >= 0 then
        Hashtbl.replace by_tid e.Tracer.ev_tid
          (e :: Option.value ~default:[] (Hashtbl.find_opt by_tid e.Tracer.ev_tid)))
    (Tracer.events tracer);
  Hashtbl.iter
    (fun _ evs ->
      let evs =
        List.sort
          (fun (a : Tracer.event) (b : Tracer.event) ->
            match Int64.compare a.Tracer.ev_ts_ns b.Tracer.ev_ts_ns with
            | 0 -> Int64.compare b.Tracer.ev_dur_ns a.Tracer.ev_dur_ns
            | c -> c)
          evs
      in
      let ms ns = Int64.to_float ns /. 1e6 in
      let stop (e : Tracer.event) = Int64.add e.Tracer.ev_ts_ns e.Tracer.ev_dur_ns in
      let stack = ref [] in
      List.iter
        (fun (e : Tracer.event) ->
          let rec unwind = function
            | p :: rest when Int64.compare (stop p) e.Tracer.ev_ts_ns <= 0 -> unwind rest
            | s -> s
          in
          stack := unwind !stack;
          (match !stack with
          | p :: _ -> bump self_ms p.Tracer.ev_name (-.ms e.Tracer.ev_dur_ns)
          | [] -> ());
          bump total_ms e.Tracer.ev_name (ms e.Tracer.ev_dur_ns);
          bump self_ms e.Tracer.ev_name (ms e.Tracer.ev_dur_ns);
          stack := e :: !stack)
        evs)
    by_tid;
  { total_ms; self_ms }

let total s name = Option.value ~default:0.0 (Hashtbl.find_opt s.total_ms name)

(* Items each domain executed, as a [max / mean] ratio over the domains
   that executed any. *)
let imbalance per_tid =
  let items = List.filter (fun x -> x > 0) per_tid in
  match items with
  | [] -> 0.0
  | _ ->
      let n = float_of_int (List.length items) in
      let sum = float_of_int (List.fold_left ( + ) 0 items) in
      float_of_int (List.fold_left max 0 items) /. (sum /. n)

let worker_items tracer = List.map (fun (tid, _, items) -> (tid, items)) (Tracer.worker_stats tracer)

let items_delta ~before after =
  List.map (fun (tid, items) -> items - Option.value ~default:0 (List.assoc_opt tid before)) after

(* Phase metrics of the analysis core, from its spans.  The scan is what
   [lower_bounds] spends outside planning and reduction: its chunks. *)
let phase_metrics ~per s =
  let m name span = Out.metric name "ms" (total s span /. per) in
  [
    m "soa.pack_ms" "pack";
    m "analysis.est_lct_ms" "est_lct";
    m "analysis.plan_ms" "plan";
    Out.metric "analysis.scan_ms" "ms"
      ((total s "lower_bounds" -. total s "plan" -. total s "reduce") /. per);
    m "analysis.reduce_ms" "reduce";
    m "analysis.cost_ms" "cost";
  ]

let counter_metrics ~candidates ~evals ~chunks ~imbalance =
  [
    Out.metric "analysis.candidate_intervals" "count" (float_of_int candidates);
    Out.metric "analysis.theta_evals" "count" (float_of_int evals);
    Out.metric "analysis.theta_eval_frac" "frac"
      (if candidates = 0 then 0.0 else float_of_int evals /. float_of_int candidates);
    Out.metric "pool.chunks_claimed" "count" (float_of_int chunks);
    Out.metric "pool.item_imbalance" "ratio" imbalance;
  ]

(* Every per-layer metric, in BENCHMARK.json order; a workload that
   leaves a layer idle reports it as 0. *)
let per_layer_names =
  [
    ("appfile.parse_ms", "ms"); ("soa.pack_ms", "ms"); ("analysis.est_lct_ms", "ms");
    ("analysis.plan_ms", "ms"); ("analysis.scan_ms", "ms"); ("analysis.reduce_ms", "ms");
    ("analysis.cost_ms", "ms"); ("analysis.candidate_intervals", "count");
    ("analysis.theta_evals", "count"); ("analysis.theta_eval_frac", "frac");
    ("pool.chunks_claimed", "count"); ("pool.item_imbalance", "ratio");
    ("json.encode_ms", "ms"); ("protocol.decode_ms", "ms");
    ("incremental.fingerprint_ms", "ms"); ("incremental.edit_ms", "ms");
    ("incremental.cone_tasks", "count"); ("incremental.block_hits", "count");
    ("incremental.create_ms", "ms");
    ("server.service_ms.high.p50", "ms"); ("server.service_ms.high.p99", "ms");
    ("server.service_ms.low.p50", "ms"); ("server.service_ms.low.p99", "ms");
    ("server.queue_wait_ms.high.p50", "ms"); ("server.queue_wait_ms.high.p99", "ms");
    ("server.queue_wait_ms.low.p50", "ms"); ("server.queue_wait_ms.low.p99", "ms");
    ("server.coalesced_frac", "frac"); ("cache.cold_builds", "count");
    ("cache.hit_frac", "frac"); ("cache.evictions", "count"); ("server.rejected", "count");
    ("server.degraded", "count"); ("client.gen_lag_p99_ms", "ms");
    ("trace.overhead_frac", "frac"); ("trace.stage_sum_ms", "ms"); ("trace.wall_ms", "ms");
  ]

let complete ms =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun m -> m.Out.name = name) ms with
      | Some m -> m
      | None -> Out.metric name unit_ 0.0)
    per_layer_names

type outcome = {
  ok : bool;  (** Every unmeasured answer (warm-up) was correct too. *)
  tally : Check.tally;
  metrics : Out.metric list;
  notes : (string * Out.v) list;  (** Run metadata specific to the trace. *)
  tracer : Tracer.t;  (** For the Chrome trace file. *)
}

(* ---- analyze-frames ---------------------------------------------- *)

(* What [rtlb analyze FILE --json] does, in the same order. *)
let analyze_once ?tracer path =
  let tr = Option.value tracer ~default:Tracer.null in
  let t0 = Proc.now_ns () in
  let { Rtfmt.Appfile.app; system }, parse_ms =
    timed (fun () -> Tracer.with_span tr "bench.appfile_parse" (fun () -> Rtfmt.Appfile.parse_file path))
  in
  let system =
    match system with
    | Some s -> s
    | None -> Rtlb.System.shared_uniform ~resources:(Rtlb.App.resource_set app)
  in
  let a = Rtlb.Analysis.run ?tracer system app in
  let out, encode_ms =
    timed (fun () -> Tracer.with_span tr "bench.json_encode" (fun () -> Check.cli_output a))
  in
  (out, parse_ms, encode_ms, ms_since t0)

let analyze_frames ~path ~expected ~seconds =
  let tally = Check.tally () in
  let judge out =
    Check.record tally ~within:true (Check.verdict ~expected (Some (Check.seen_of_line out)))
  in
  (* untraced and traced passes alternate, and so does their order
     within a pair, so drift and the previous pass's garbage weigh on
     both alike *)
  let t_start = Proc.now_ns () in
  let plain = ref [] and traced = ref [] in
  let last_tracer = ref Tracer.null in
  let untraced_pass () =
    let out, _, _, wall = analyze_once path in
    judge out;
    plain := wall :: !plain
  in
  let traced_pass () =
    let tracer = Tracer.make () in
    let out, parse, encode, wall = analyze_once ~tracer path in
    judge out;
    let s = span_totals tracer in
    let c = Tracer.counter tracer in
    (* the stages the trace covers; what the wall time holds beyond them
       (validation, the analysis root's own work) stays visible *)
    let stages =
      parse +. total s "est_lct" +. total s "lower_bounds" +. total s "cost" +. encode
    in
    let row =
      [
        Out.metric "appfile.parse_ms" "ms" parse;
        Out.metric "json.encode_ms" "ms" encode;
        Out.metric "trace.stage_sum_ms" "ms" stages;
        Out.metric "trace.wall_ms" "ms" wall;
      ]
      @ phase_metrics ~per:1.0 s
      @ counter_metrics ~candidates:(c Tracer.Candidate_intervals) ~evals:(c Tracer.Theta_evals)
          ~chunks:(c Tracer.Chunks_claimed)
          ~imbalance:(imbalance (List.map snd (worker_items tracer)))
    in
    traced := (row, total s "analyze") :: !traced;
    last_tracer := tracer
  in
  while !traced = [] || Proc.seconds_since t_start < seconds do
    if List.length !traced mod 2 = 0 then (
      untraced_pass ();
      traced_pass ())
    else (
      traced_pass ();
      untraced_pass ())
  done;
  let median_of name =
    Stat.median
      (Array.of_list
         (List.map
            (fun (row, _) -> (List.find (fun m -> m.Out.name = name) row).Out.value)
            !traced))
  in
  let rows = List.map fst !traced in
  let plain_ms = Stat.median (Array.of_list !plain) in
  let traced_ms = median_of "trace.wall_ms" in
  let metrics =
    List.map (fun m -> Out.metric m.Out.name m.Out.unit_ (median_of m.Out.name)) (List.hd rows)
    @ [ Out.metric "trace.overhead_frac" "frac" ((traced_ms -. plain_ms) /. plain_ms) ]
  in
  {
    ok = true;
    tally;
    metrics = complete metrics;
    notes =
      [
        ("passes_untraced", Out.I (List.length !plain));
        ("passes_traced", Out.I (List.length !traced));
        ("untraced_wall_ms", Out.F plain_ms);
        ( "analyze_span_ms",
          Out.F (Stat.median (Array.of_list (List.map snd !traced))) );
      ];
    tracer = !last_tracer;
  }

(* ---- serve workloads --------------------------------------------- *)

type replay = {
  start_ns : int;  (** Clock time of schedule offset 0. *)
  submit_ns : int array;
  done_ns : int array;
  replies : Check.seen option array;
  since_ns : int64;  (** Tracer clock at the start of the replay. *)
  counters_before : Tracer.counter -> int;
  items_before : (int * int) list;
}

(* The schedule through an in-process [Server] with the daemon's default
   configuration plus [tracer]: the hot set is warmed first, then every
   request is submitted at its due time.  Counters and spans are taken
   from the first measured request on. *)
let replay ~(sched : Schedule.t) ~tracer =
  let server = Server.create ~config:{ Server.default_config with Server.tracer } () in
  let warm_left = Atomic.make (Array.length sched.Schedule.hot) in
  Array.iteri
    (fun k inst ->
      Server.submit server (Schedule.analyze_frame ~id:(1_000_000 + k) inst) (fun _ ->
          Atomic.decr warm_left))
    sched.Schedule.hot;
  let give_up = Proc.now_ns () + 60_000_000_000 in
  while Atomic.get warm_left > 0 do
    if Proc.now_ns () > give_up then failwith "in-process server did not warm the hot set";
    Thread.delay 0.001
  done;
  let reqs = sched.Schedule.requests in
  let lines = Array.map (Schedule.frame_line sched) reqs in
  let n = Array.length reqs in
  let submit_ns = Array.make n 0 and done_ns = Array.make n (-1) in
  let replies = Array.make n None in
  let answered = Atomic.make 0 in
  let snapshot = ref [] and items_before = ref [] and since_ns = ref 0L in
  let start = Proc.now_ns () + 20_000_000 in
  Array.iteri
    (fun i r ->
      if i = sched.Schedule.measured_from then begin
        snapshot := List.map (fun c -> (c, Tracer.counter tracer c)) Tracer.all_counters;
        items_before := worker_items tracer;
        since_ns := Rtlb_obs.Clock.now_ns (Tracer.clock tracer)
      end;
      let wait = start + r.Schedule.due_ns - Proc.now_ns () in
      if wait > 0 then Thread.delay (float_of_int wait /. 1e9);
      submit_ns.(i) <- Proc.now_ns ();
      Server.submit server lines.(i) (fun line ->
          done_ns.(i) <- Proc.now_ns ();
          replies.(i) <- Some (Check.seen_of_line line);
          Atomic.incr answered))
    reqs;
  let give_up = Proc.now_ns () + 30_000_000_000 in
  while Atomic.get answered < n && Proc.now_ns () < give_up do Thread.delay 0.001 done;
  Server.shutdown server;
  {
    start_ns = start;
    submit_ns;
    done_ns;
    replies;
    since_ns = !since_ns;
    counters_before = (fun c -> Option.value ~default:0 (List.assoc_opt c !snapshot));
    items_before = !items_before;
  }

(* Stage times of one request, measured by calling each stage's public
   function on the request's frame: decode, parse, cache key, the
   incremental edit or cold build, and the reply encoding. *)
type stages = {
  req : int;  (** Index in the schedule. *)
  decode_ms : float;
  parse_ms : float;
  fingerprint_ms : float;
  work_ms : float;  (** [Incremental.edit] or [Incremental.create], untraced. *)
  work_traced_ms : float;  (** The same call with a live tracer. *)
  encode_ms : float;
}

let service st = st.decode_ms +. st.parse_ms +. st.fingerprint_ms +. st.work_ms +. st.encode_ms

(* At most this many requests, evenly spread over the schedule, are
   probed stage by stage. *)
let probe_cap = 1200

(* The incremental call of each probed request runs once untraced and
   once traced, in alternating order, which gives the tracing overhead
   without an order bias.  A handle keeps the block scans of its edits,
   so each hot instance has two identical handles, one for each kind of
   call: both see every probed edit once, in schedule order, as the
   daemon's cached handle does. *)
let stage_probe ~(sched : Schedule.t) =
  let reqs = sched.Schedule.requests in
  let lo = sched.Schedule.measured_from in
  let n = Array.length reqs - lo in
  let picked = Array.init (min n probe_cap) (fun k -> lo + (k * n / min n probe_cap)) in
  let tracer = Tracer.make () in
  Rtlb_par.Pool.with_pool ~jobs:Server.default_config.Server.jobs (fun pool ->
      let create ?tracer (i : Schedule.instance) =
        Rtlb.Incremental.create ~pool ?tracer i.Schedule.system i.Schedule.app
      in
      let plain_handles, create_hot_ms =
        Array.split (Array.map (fun i -> timed (fun () -> create i)) sched.Schedule.hot)
      in
      let traced_handles = Array.map create sched.Schedule.hot in
      (* [plain ()] and [traced ()] each run once; the untraced result is
         kept for the encoding *)
      let both k plain traced =
        let run_traced () = snd (timed traced) in
        if k mod 2 = 0 then
          let x, p = timed plain in
          (x, p, run_traced ())
        else
          let t = run_traced () in
          let x, p = timed plain in
          (x, p, t)
      in
      let probe k i =
        let r = reqs.(i) in
        let line = Schedule.frame_line sched r in
        let req, decode_ms =
          timed (fun () ->
              match Protocol.request_of_json (Json.parse line) with
              | Ok req -> req
              | Error m -> failwith m)
        in
        let { Rtfmt.Appfile.app; system }, parse_ms =
          timed (fun () -> Rtfmt.Appfile.parse req.Protocol.app)
        in
        let system =
          match system with
          | Some s -> s
          | None -> Rtlb.System.shared_uniform ~resources:(Rtlb.App.resource_set app)
        in
        let _, fingerprint_ms = timed (fun () -> Rtlb.Incremental.instance_fingerprint system app) in
        let id = Json.Int r.Schedule.id in
        let reply, work_ms, work_traced_ms =
          match r.Schedule.kind with
          | Schedule.Whatif { inst; _ } ->
              let edit ?tracer h () = Rtlb.Incremental.edit ~pool ?tracer h req.Protocol.edits in
              let edited, p, t =
                both k (edit plain_handles.(inst)) (fun () ->
                    ignore (edit ~tracer traced_handles.(inst) ()))
              in
              let base = Rtlb.Incremental.base plain_handles.(inst) in
              ( (fun () ->
                  Protocol.ok_reply ~id ~op:Protocol.Whatif (Json.of_whatif ~base ~edited)),
                p,
                t )
          | Schedule.Cold _ ->
              let build ?tracer () = Rtlb.Incremental.create ~pool ?tracer system app in
              let handle, p, t = both k build (fun () -> ignore (build ~tracer ())) in
              ( (fun () ->
                  Protocol.ok_reply ~id ~op:Protocol.Analyze
                    (Json.of_analysis (Rtlb.Incremental.base handle))),
                p,
                t )
        in
        let _, encode_ms = timed (fun () -> Protocol.to_line (reply ())) in
        { req = i; decode_ms; parse_ms; fingerprint_ms; work_ms; work_traced_ms; encode_ms }
      in
      (Array.mapi probe picked, create_hot_ms))

let serve ~(sched : Schedule.t) ~refs =
  let reqs = sched.Schedule.requests in
  let tracer = Tracer.make () in
  let rp = replay ~sched ~tracer in
  let stages, create_hot_ms = stage_probe ~sched in
  let limit_ms = Schedule.limit_ms sched.Schedule.workload in
  let answered i = rp.done_ns.(i) >= 0 in
  let response i = float_of_int (rp.done_ns.(i) - rp.submit_ns.(i)) /. 1e6 in
  let lo = sched.Schedule.measured_from and hi = Array.length reqs in
  let measured = List.init (hi - lo) (fun k -> lo + k) in
  let correct i = Check.verdict ~expected:(Check.expected refs reqs.(i)) rp.replies.(i) = Check.Correct in
  let warmup_ok = List.for_all correct (List.init lo Fun.id) in
  let tally = Check.tally () in
  List.iter
    (fun i ->
      Check.record tally
        ~within:(answered i && response i <= limit_ms)
        (Check.verdict ~expected:(Check.expected refs reqs.(i)) rp.replies.(i)))
    measured;
  let n_answered = List.length (List.filter answered measured) in
  let s = span_totals ~since_ns:rp.since_ns tracer in
  let delta c = Tracer.counter tracer c - rp.counters_before c in
  let pick cls f =
    Array.of_list
      (List.filter_map
         (fun st ->
           if Schedule.is_warm reqs.(st.req) = (cls = "high") && answered st.req then Some (f st)
           else None)
         (Array.to_list stages))
  in
  let v xs p = if Array.length xs = 0 then 0.0 else (snd (Stat.tail xs p)).Stat.value in
  (* the server ranks warm what-ifs high and cold analyses low *)
  let class_metrics cls =
    let service_ms = pick cls service in
    let wait_ms = pick cls (fun st -> Float.max 0.0 (response st.req -. service st)) in
    [
      Out.metric (Printf.sprintf "server.service_ms.%s.p50" cls) "ms" (v service_ms 50.0);
      Out.metric (Printf.sprintf "server.service_ms.%s.p99" cls) "ms" (v service_ms 99.0);
      Out.metric (Printf.sprintf "server.queue_wait_ms.%s.p50" cls) "ms" (v wait_ms 50.0);
      Out.metric (Printf.sprintf "server.queue_wait_ms.%s.p99" cls) "ms" (v wait_ms 99.0);
    ]
  in
  let med f = Stat.median (Array.map f stages) in
  let work_of warm =
    Array.of_list
      (List.filter_map
         (fun st -> if Schedule.is_warm reqs.(st.req) = warm then Some st.work_ms else None)
         (Array.to_list stages))
  in
  let edits = work_of true and creates = work_of false in
  let admitted = delta Tracer.Requests_admitted in
  let frac a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let lag_ms =
    Array.of_list
      (List.map
         (fun i -> float_of_int (rp.submit_ns.(i) - rp.start_ns - reqs.(i).Schedule.due_ns) /. 1e6)
         measured)
  in
  let sum f = Array.fold_left (fun acc st -> acc +. f st) 0.0 stages in
  let responses =
    Array.of_list (List.filter_map (fun i -> if answered i then Some (response i) else None) measured)
  in
  let metrics =
    [
      Out.metric "appfile.parse_ms" "ms" (med (fun st -> st.parse_ms));
      Out.metric "json.encode_ms" "ms" (med (fun st -> st.encode_ms));
      Out.metric "protocol.decode_ms" "ms" (med (fun st -> st.decode_ms));
      Out.metric "incremental.fingerprint_ms" "ms" (med (fun st -> st.fingerprint_ms));
      Out.metric "incremental.edit_ms" "ms" (if edits = [||] then 0.0 else Stat.median edits);
      Out.metric "incremental.create_ms" "ms"
        (Stat.median (if creates = [||] then create_hot_ms else creates));
      Out.metric "incremental.cone_tasks" "count" (float_of_int (delta Tracer.Cone_tasks));
      Out.metric "incremental.block_hits" "count" (float_of_int (delta Tracer.Cache_hits));
      Out.metric "server.coalesced_frac" "frac" (frac (delta Tracer.Coalesced_queries) admitted);
      Out.metric "cache.cold_builds" "count" (float_of_int (delta Tracer.Cold_builds));
      Out.metric "cache.hit_frac" "frac" (frac (admitted - delta Tracer.Cold_builds) admitted);
      Out.metric "cache.evictions" "count" (float_of_int (delta Tracer.Evictions));
      Out.metric "server.rejected" "count" (float_of_int (delta Tracer.Requests_rejected));
      Out.metric "server.degraded" "count" (float_of_int (delta Tracer.Degraded_replies));
      Out.metric "client.gen_lag_p99_ms" "ms"
        (Stat.percentile (Array.map (Float.max 0.0) lag_ms) 99.0).Stat.value;
      Out.metric "trace.overhead_frac" "frac"
        ((sum (fun st -> st.work_traced_ms) /. sum (fun st -> st.work_ms)) -. 1.0);
      Out.metric "trace.stage_sum_ms" "ms" (med service);
      Out.metric "trace.wall_ms" "ms" (Stat.median responses);
    ]
    @ phase_metrics ~per:(float_of_int (max 1 n_answered)) s
    @ counter_metrics ~candidates:(delta Tracer.Candidate_intervals)
        ~evals:(delta Tracer.Theta_evals) ~chunks:(delta Tracer.Chunks_claimed)
        ~imbalance:(imbalance (items_delta ~before:rp.items_before (worker_items tracer)))
    @ class_metrics "high" @ class_metrics "low"
  in
  {
    ok = warmup_ok;
    tally;
    metrics = complete metrics;
    notes =
      [
        ("warmup_requests", Out.I lo);
        ("warmup_correct", Out.B warmup_ok);
        ("replayed_requests", Out.I (hi - lo));
        ("answered", Out.I n_answered);
        ("probed_requests", Out.I (Array.length stages));
        ("probed_high", Out.I (Array.length (pick "high" service)));
        ("probed_low", Out.I (Array.length (pick "low" service)));
        ("requests_admitted", Out.I admitted);
      ];
    tracer;
  }
