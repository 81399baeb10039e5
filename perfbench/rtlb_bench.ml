(* The rtlb benchmark; see README.md.

     rtlb_bench --cli PATH --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 it measures the built [rtlb] binary end to end and
   prints every end-to-end metric; with --trace 1 it runs the same
   workload in process with a tracer and prints every per-layer metric.
   The last line of standard output is the result object; everything
   before it (and the result file under .perfbench_work/) carries the
   run's metadata. *)

open Perfbench

let work_dir = ".perfbench_work"
let work name = Filename.concat work_dir name

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

(* ---- metadata ---------------------------------------------------- *)

(* The commit the checkout was made from, read from .git directly (never
   from an enclosing repository). *)
let git_revision () =
  let read p = try Some (String.trim (Proc.read_file p)) with Sys_error _ -> None in
  match read ".git/HEAD" with
  | None -> "unknown (not a git checkout)"
  | Some head when String.starts_with ~prefix:"ref: " head -> (
      let ref_ = String.sub head 5 (String.length head - 5) in
      match read (Filename.concat ".git" ref_) with
      | Some rev -> rev
      | None -> (
          let packed = Option.value ~default:"" (read ".git/packed-refs") in
          match
            List.find_opt
              (fun l -> String.ends_with ~suffix:(" " ^ ref_) l)
              (String.split_on_char '\n' packed)
          with
          | Some l -> List.hd (String.split_on_char ' ' l)
          | None -> "unknown"))
  | Some rev -> rev

let base_meta ~workload ~seed ~seconds ~trace ~loadavg =
  [
    ("workload", Out.S (Schedule.name workload));
    ("seed", Out.I seed);
    ("seconds", Out.F seconds);
    ("trace", Out.B trace);
    ("nproc", Out.I (Proc.nproc ()));
    ("ocaml", Out.S Sys.ocaml_version);
    ("git_revision", Out.S (git_revision ()));
    ("loadavg_at_start", Out.S loadavg);
    ("offered_rate_per_s", Out.F (Schedule.rate_per_s workload));
    ("latency_limit_ms", Out.F (Schedule.limit_ms workload));
  ]

(* ---- analyze-frames ---------------------------------------------- *)

let setup_repeats = 5

(* Set-up generates the instance and writes its file; it is timed
   [setup_repeats] times.  The program under test takes no part in it, so
   this set-up time gates the generator ([Workload.Gen],
   [Appfile.to_string]), not the rtlb binary. *)
let frames_setup ~seed path =
  let runs =
    List.init setup_repeats (fun _ ->
        let t0 = Proc.now_ns () in
        let inst = Schedule.frames_instance ~seed in
        write_file path inst.Schedule.text;
        (inst, Proc.seconds_since t0))
  in
  (fst (List.hd runs), Stat.median (Array.of_list (List.map snd runs)))

let analyze_untraced ~cli ~seed ~seconds =
  let path = work (Printf.sprintf "frames-%d.app" seed) in
  let inst, setup_s = frames_setup ~seed path in
  let limit_s = Schedule.limit_ms Schedule.Analyze_frames /. 1000.0 in
  (* one [rtlb analyze FILE --json] after another until [seconds] of
     process wall time are measured *)
  let runs = ref [] and spent = ref 0.0 in
  let host0 = Proc.host_ticks () in
  while !runs = [] || !spent < seconds do
    let out = work (Printf.sprintf "analyze-%d.json" (List.length !runs)) in
    let info =
      Proc.run ~prog:cli ~args:[ "analyze"; path; "--json" ] ~stdout:out
        ~stderr:(work "analyze.stderr") ~timeout_s:150.0
    in
    spent := !spent +. info.Proc.wall_s;
    runs := (info, out) :: !runs
  done;
  let runs = List.rev !runs in
  let steal = Proc.steal_frac ~before:host0 ~after:(Proc.host_ticks ()) in
  (* checks, off the clock *)
  let expected =
    Digest.string (Check.cli_output (Rtlb.Analysis.run inst.Schedule.system inst.Schedule.app))
  in
  let tally = Check.tally () in
  List.iter
    (fun ((info : Proc.exit_info), out) ->
      let v =
        if info.Proc.code <> 0 then Check.Error_reply (Printf.sprintf "exit %d" info.Proc.code)
        else Check.verdict ~expected (Some (Check.seen_of_line (Proc.read_file out)))
      in
      Check.record tally ~within:(info.Proc.wall_s <= limit_s) v;
      Sys.remove out)
    runs;
  Sys.remove path;
  let walls = Array.of_list (List.map (fun ((i : Proc.exit_info), _) -> i.Proc.wall_s) runs) in
  let cpus = Array.of_list (List.map (fun ((i : Proc.exit_info), _) -> i.Proc.cpu_s) runs) in
  let wall_s = Stat.median walls and cpu_s = Stat.median cpus in
  let p99_level, p99 = Stat.tail walls 99.0 in
  let rss_kb = List.fold_left (fun m ((i : Proc.exit_info), _) -> max m i.Proc.maxrss_kb) 0 runs in
  let metrics =
    [
      Out.metric "setup_s" "s" setup_s;
      Out.metric "wall_s" "s" wall_s;
      Out.metric "cpu_s" "s" cpu_s;
      Out.metric "p50_ms" "ms" (wall_s *. 1000.0);
      Out.metric "p99_ms" "ms" (p99.Stat.value *. 1000.0);
      (* every process reads an input file the set-up just wrote, so
         every one is warm *)
      Out.metric "warm_p99_ms" "ms" (p99.Stat.value *. 1000.0);
      Out.metric "attained_frac" "frac"
        (float_of_int tally.Check.in_time /. float_of_int tally.Check.attempted);
      Out.metric "cpu_ms_per_req" "ms" (cpu_s *. 1000.0);
      Out.metric "peak_rss_mb" "MB" (float_of_int rss_kb /. 1024.0);
    ]
  in
  let notes =
    [
      ("program_argv", Out.L [ Out.S "rtlb"; Out.S "analyze"; Out.S "FILE"; Out.S "--json" ]);
      ("tasks", Out.I (Rtlb.App.n_tasks inst.Schedule.app));
      ("processes", Out.I (Array.length walls));
      ("p99_level", Out.F p99_level);
      ("walls_s", Out.L (Array.to_list (Array.map (fun w -> Out.F w) walls)));
      ("cpus_s", Out.L (Array.to_list (Array.map (fun w -> Out.F w) cpus)));
      ("setup_repeats", Out.I setup_repeats);
      ("host_steal_frac", Out.F steal);
    ]
  in
  (tally, metrics, notes)

(* ---- serve workloads --------------------------------------------- *)

let daemon_setups = 5

(* Spawns the daemon and warms the hot set: the set-up a serve run times.
   Returns the live daemon, a control connection and the warm-up
   replies. *)
let daemon_setup ~cli ~(sched : Schedule.t) k =
  let t0 = Proc.now_ns () in
  let d =
    Proc.start_daemon ~cli ~socket:(work (Printf.sprintf "d%d.sock" k))
      ~log:(work (Printf.sprintf "daemon-%d.log" k))
  in
  let fd = Proc.await_daemon d ~timeout_s:30.0 in
  let r = Proc.reader fd in
  Array.iteri
    (fun i inst -> Proc.write_all fd (Schedule.analyze_frame ~id:(1_000_000 + i) inst ^ "\n"))
    sched.Schedule.hot;
  let warm = Array.map (fun _ -> Proc.read_line r ~timeout_s:60.0) sched.Schedule.hot in
  (d, r, warm, Proc.seconds_since t0)

let counter stats name = Option.value ~default:0 (List.assoc_opt name stats)

let serve_untraced ~cli ~(sched : Schedule.t) =
  let workload = sched.Schedule.workload in
  let setups = List.init daemon_setups (daemon_setup ~cli ~sched) in
  List.iteri
    (fun i (d, r, _, _) ->
      if i < daemon_setups - 1 then (
        Unix.close r.Proc.fd;
        ignore (Proc.stop_daemon d)))
    setups;
  let setup_s = Stat.median (Array.of_list (List.map (fun (_, _, _, s) -> s) setups)) in
  (* the last daemon set up serves the warm-up and the measured phase *)
  let d, ctl, _, _ = List.nth setups (daemon_setups - 1) in
  let conns =
    Array.init Schedule.connections (fun _ ->
        match Proc.connect d.Proc.socket with
        | Some fd -> Loadgen.conn fd
        | None -> failwith "cannot connect to rtlb serve")
  in
  let lo = sched.Schedule.measured_from and hi = Array.length sched.Schedule.requests in
  let warmup = Loadgen.run ~sched ~lo:0 ~hi:lo ~from_ns:0 ~conns ~drain_timeout_s:15.0 in
  let stats0 = Proc.stats ctl in
  let cpu0 = Proc.cpu_seconds d.Proc.pid and host0 = Proc.host_ticks () in
  let res =
    Loadgen.run ~sched ~lo ~hi ~from_ns:(int_of_float (Schedule.warmup_s *. 1e9)) ~conns
      ~drain_timeout_s:15.0
  in
  let daemon_cpu_s = Proc.cpu_seconds d.Proc.pid -. cpu0 in
  let steal = Proc.steal_frac ~before:host0 ~after:(Proc.host_ticks ()) in
  let stats1 = Proc.stats ctl in
  let rss_kb = Proc.peak_rss_kb d.Proc.pid in
  Array.iter (fun c -> Unix.close c.Loadgen.fd) conns;
  Unix.close ctl.Proc.fd;
  let exit_code = Proc.stop_daemon d in
  let delta k = counter stats1 k - counter stats0 k in
  (* checks, off the clock *)
  let refs = Check.refs sched in
  let reqs = sched.Schedule.requests in
  let correct ~from (r : Loadgen.result) i =
    Check.verdict ~expected:(Check.expected refs reqs.(i)) r.Loadgen.replies.(i - from)
    = Check.Correct
  in
  let setup_ok replies =
    Array.for_all
      (fun line ->
        match Check.reply_id line with
        | Some id when id >= 1_000_000 && id < 1_000_000 + Array.length replies ->
            Check.verdict
              ~expected:(Digest.string (Check.analyze_reply ~id (Check.base refs (id - 1_000_000))))
              (Some (Check.seen_of_line line))
            = Check.Correct
        | _ -> false)
      replies
  in
  (* every answer is checked: set-ups, warm-up and measured phase *)
  let others_ok =
    exit_code = 0
    && List.for_all (fun (_, _, replies, _) -> setup_ok replies) setups
    && List.for_all (correct ~from:0 warmup) (List.init lo Fun.id)
  in
  let limit_ms = Schedule.limit_ms workload in
  let tally = Check.tally () in
  (* measured request [lo + k] is at index [k] of the result *)
  let latency k =
    float_of_int
      (res.Loadgen.done_ns.(k) - res.Loadgen.start_ns
      - (reqs.(lo + k).Schedule.due_ns - int_of_float (Schedule.warmup_s *. 1e9)))
    /. 1e6
  in
  let answered k = res.Loadgen.done_ns.(k) >= 0 in
  for k = 0 to hi - lo - 1 do
    Check.record tally
      ~within:(answered k && latency k <= limit_ms)
      (Check.verdict ~expected:(Check.expected refs reqs.(lo + k)) res.Loadgen.replies.(k))
  done;
  let sample pred =
    Array.of_list
      (List.filter_map
         (fun k -> if answered k && pred reqs.(lo + k) then Some (latency k) else None)
         (List.init (hi - lo) Fun.id))
  in
  let all = sample (fun _ -> true) and warm = sample Schedule.is_warm in
  let p50 = Stat.percentile all 50.0 in
  let p99_level, p99 = Stat.tail all 99.0 and warm_level, warm99 = Stat.tail warm 99.0 in
  let answered = Array.length all in
  let lag99 = Stat.percentile (Array.map (fun l -> float_of_int l /. 1e6) res.Loadgen.lag_ns) 99.0 in
  let valid = lag99.Stat.value <= 0.1 *. limit_ms in
  if not valid then
    prerr_endline
      (Printf.sprintf "perfbench: generator p99 lag %.2f ms exceeds 10%% of the %.0f ms limit; run invalid"
         lag99.Stat.value limit_ms);
  let admitted = delta "requests_admitted" in
  let frac a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let per_req = daemon_cpu_s /. float_of_int (max 1 answered) in
  let metrics =
    [
      Out.metric "setup_s" "s" setup_s;
      Out.metric "wall_s" "s" (p50.Stat.value /. 1000.0);
      Out.metric "cpu_s" "s" per_req;
      Out.metric "p50_ms" "ms" p50.Stat.value;
      Out.metric "p99_ms" "ms" p99.Stat.value;
      Out.metric "warm_p99_ms" "ms" warm99.Stat.value;
      Out.metric "attained_frac" "frac"
        (float_of_int tally.Check.in_time /. float_of_int (max 1 tally.Check.attempted));
      Out.metric "cpu_ms_per_req" "ms" (per_req *. 1000.0);
      Out.metric "peak_rss_mb" "MB" (float_of_int rss_kb /. 1024.0);
    ]
  in
  let pct ?(level = 50.0) (p : Stat.pct) =
    Out.O
      [ ("level", Out.F level); ("value_ms", Out.F p.Stat.value); ("n", Out.I p.Stat.n);
        ("beyond", Out.I p.Stat.beyond) ]
  in
  let notes =
    [
      ("daemon_argv", Out.L (List.map (fun s -> Out.S s) d.Proc.argv));
      ("daemon_exit", Out.I exit_code);
      ("connections", Out.I Schedule.connections);
      ("warmup_requests", Out.I lo);
      ("requests", Out.I (hi - lo));
      ("answered", Out.I answered);
      ("stray_replies", Out.I res.Loadgen.stray);
      ("p50", pct p50);
      ("p99", pct ~level:p99_level p99);
      ("warm_p99", pct ~level:warm_level warm99);
      ("gen_lag_p99", pct ~level:99.0 lag99);
      ("run_valid", Out.B valid);
      ("host_steal_frac", Out.F steal);
      ("setups", Out.L (List.map (fun (_, _, _, s) -> Out.F s) setups));
      ("other_answers_correct", Out.B others_ok);
      ("daemon_cpu_s", Out.F daemon_cpu_s);
      ( "daemon_stats_delta",
        Out.O
          (List.map
             (fun k -> (k, Out.I (delta k)))
             [ "requests_admitted"; "requests_rejected"; "cold_builds"; "coalesced_queries";
               "evictions"; "degraded_replies"; "cache_hits"; "cone_tasks" ]) );
      ("cache_hit_share", Out.F (frac (admitted - delta "cold_builds") admitted));
      ("coalesced_share", Out.F (frac (delta "coalesced_queries") admitted));
    ]
  in
  (tally, metrics, notes, others_ok)

(* ---- report ------------------------------------------------------ *)

let print_tally (t : Check.tally) =
  Printf.printf "checked %d: %d correct, %d wrong, %d error replies%s, %d missing\n" t.Check.attempted
    t.Check.correct t.Check.wrong t.Check.errors
    (match t.Check.codes with
    | [] -> ""
    | codes -> " (" ^ String.concat ", " (List.map (fun (c, n) -> Printf.sprintf "%s x%d" c n) codes) ^ ")")
    t.Check.missing

let print_metrics ms =
  List.iter (fun m -> Printf.printf "  %-34s %14.4f %s\n" m.Out.name m.Out.value m.Out.unit_) ms

let traced_report ~workload (o : Traced.outcome) =
  let s = Traced.span_totals o.Traced.tracer in
  let names = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) s.Traced.total_ms []) in
  Printf.printf "spans of the last traced pass (%s): name, total ms, self ms\n" (Schedule.name workload);
  List.iter
    (fun n ->
      Printf.printf "  %-24s %12.3f %12.3f\n" n (Traced.total s n)
        (Option.value ~default:0.0 (Hashtbl.find_opt s.Traced.self_ms n)))
    names;
  let get n = (List.find (fun m -> m.Out.name = n) o.Traced.metrics).Out.value in
  let sum = get "trace.stage_sum_ms" and wall = get "trace.wall_ms" in
  Printf.printf "traced stage sum %.3f ms vs traced wall %.3f ms: %.3f ms (%.1f%%) not covered by a stage\n"
    sum wall (wall -. sum) (100.0 *. (wall -. sum) /. wall);
  Printf.printf "tracing overhead: %+.2f%%\n" (100.0 *. get "trace.overhead_frac")

(* The traced run's spans as a Chrome trace (chrome://tracing, Perfetto). *)
let write_trace ~workload ~seed (o : Traced.outcome) =
  let path = work (Printf.sprintf "trace-%s-%d.json" (Schedule.name workload) seed) in
  write_file path (Rtlb_obs.Trace_event.to_string ~process_name:"perfbench" o.Traced.tracer);
  path

let traced_result ~workload ~seed (o : Traced.outcome) =
  traced_report ~workload o;
  let path = write_trace ~workload ~seed o in
  (o.Traced.tally, o.Traced.metrics, o.Traced.notes @ [ ("trace_file", Out.S path) ], o.Traced.ok)

(* ---- main -------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: rtlb_bench --cli PATH --workload analyze-frames|serve-sweep|serve-mixed --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> parse ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let cli = get "--cli" in
  let workload = match Schedule.of_name (get "--workload") with Some w -> w | None -> usage () in
  let seed = match int_of_string_opt (get "--seed") with Some s -> s | None -> usage () in
  let seconds =
    match float_of_string_opt (get "--seconds") with Some s when s > 0.0 -> s | _ -> usage ()
  in
  let trace = match get "--trace" with "0" -> false | "1" -> true | _ -> usage () in
  if not (Sys.file_exists cli) then (
    prerr_endline ("perfbench: no rtlb binary at " ^ cli);
    exit 2);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* a stopped benchmark still stops its daemons (at_exit in Proc) *)
  List.iter
    (fun (signal, code) -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> exit code)))
    [ (Sys.sigint, 130); (Sys.sigterm, 143) ];
  if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755;
  let loadavg = Proc.loadavg () in
  let meta = base_meta ~workload ~seed ~seconds ~trace ~loadavg in
  let tally, metrics, notes, ok =
    match (workload, trace) with
    | Schedule.Analyze_frames, false ->
        let tally, metrics, notes = analyze_untraced ~cli ~seed ~seconds in
        (tally, metrics, notes, true)
    | (Schedule.Serve_sweep | Schedule.Serve_mixed), false ->
        serve_untraced ~cli ~sched:(Schedule.make workload ~seed ~seconds)
    | Schedule.Analyze_frames, true ->
        let path = work (Printf.sprintf "frames-%d.app" seed) in
        let inst, _ = frames_setup ~seed path in
        let expected =
          Digest.string (Check.cli_output (Rtlb.Analysis.run inst.Schedule.system inst.Schedule.app))
        in
        let o = Traced.analyze_frames ~path ~expected ~seconds in
        Sys.remove path;
        traced_result ~workload ~seed o
    | (Schedule.Serve_sweep | Schedule.Serve_mixed), true ->
        let sched = Schedule.make workload ~seed ~seconds in
        traced_result ~workload ~seed (Traced.serve ~sched ~refs:(Check.refs sched))
  in
  print_tally tally;
  print_metrics metrics;
  let failed = Check.failed tally in
  let correct = ok && failed = 0 in
  let meta =
    meta
    @ [
        ("attempted", Out.I tally.Check.attempted);
        ("failed", Out.I failed);
        ("failed_frac", Out.F (float_of_int failed /. float_of_int (max 1 tally.Check.attempted)));
      ]
    @ notes
  in
  let result_file =
    work (Printf.sprintf "result-%s-%d-trace%d.json" (Schedule.name workload) seed (if trace then 1 else 0))
  in
  write_file result_file
    (Out.to_string (Out.O [ ("meta", Out.O meta); ("metrics", Out.metrics_json metrics) ]) ^ "\n");
  print_endline ("meta " ^ Out.to_string (Out.O meta));
  print_endline
    (Out.result_line ~correct ~attempted:tally.Check.attempted ~failed metrics)
