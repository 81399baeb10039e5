(* Benchmark harness: regenerates every table and figure-derived artefact
   of the paper (sections T1, S8-2..4, F2/F3) and runs the
   characterisation experiments E1..E16 from DESIGN.md.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe -- paper   -- only the paper reproduction
     dune exec bench/main.exe -- e3 e5   -- selected experiments
     dune exec bench/main.exe -- --jobs 8 e12   -- extend the E12 curve
     dune exec bench/main.exe -- --resume e12   -- pick up a killed run
     dune exec bench/main.exe -- --sizes 1000,100000 e14   -- pinned gate sizes

   --jobs N (or the RTLB_JOBS environment variable) adds an N-domain
   point to the E12 parallel-scaling curve.  --resume reuses completed
   stages from the BENCH_*.ckpt.json checkpoints a previous killed run
   left behind (see docs/ROBUSTNESS.md). *)

let sections =
  [
    ("t1", Paper_tables.table1);
    ("step2", Paper_tables.partitions);
    ("step3", Paper_tables.bounds);
    ("step4", Paper_tables.costs);
    ("trace", Paper_tables.traces);
    ("e1", Experiments.tightness);
    ("e2", Experiments.baselines);
    ("e3", Experiments.synthesis);
    ("e4", Experiments.preemption);
    ("e5", Experiments.partitioning);
    ("e6", Experiments.scaling);
    ("e7", Experiments.point_policies);
    ("e8", Experiments.preemptive_exactness);
    ("e9", Experiments.anomalies);
    ("e10", Experiments.time_bounds);
    ("e11", Experiments.priorities);
    ("e12", Experiments.parallel_scaling);
    ("e13", Experiments.incremental_sweep);
    ("e14", Experiments.soa_scaling);
    ("e15", Experiments.serve_throughput);
    ("e16", Experiments.recurrent_baselines);
  ]

let experiment_names =
  List.filter (fun n -> String.length n > 1 && n.[0] = 'e') (List.map fst sections)

let () =
  (* E14's launcher for its CLI processes, not a section. *)
  (match Array.to_list Sys.argv with
  | _ :: "peak-rss" :: prog :: args -> Experiments.peak_rss_launcher prog args
  | _ -> ());
  (* RTLB_CHAOS arms the deterministic fault harness (docs/ROBUSTNESS.md);
     the kill-and-resume CI smoke runs bench under killckpt@N. *)
  (match Rtlb_par.Chaos.arm_from_env () with
  | Ok _ -> ()
  | Error e ->
      prerr_endline ("bench: " ^ e);
      exit 2);
  (match Sys.getenv_opt "RTLB_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Experiments.jobs := n
      | _ -> ())
  | None -> ());
  let args = List.tl (Array.to_list Sys.argv) in
  let args = List.filter (( <> ) "--") args in
  let rec parse_jobs acc = function
    | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some j when j >= 1 ->
            Experiments.jobs := j;
            parse_jobs acc rest
        | _ ->
            Printf.eprintf "--jobs expects a positive integer, got %S\n" n;
            exit 1)
    | "--jobs" :: [] ->
        Printf.eprintf "--jobs expects a positive integer\n";
        exit 1
    | "--resume" :: rest ->
        Experiments.resume := true;
        parse_jobs acc rest
    | "--sizes" :: s :: rest -> (
        let sizes =
          String.split_on_char ',' s
          |> List.filter_map (fun x -> int_of_string_opt (String.trim x))
          |> List.filter (fun n -> n >= 100)
        in
        match sizes with
        | [] ->
            Printf.eprintf
              "--sizes expects comma-separated task counts >= 100, got %S\n" s;
            exit 1
        | sizes ->
            Experiments.soa_sizes := sizes;
            parse_jobs acc rest)
    | "--sizes" :: [] ->
        Printf.eprintf "--sizes expects comma-separated task counts\n";
        exit 1
    | a :: rest -> parse_jobs (a :: acc) rest
    | [] -> List.rev acc
  in
  let args = parse_jobs [] args in
  let wanted =
    match args with
    | [] -> List.map fst sections
    | [ "paper" ] -> [ "t1"; "step2"; "step3"; "step4"; "trace" ]
    | [ "experiments" ] -> experiment_names
    | names -> names
  in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> (
          try f ()
          with Rtlb_par.Chaos.Killed ->
            (* Simulated SIGKILL at a checkpoint write; the checkpoint
               just written is durable and --resume recovers from it. *)
            prerr_endline "bench: killed at checkpoint (chaos)";
            exit 137)
      | None ->
          Printf.eprintf "unknown section %S; available: %s\n" name
            (String.concat ", " (List.map fst sections));
          exit 1)
    wanted
