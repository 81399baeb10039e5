(* rtlb — command-line front end for the lower-bound analysis.

   Subcommands:
     analyze   run the four-step analysis on an application file
     check     validate an application file, one diagnostic per line
     example   reproduce the paper's Section 8 example
     schedule  run the validating list scheduler on a platform
     generate  emit a synthetic application in the appfile format
     dot       emit Graphviz for an application file *)

open Cmdliner

(* ---- signals ----------------------------------------------------- *)

(* First SIGINT/SIGTERM: request cooperative cancellation — the bound
   scans stop claiming work at their next chunk claim, the analysis
   comes back flagged partial, and the command flushes its (valid,
   partial) output before exiting 128+signum.  Second signal: the user
   insists — exit immediately. *)
let interrupted : int option ref = ref None

let install_signal_handlers () =
  let handle code _ =
    match !interrupted with
    | Some _ -> exit code
    | None ->
        interrupted := Some code;
        Rtlb_par.Pool.request_cancel ()
  in
  List.iter
    (fun (signal, code) ->
      try Sys.set_signal signal (Sys.Signal_handle (handle code))
      with Invalid_argument _ | Sys_error _ -> ())
    [ (Sys.sigint, 130); (Sys.sigterm, 143) ]

let exit_if_interrupted () =
  match !interrupted with Some code -> exit code | None -> ()

(* JSON output streams to stdout instead of being built as one string. *)
let print_json j =
  Rtfmt.Json.output stdout j;
  print_newline ()

let read_appfile path =
  try Ok (Rtfmt.Appfile.parse_file path) with
  | Rtfmt.Appfile.Parse_error (line, msg) ->
      Error (Printf.sprintf "%s:%d: %s" path line msg)
  | Sys_error m -> Error m

(* --jobs N / RTLB_JOBS: domain count for the parallel analysis engine.
   Default is sequential; the parallel path is bit-identical, so the
   flag only changes wall time. *)
let jobs_arg =
  let doc =
    "Run the analysis on $(docv) domains (defaults to the \
     $(b,RTLB_JOBS) environment variable, or 1 = sequential)."
  in
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let resolve_jobs = function
  | Some n -> max 1 n
  | None -> (
      match Sys.getenv_opt "RTLB_JOBS" with
      | Some s -> (
          match int_of_string_opt (String.trim s) with
          | Some n when n >= 1 -> n
          | _ -> 1)
      | None -> 1)

let with_jobs jobs f =
  let jobs = resolve_jobs jobs in
  if jobs <= 1 then f None
  else Rtlb_par.Pool.with_pool ~jobs (fun pool -> f (Some pool))

let system_arg =
  let doc =
    "Force the system model when the file does not declare one: $(b,uniform) \
     prices every resource at 1."
  in
  Arg.(value & opt (some string) None & info [ "system" ] ~docv:"MODEL" ~doc)

let resolve_system file_system override app =
  match (file_system, override) with
  | Some s, None -> Ok s
  | None, (Some "uniform" | None) ->
      Ok (Rtlb.System.shared_uniform ~resources:(Rtlb.App.resource_set app))
  | None, Some other ->
      Error (Printf.sprintf "unknown system override %S" other)
  | Some _, Some _ -> Error "file declares a system; drop --system"

(* [resolve_system], then every task must find a host and every
   quantity must stay in integer range: a model that cannot run some
   task (E103 in [check]) or an instance too large to sum (E104) is an
   input error, reported like a parse error rather than raised by the
   analysis. *)
let hosting_system path file_system override app =
  Result.bind (resolve_system file_system override app) (fun system ->
      Result.map_error
        (fun e -> path ^ ": " ^ e)
        (Result.map (fun () -> system) (Rtlb.Analysis.check_input system app)))

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")

(* --timeout SEC: wall-clock budget for the anytime analysis.  The scans
   stop claiming work at the deadline; whatever bounds were reached are
   reported, flagged as partial. *)
let timeout_arg =
  let doc =
    "Give the bound scans at most $(docv) seconds of wall-clock time; \
     results cut short by the budget are flagged as partial (and carry \
     $(b,partial: true) in JSON output)."
  in
  Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SEC" ~doc)

let deadline_of = function
  | None -> None
  | Some sec ->
      let budget_ns = Int64.of_float (Float.max 0.0 sec *. 1e9) in
      Some (Int64.add (Rtlb_par.Pool.now_ns ()) budget_ns)

(* ---- observability ---------------------------------------------- *)

(* --trace FILE / --stats build one tracer shared by the whole run.
   RTLB_FAKE_CLOCK=1 swaps in the deterministic fake clock — a test
   hook (the golden trace output is byte-stable under it), documented
   in docs/OBSERVABILITY.md. *)
let trace_arg =
  let doc =
    "Write the run as Chrome trace_event JSON to $(docv) (open in \
     chrome://tracing or ui.perfetto.dev); $(b,-) writes to stdout."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print the observability summary (span totals, analysis \
           counters, per-worker chunk accounting); with $(b,--json), a \
           $(b,stats) object is appended to the JSON output instead.")

let tracer_for ~trace ~stats =
  if trace = None && not stats then None
  else
    let clock =
      match Sys.getenv_opt "RTLB_FAKE_CLOCK" with
      | None | Some "" | Some "0" -> Rtlb_obs.Clock.monotonic
      | Some _ -> Rtlb_obs.Clock.fake ()
    in
    Some (Rtlb_obs.Tracer.make ~clock ())

let write_trace trace tracer =
  match (trace, tracer) with
  | None, _ | _, None -> ()
  | Some "-", Some tr -> print_string (Rtlb_obs.Trace_event.to_string tr)
  | Some file, Some tr ->
      Rtfmt.write_string_atomic file (Rtlb_obs.Trace_event.to_string tr);
      Printf.printf "wrote trace to %s\n" file

(* ---- analyze ---------------------------------------------------- *)

let analyze_cmd =
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the analysis as JSON.")
  in
  let full_arg =
    Arg.(
      value & flag
      & info [ "full" ]
          ~doc:"Full tabular report with criticality and demand profiles.")
  in
  (* One root span holds the command: [parse], the [analyze] subtree and
     [encode].  The tracer exists before the parse; the [--stats] summary
     is taken before anything is printed, so it holds [parse] and the
     [analyze] subtree, while [--trace] holds every span. *)
  let run path override json full jobs timeout trace stats =
    let tracer = tracer_for ~trace ~stats in
    let tr = Option.value tracer ~default:Rtlb_obs.Tracer.null in
    let outcome =
      Rtlb_obs.Tracer.with_span tr "cli" (fun () ->
          match
            Rtlb_obs.Tracer.with_span tr "parse" (fun () -> read_appfile path)
          with
          | Error e -> Error e
          | Ok { Rtfmt.Appfile.app; system } -> (
              match hosting_system path system override app with
              | Error e -> Error e
              | Ok system ->
                  let deadline_ns = deadline_of timeout in
                  let analysis =
                    with_jobs jobs (fun pool ->
                        Rtlb.Analysis.run ?pool ?deadline_ns ?tracer system app)
                  in
                  let summary = Option.map Rtlb_obs.Stats.of_tracer tracer in
                  Rtlb_obs.Tracer.with_span tr "encode" (fun () ->
                      if json then begin
                        Rtfmt.Json.output_analysis
                          ?stats:(if stats then summary else None)
                          stdout analysis;
                        print_newline ()
                      end
                      else begin
                        if full then
                          print_string
                            (Rtfmt.Report.render
                               ~demand_windows:
                                 (max 1 (Rtlb.App.horizon app / 8))
                               analysis)
                        else begin
                          Format.printf "%a@." Rtlb.Analysis.pp analysis;
                          match
                            Rtlb.Windows.feasible app
                              analysis.Rtlb.Analysis.windows
                          with
                          | Ok () -> ()
                          | Error e ->
                              Format.printf
                                "NOTE: application infeasible on this model: \
                                 %s@."
                                e
                        end;
                        match (stats, summary) with
                        | true, Some s ->
                            print_newline ();
                            print_string (Rtfmt.Stats_render.render s)
                        | _ -> ()
                      end);
                  Ok ()))
    in
    match outcome with
    | Error e -> `Error (false, e)
    | Ok () ->
        write_trace trace tracer;
        exit_if_interrupted ();
        `Ok ()
  in
  let doc = "Run the lower-bound analysis on an application file." in
  Cmd.v
    (Cmd.info "analyze" ~doc)
    Term.(
      ret
        (const run $ file_arg $ system_arg $ json_arg $ full_arg $ jobs_arg
       $ timeout_arg $ trace_arg $ stats_arg))

(* ---- check ------------------------------------------------------ *)

let check_cmd =
  let strict_arg =
    Arg.(
      value & flag
      & info [ "strict" ] ~doc:"Treat warnings as errors (exit 2 on W2xx).")
  in
  let run path strict =
    let diags =
      match Rtfmt.Appfile.parse_spec_file path with
      | spec -> Rtfmt.Appfile.check spec
      | exception Rtfmt.Appfile.Parse_error (l, m) ->
          [
            {
              Rtlb.Validate.d_code = "E100";
              d_severity = Rtlb.Validate.Error;
              d_subject = "application";
              d_message = m;
              d_line = (if l > 0 then Some l else None);
            };
          ]
      | exception Sys_error m ->
          [
            {
              Rtlb.Validate.d_code = "E100";
              d_severity = Rtlb.Validate.Error;
              d_subject = "application";
              d_message = m;
              d_line = None;
            };
          ]
    in
    List.iter
      (fun d -> print_endline (Rtlb.Validate.to_string ~file:path d))
      diags;
    if Rtlb.Validate.has_errors diags || (strict && diags <> []) then exit 2;
    `Ok ()
  in
  let doc =
    "Validate an application file: every diagnostic, one per line \
     ($(b,FILE:LINE: CODE subject: message)).  Exit 0 when clean (or \
     warnings only), 2 when errors are found.  Codes are stable; see \
     docs/DIAGNOSTICS.md."
  in
  Cmd.v (Cmd.info "check" ~doc) Term.(ret (const run $ file_arg $ strict_arg))

(* ---- example ---------------------------------------------------- *)

let example_cmd =
  let run () =
    let app = Rtlb.Paper_example.app in
    Format.printf "%a@.@." Rtlb.Analysis.pp
      (Rtlb.Analysis.run Rtlb.Paper_example.shared app);
    Format.printf "%a@." Rtlb.Analysis.pp
      (Rtlb.Analysis.run Rtlb.Paper_example.dedicated app)
  in
  let doc = "Reproduce the paper's Section 8 illustrative example." in
  Cmd.v (Cmd.info "example" ~doc) Term.(const run $ const ())

(* ---- schedule --------------------------------------------------- *)

let schedule_cmd =
  let counts_conv =
    let parse_kv kv =
      match String.split_on_char '=' kv with
      | [ k; v ] when k <> "" -> (
          match int_of_string_opt v with
          | Some n -> Ok (k, n)
          | None ->
              Error
                (`Msg
                   (Printf.sprintf
                      "in %S: %S is not an integer (expected NAME=COUNT)" kv v)))
      | _ ->
          Error
            (`Msg
               (Printf.sprintf
                  "bad token %S: expected NAME=COUNT pairs, e.g. P1=3,r1=2" kv))
    in
    let parse s =
      String.split_on_char ',' s
      |> List.filter (( <> ) "")
      |> List.fold_left
           (fun acc kv ->
             Result.bind acc (fun l ->
                 Result.map (fun p -> p :: l) (parse_kv kv)))
           (Ok [])
      |> Result.map List.rev
    in
    let print ppf l =
      Format.fprintf ppf "%s"
        (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) l))
    in
    Arg.conv (parse, print)
  in
  let units_arg =
    let doc =
      "Platform as NAME=COUNT pairs, e.g. $(b,P1=3,P2=2,r1=2).  Names \
       matching task processor types become processors, the rest resource \
       pools (or node types for a dedicated file)."
    in
    Arg.(
      required
      & opt (some counts_conv) None
      & info [ "units"; "u" ] ~docv:"COUNTS" ~doc)
  in
  let gantt_arg =
    Arg.(value & flag & info [ "gantt"; "g" ] ~doc:"Draw an ASCII Gantt chart.")
  in
  let svg_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "svg" ] ~docv:"FILE" ~doc:"Also write an SVG Gantt chart.")
  in
  let run path units gantt svg =
    match read_appfile path with
    | Error e -> `Error (false, e)
    | Ok { Rtfmt.Appfile.app; system } -> (
        let platform =
          match system with
          | Some (Rtlb.System.Dedicated nts) ->
              let find name =
                List.find_opt
                  (fun (nt : Rtlb.System.node_type) ->
                    String.equal nt.Rtlb.System.nt_name name)
                  nts
              in
              Result.map Sched.Platform.dedicated
                (List.fold_left
                   (fun acc (name, c) ->
                     Result.bind acc (fun l ->
                         match find name with
                         | Some nt -> Ok ((nt, c) :: l)
                         | None -> Error ("unknown node type " ^ name)))
                   (Ok []) units)
          | _ ->
              let proc_types =
                Array.to_list (Rtlb.App.tasks app)
                |> List.map (fun (t : Rtlb.Task.t) -> t.Rtlb.Task.proc)
                |> List.sort_uniq String.compare
              in
              let procs, resources =
                List.partition (fun (n, _) -> List.mem n proc_types) units
              in
              Ok (Sched.Platform.shared ~procs ~resources)
        in
        match platform with
        | Error e -> `Error (false, e)
        | Ok platform -> (
            match Sched.List_scheduler.run app platform with
            | Ok s ->
                Format.printf "feasible schedule found:@.%a@."
                  (Sched.Schedule.pp app) s;
                if gantt then
                  print_string
                    (Sched.Gantt.render ~show_resources:true app platform s);
                (match svg with
                | None -> ()
                | Some file ->
                    Rtfmt.write_string_atomic file
                      (Sched.Gantt.render_svg ~show_resources:true app
                         platform s);
                    Printf.printf "wrote %s\n" file);
                `Ok ()
            | Error f ->
                let task = Rtlb.App.task app f.Sched.List_scheduler.f_task in
                Format.printf
                  "list scheduler failed: %s (deadline %d, best start %s)@."
                  task.Rtlb.Task.name f.Sched.List_scheduler.f_deadline
                  (if f.Sched.List_scheduler.f_start = max_int then "none"
                   else string_of_int f.Sched.List_scheduler.f_start);
                `Ok ()))
  in
  let doc = "Try to schedule an application on an explicit platform." in
  Cmd.v
    (Cmd.info "schedule" ~doc)
    Term.(ret (const run $ file_arg $ units_arg $ gantt_arg $ svg_arg))

(* ---- generate --------------------------------------------------- *)

let generate_cmd =
  let shape_conv =
    let parse = function
      | "layered" -> Ok (Workload.Gen.Layered { layers = 4; density = 0.4 })
      | "series-parallel" | "sp" -> Ok Workload.Gen.Series_parallel
      | "fork-join" | "fj" -> Ok (Workload.Gen.Fork_join { width = 4 })
      | "out-tree" -> Ok Workload.Gen.Out_tree
      | "in-tree" -> Ok Workload.Gen.In_tree
      | "gauss" -> Ok (Workload.Gen.Gauss { size = 5 })
      | "fft" -> Ok (Workload.Gen.Fft { points = 8 })
      | "stencil" -> Ok (Workload.Gen.Stencil { rows = 4; cols = 5 })
      | "chain" -> Ok Workload.Gen.Chain
      | "independent" -> Ok Workload.Gen.Independent
      | s -> Error (`Msg (Printf.sprintf "unknown shape %S" s))
    in
    Arg.conv (parse, fun ppf s -> Format.fprintf ppf "%s" (Workload.Gen.shape_name s))
  in
  let shape_arg =
    Arg.(
      value
      & opt shape_conv (Workload.Gen.Layered { layers = 4; density = 0.4 })
      & info [ "shape" ] ~docv:"SHAPE")
  in
  let tasks_arg = Arg.(value & opt int 20 & info [ "tasks"; "n" ] ~docv:"N") in
  let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED") in
  let ccr_arg = Arg.(value & opt float 0.5 & info [ "ccr" ] ~docv:"CCR") in
  let laxity_arg =
    Arg.(value & opt float 1.5 & info [ "laxity" ] ~docv:"L")
  in
  let run shape n_tasks seed ccr laxity =
    let cfg =
      { Workload.Gen.default with Workload.Gen.shape; n_tasks; seed; ccr; laxity }
    in
    let app = Workload.Gen.generate cfg in
    print_string
      (Rtfmt.Appfile.to_string ~system:(Workload.Gen.shared_system cfg) app)
  in
  let doc = "Generate a synthetic application in the appfile format." in
  Cmd.v
    (Cmd.info "generate" ~doc)
    Term.(
      const run $ shape_arg $ tasks_arg $ seed_arg $ ccr_arg $ laxity_arg)

(* ---- profile ----------------------------------------------------- *)

let profile_cmd =
  let resource_arg =
    Arg.(required & opt (some string) None & info [ "resource"; "r" ] ~docv:"RES")
  in
  let window_arg = Arg.(value & opt int 0 & info [ "window"; "w" ] ~docv:"W") in
  let run path override resource window =
    match read_appfile path with
    | Error e -> `Error (false, e)
    | Ok { Rtfmt.Appfile.app; system } -> (
        match resolve_system system override app with
        | Error e -> `Error (false, e)
        | Ok system ->
            let { Rtlb.Windows.est; lct } = Rtlb.Analysis.windows system app in
            let window =
              if window > 0 then window
              else max 1 (Rtlb.App.horizon app / 8)
            in
            let profile =
              Rtlb.Demand.sliding ~est ~lct app ~resource ~window
            in
            print_string (Rtlb.Demand.render profile);
            `Ok ())
  in
  let doc = "Show the mandatory-demand profile of one resource." in
  Cmd.v
    (Cmd.info "profile" ~doc)
    Term.(ret (const run $ file_arg $ system_arg $ resource_arg $ window_arg))

(* ---- sensitivity -------------------------------------------------- *)

let sensitivity_cmd =
  let factors_arg =
    let doc = "Comma-separated deadline multipliers." in
    Arg.(
      value
      & opt (list float) [ 0.8; 0.9; 1.0; 1.25; 1.5; 2.0; 3.0 ]
      & info [ "factors" ] ~docv:"F,F,..." ~doc)
  in
  let checkpoint_arg =
    let doc =
      "Write sweep progress to $(docv) (atomically, after each computed \
       factor) and, when the file already holds a checkpoint of this \
       exact instance, resume from it: completed factors are reused \
       bit-identically, only the rest are analysed.  A checkpoint of a \
       different or edited instance is reported stale and recomputed.  \
       The file is deleted when the sweep completes."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE" ~doc)
  in
  let every_arg =
    let doc = "Persist the checkpoint every $(docv) computed factors." in
    Arg.(value & opt int 1 & info [ "checkpoint-every" ] ~docv:"N" ~doc)
  in
  let run path override factors jobs timeout checkpoint every trace stats =
    match read_appfile path with
    | Error e -> `Error (false, e)
    | Ok { Rtfmt.Appfile.app; system } -> (
        match hosting_system path system override app with
        | Error e -> `Error (false, e)
        | Ok system ->
            let deadline_ns = deadline_of timeout in
            let tracer = tracer_for ~trace ~stats in
            let kind = "sensitivity" in
            let fingerprint =
              Rtlb.Incremental.instance_fingerprint system app
            in
            let loaded =
              match checkpoint with
              | None -> None
              | Some file -> (
                  match Rtfmt.Checkpoint.load file with
                  | Ok None -> None
                  | Ok (Some t) -> (
                      match
                        Rtfmt.Checkpoint.validate ~kind ~fingerprint t
                      with
                      | Ok () -> Some t
                      | Error reason ->
                          Printf.eprintf "rtlb: ignoring %s: %s\n%!" file
                            reason;
                          None)
                  | Error reason ->
                      Printf.eprintf "rtlb: ignoring %s: %s\n%!" file reason;
                      None)
            in
            let resume =
              Option.map
                (fun t factor ->
                  Option.bind
                    (Rtfmt.Checkpoint.find t
                       (Rtfmt.Checkpoint.factor_key factor))
                    (fun j -> Result.to_option (Rtfmt.Checkpoint.sample_of_json j)))
                loaded
            in
            let state =
              ref
                (match loaded with
                | Some t -> t
                | None -> Rtfmt.Checkpoint.create ~kind ~fingerprint)
            in
            let unsaved = ref 0 in
            let on_sample =
              Option.map
                (fun file sample ->
                  (* A budget-cut sample is valid but below the exhaustive
                     value; persisting it would pin the weaker bound into a
                     resumed run, so only exhaustive samples checkpoint. *)
                  if not sample.Rtlb.Sensitivity.s_partial then begin
                    state :=
                      Rtfmt.Checkpoint.add !state
                        ~key:
                          (Rtfmt.Checkpoint.factor_key
                             sample.Rtlb.Sensitivity.s_factor)
                        (Rtfmt.Checkpoint.sample_to_json sample);
                    incr unsaved;
                    if !unsaved >= max 1 every then begin
                      unsaved := 0;
                      Rtfmt.Checkpoint.save ?tracer file !state
                    end
                  end)
                checkpoint
            in
            let samples =
              with_jobs jobs (fun pool ->
                  Rtlb.Sensitivity.deadline_sweep ?pool ?deadline_ns ?tracer
                    ?on_sample ?resume system app ~factors)
            in
            (match checkpoint with
            | Some file when !unsaved > 0 ->
                Rtfmt.Checkpoint.save ?tracer file !state
            | _ -> ());
            print_string (Rtlb.Sensitivity.render samples);
            (match (stats, tracer) with
            | true, Some tr ->
                print_newline ();
                print_string
                  (Rtfmt.Stats_render.render (Rtlb_obs.Stats.of_tracer tr))
            | _ -> ());
            write_trace trace tracer;
            (match checkpoint with
            | Some file
              when !interrupted = None
                   && List.for_all
                        (fun s -> not s.Rtlb.Sensitivity.s_partial)
                        samples ->
                Rtfmt.Checkpoint.remove file
            | _ -> ());
            exit_if_interrupted ();
            `Ok ())
  in
  let doc = "Sweep deadline tightness and report the bounds at each level." in
  Cmd.v
    (Cmd.info "sensitivity" ~doc)
    Term.(
      ret
        (const run $ file_arg $ system_arg $ factors_arg $ jobs_arg
       $ timeout_arg $ checkpoint_arg $ every_arg $ trace_arg $ stats_arg))

(* ---- whatif -------------------------------------------------------- *)

let whatif_cmd =
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the what-if result as JSON (same encoding the serve \
             daemon replies with); interrupted runs still flush valid \
             JSON flagged $(b,partial: true).")
  in
  let task_arg =
    let doc = "Task id to edit (0-based vertex index)." in
    Arg.(required & opt (some int) None & info [ "task"; "t" ] ~docv:"N" ~doc)
  in
  let deadline_arg =
    let doc = "New deadline for the task." in
    Arg.(value & opt (some int) None & info [ "deadline" ] ~docv:"D" ~doc)
  in
  let release_arg =
    let doc = "New release time for the task." in
    Arg.(value & opt (some int) None & info [ "release" ] ~docv:"R" ~doc)
  in
  let compute_arg =
    let doc = "New computation time for the task." in
    Arg.(value & opt (some int) None & info [ "compute" ] ~docv:"C" ~doc)
  in
  let cost_line = function
    | Rtlb.Cost.Shared_cost { s_cost; _ } -> Printf.sprintf "cost >= %d" s_cost
    | Rtlb.Cost.Dedicated_cost d ->
        Printf.sprintf "cost >= %d" d.Rtlb.Cost.d_cost
    | Rtlb.Cost.No_feasible_system r ->
        Printf.sprintf "no feasible system (%s)" r
  in
  let run path override task deadline release compute jobs timeout json =
    match read_appfile path with
    | Error e -> `Error (false, e)
    | Ok { Rtfmt.Appfile.app; system } -> (
        match hosting_system path system override app with
        | Error e -> `Error (false, e)
        | Ok system -> (
            let edits =
              List.filter_map
                (fun e -> e)
                [
                  Option.map
                    (fun release ->
                      Rtlb.Incremental.Set_release { task; release })
                    release;
                  Option.map
                    (fun deadline ->
                      Rtlb.Incremental.Set_deadline { task; deadline })
                    deadline;
                  Option.map
                    (fun compute ->
                      Rtlb.Incremental.Set_compute { task; compute })
                    compute;
                ]
            in
            if edits = [] then
              `Error
                (true, "one of --deadline, --release or --compute is required")
            else
              let deadline_ns = deadline_of timeout in
              let tracer = Rtlb_obs.Tracer.make () in
              match
                with_jobs jobs (fun pool ->
                    let handle =
                      Rtlb.Incremental.create ?pool ?deadline_ns system app
                    in
                    ( handle,
                      Rtlb.Incremental.edit ?pool ?deadline_ns ~tracer handle
                        edits ))
              with
              | exception Invalid_argument e -> `Error (false, e)
              | handle, edited ->
                  let base = Rtlb.Incremental.base handle in
                  if json then
                    print_json (Rtfmt.Json.of_whatif ~base ~edited)
                  else begin
                  let name = (Rtlb.App.columns app).Rtlb.App.names.(task) in
                  Printf.printf "what-if: task %d (%s)%s%s%s\n" task name
                    (match release with
                    | Some r -> Printf.sprintf " release=%d" r
                    | None -> "")
                    (match deadline with
                    | Some d -> Printf.sprintf " deadline=%d" d
                    | None -> "")
                    (match compute with
                    | Some c -> Printf.sprintf " compute=%d" c
                    | None -> "");
                  Printf.printf "%-10s %8s %8s\n" "resource" "LB" "LB'";
                  List.iter2
                    (fun (b : Rtlb.Lower_bound.bound)
                         (b' : Rtlb.Lower_bound.bound) ->
                      Printf.printf "%-10s %8d %8d%s\n" b.Rtlb.Lower_bound.resource
                        b.Rtlb.Lower_bound.lb b'.Rtlb.Lower_bound.lb
                        (if b'.Rtlb.Lower_bound.lb <> b.Rtlb.Lower_bound.lb
                         then
                           Printf.sprintf "  (%+d)"
                             (b'.Rtlb.Lower_bound.lb - b.Rtlb.Lower_bound.lb)
                         else ""))
                    base.Rtlb.Analysis.bounds edited.Rtlb.Analysis.bounds;
                  Printf.printf "%s -> %s\n"
                    (cost_line base.Rtlb.Analysis.cost)
                    (cost_line edited.Rtlb.Analysis.cost);
                  if Rtlb.Analysis.is_partial edited then
                    print_endline "(partial: time budget expired)";
                  Printf.printf
                    "incremental: %d task window(s) recomputed, %d block \
                     scan(s) reused\n"
                    (Rtlb_obs.Tracer.counter tracer
                       Rtlb_obs.Tracer.Cone_tasks)
                    (Rtlb_obs.Tracer.counter tracer
                       Rtlb_obs.Tracer.Cache_hits)
                  end;
                  (* a SIGINT/SIGTERM mid-edit still flushed the valid
                     partial result above; acknowledge it now *)
                  exit_if_interrupted ();
                  `Ok ()))
  in
  let doc =
    "Re-analyse one task edit against a cached base analysis (what-if \
     query)."
  in
  Cmd.v
    (Cmd.info "whatif" ~doc)
    Term.(
      ret
        (const run $ file_arg $ system_arg $ task_arg $ deadline_arg
       $ release_arg $ compute_arg $ jobs_arg $ timeout_arg $ json_arg))

(* ---- timebound ----------------------------------------------------- *)

let timebound_cmd =
  let counts_arg =
    let doc = "Platform capacities as NAME=COUNT pairs." in
    Arg.(
      required
      & opt (some string) None
      & info [ "units"; "u" ] ~docv:"COUNTS" ~doc)
  in
  let run path override counts =
    match read_appfile path with
    | Error e -> `Error (false, e)
    | Ok { Rtfmt.Appfile.app; system } -> (
        match resolve_system system override app with
        | Error e -> `Error (false, e)
        | Ok system -> (
            let table =
              String.split_on_char ',' counts
              |> List.filter (( <> ) "")
              |> List.filter_map (fun kv ->
                     match String.split_on_char '=' kv with
                     | [ k; v ] -> Option.map (fun n -> (k, n)) (int_of_string_opt v)
                     | _ -> None)
            in
            let capacity r = Option.value ~default:0 (List.assoc_opt r table) in
            match Rtlb.Time_bound.minimum_completion_time system app ~capacity with
            | None ->
                Printf.printf
                  "no completion time exists: some needed resource has zero                    capacity
";
                `Ok ()
            | Some tb ->
                Printf.printf
                  "no schedule on this platform can finish before t = %d
"
                  tb.Rtlb.Time_bound.tb_omega;
                List.iter
                  (fun (r, lb) -> Printf.printf "  LB_%s at that horizon: %d
" r lb)
                  tb.Rtlb.Time_bound.tb_bounds;
                (match tb.Rtlb.Time_bound.tb_binding with
                | [] -> Printf.printf "  (window feasibility binds)
"
                | rs ->
                    Printf.printf "  binding resource(s): %s
"
                      (String.concat ", " rs));
                `Ok ()))
  in
  let doc =
    "Lower-bound the completion time of the application on a given platform."
  in
  Cmd.v
    (Cmd.info "timebound" ~doc)
    Term.(ret (const run $ file_arg $ system_arg $ counts_arg))

(* ---- critical ------------------------------------------------------ *)

let critical_cmd =
  let run path override jobs =
    match read_appfile path with
    | Error e -> `Error (false, e)
    | Ok { Rtfmt.Appfile.app; system } -> (
        match hosting_system path system override app with
        | Error e -> `Error (false, e)
        | Ok system ->
            let analysis =
              with_jobs jobs (fun pool -> Rtlb.Analysis.run ?pool system app)
            in
            print_string (Rtlb.Slack.render app (Rtlb.Slack.analyse analysis));
            `Ok ())
  in
  let doc = "Criticality report: zero-slack tasks and bottleneck epochs." in
  Cmd.v
    (Cmd.info "critical" ~doc)
    Term.(ret (const run $ file_arg $ system_arg $ jobs_arg))

(* ---- horn ---------------------------------------------------------- *)

let horn_cmd =
  let m_arg = Arg.(value & opt (some int) None & info [ "m" ] ~docv:"M") in
  let run path m =
    match read_appfile path with
    | Error e -> `Error (false, e)
    | Ok { Rtfmt.Appfile.app; _ } -> (
        let jobs = Sched.Horn.of_app app in
        match m with
        | Some m ->
            Printf.printf
              "preemptive relaxation (independent jobs, %d processors): %s\n" m
              (if Sched.Horn.feasible ~jobs ~m then "feasible" else "infeasible");
            `Ok ()
        | None ->
            Printf.printf
              "preemptive relaxation: minimum %d processor(s) (Theorem 3 \
               density bound: %d)\n"
              (Sched.Horn.min_processors ~jobs)
              (Sched.Horn.density_bound ~jobs);
            `Ok ())
  in
  let doc =
    "Exact preemptive feasibility of the application's jobs (precedence and \
     resources relaxed away) via Horn's flow construction."
  in
  Cmd.v (Cmd.info "horn" ~doc) Term.(ret (const run $ file_arg $ m_arg))

(* ---- recurrent ---------------------------------------------------- *)

(* Sporadic DAG task sets (lib/recurrent): the modern response-time
   baselines plus the hyperperiod-unrolling bridge into the paper's
   one-shot model.  Output mirrors analyze/check: a table by default,
   machine-readable JSON with --json. *)

let read_rfile path =
  try Ok (Recurrent.Rfile.parse_file path) with
  | Recurrent.Rfile.Parse_error (line, msg) ->
      Error (Printf.sprintf "%s:%d: %s" path line msg)
  | Sys_error m -> Error m

let recurrent_cmd =
  let open Recurrent in
  let m_arg =
    Arg.(
      value & opt int 2
      & info [ "m" ] ~docv:"M" ~doc:"Number of identical processors.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")
  in
  let rfile_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  let hyperperiod_opt model =
    match Unroll.hyperperiod model with
    | h -> Some (h, Unroll.job_count model)
    | exception Invalid_argument _ -> None
  in
  let analyze_run path m json =
    if m <= 0 then `Error (false, "--m must be positive")
    else
      match read_rfile path with
      | Error e -> `Error (false, e)
      | Ok model ->
          let rows =
            List.map
              (fun (dt : Model.dtask) ->
                ( dt,
                  Model.vol dt,
                  Model.len dt,
                  Baselines.He_long_paths.graham ~m dt,
                  Baselines.He_long_paths.bound ~m dt,
                  Baselines.Multi_path.bound ~m dt ))
              model.Model.tasks
          in
          let hp = hyperperiod_opt model in
          if json then
            print_json
              (Rtfmt.Json.Obj
                 [
                   ("m", Rtfmt.Json.Int m);
                   ( "class",
                     Rtfmt.Json.Str
                       (Model.class_name (Model.taskset_class model)) );
                   ( "utilisation",
                     Rtfmt.Json.Str (Rat.to_string (Model.utilisation model))
                   );
                   ( "hyperperiod",
                     match hp with
                     | Some (h, _) -> Rtfmt.Json.Int h
                     | None -> Rtfmt.Json.Null );
                   ( "jobs_per_hyperperiod",
                     match hp with
                     | Some (_, j) -> Rtfmt.Json.Int j
                     | None -> Rtfmt.Json.Null );
                   ( "tasks",
                     Rtfmt.Json.List
                       (List.map
                          (fun (dt, vol, len, graham, he, mp) ->
                            Rtfmt.Json.Obj
                              [
                                ("name", Rtfmt.Json.Str dt.Model.dt_name);
                                ( "vertices",
                                  Rtfmt.Json.Int
                                    (Array.length dt.Model.dt_vertices) );
                                ("vol", Rtfmt.Json.Int vol);
                                ("len", Rtfmt.Json.Int len);
                                ("period", Rtfmt.Json.Int dt.Model.dt_period);
                                ( "deadline",
                                  Rtfmt.Json.Int dt.Model.dt_deadline );
                                ( "class",
                                  Rtfmt.Json.Str
                                    (Model.class_name (Model.classify dt)) );
                                ("graham", Rtfmt.Json.Int graham);
                                ("long_paths", Rtfmt.Json.Int he);
                                ("multi_path", Rtfmt.Json.Int mp);
                              ])
                          rows) );
                 ])
          else begin
            Printf.printf
              "recurrent task set: %d task(s), class %s, m = %d\n"
              (List.length model.Model.tasks)
              (Model.class_name (Model.taskset_class model))
              m;
            (match hp with
            | Some (h, jobs) ->
                Printf.printf
                  "utilisation %s, hyperperiod %d, %d job(s) per hyperperiod\n\n"
                  (Rat.to_string (Model.utilisation model))
                  h jobs
            | None ->
                Printf.printf
                  "utilisation %s, hyperperiod overflows int\n\n"
                  (Rat.to_string (Model.utilisation model)));
            let table =
              Rtfmt.Table.create
                [
                  "task"; "V"; "vol"; "len"; "T"; "D"; "class"; "graham";
                  "long-paths"; "multi-path";
                ]
            in
            List.iter
              (fun (dt, vol, len, graham, he, mp) ->
                Rtfmt.Table.add_row table
                  [
                    dt.Model.dt_name;
                    string_of_int (Array.length dt.Model.dt_vertices);
                    string_of_int vol;
                    string_of_int len;
                    string_of_int dt.Model.dt_period;
                    string_of_int dt.Model.dt_deadline;
                    Model.class_name (Model.classify dt);
                    string_of_int graham;
                    string_of_int he;
                    string_of_int mp;
                  ])
              rows;
            Rtfmt.Table.print table
          end;
          `Ok ()
  in
  let feasible_run path m json =
    if m <= 0 then `Error (false, "--m must be positive")
    else
      match read_rfile path with
      | Error e -> `Error (false, e)
      | Ok model ->
          let necessary = Baselines.Bonifaci.necessary ~m model in
          let edf = Baselines.Bonifaci.edf_schedulable ~m model in
          let dm = Baselines.Bonifaci.dm_schedulable ~m model in
          let edf_bounds = Baselines.Bonifaci.edf_response_bounds ~m model in
          let dm_bounds = Baselines.Bonifaci.dm_response_bounds ~m model in
          let verdict =
            if not necessary then "infeasible"
            else if edf then "schedulable under global EDF"
            else if dm then "schedulable under deadline-monotonic"
            else "unknown"
          in
          if json then
            print_json
              (Rtfmt.Json.Obj
                 [
                   ("m", Rtfmt.Json.Int m);
                   ("necessary", Rtfmt.Json.Bool necessary);
                   ("edf_schedulable", Rtfmt.Json.Bool edf);
                   ("dm_schedulable", Rtfmt.Json.Bool dm);
                   ("verdict", Rtfmt.Json.Str verdict);
                   ( "tasks",
                     Rtfmt.Json.List
                       (List.map
                          (fun (dt : Model.dtask) ->
                            let opt name =
                              match List.assoc dt.Model.dt_name name with
                              | Some r -> Rtfmt.Json.Int r
                              | None -> Rtfmt.Json.Null
                            in
                            Rtfmt.Json.Obj
                              [
                                ("name", Rtfmt.Json.Str dt.Model.dt_name);
                                ("period", Rtfmt.Json.Int dt.Model.dt_period);
                                ( "deadline",
                                  Rtfmt.Json.Int dt.Model.dt_deadline );
                                ("len", Rtfmt.Json.Int (Model.len dt));
                                ("vol", Rtfmt.Json.Int (Model.vol dt));
                                ("edf_response", opt edf_bounds);
                                ("dm_response", opt dm_bounds);
                              ])
                          model.Model.tasks) );
                 ])
          else begin
            let table =
              Rtfmt.Table.create
                [ "task"; "T"; "D"; "len"; "vol"; "R_edf"; "R_dm" ]
            in
            let cell = function Some r -> string_of_int r | None -> "-" in
            List.iter
              (fun (dt : Model.dtask) ->
                Rtfmt.Table.add_row table
                  [
                    dt.Model.dt_name;
                    string_of_int dt.Model.dt_period;
                    string_of_int dt.Model.dt_deadline;
                    string_of_int (Model.len dt);
                    string_of_int (Model.vol dt);
                    cell (List.assoc dt.Model.dt_name edf_bounds);
                    cell (List.assoc dt.Model.dt_name dm_bounds);
                  ])
              model.Model.tasks;
            Rtfmt.Table.print table;
            Printf.printf "necessary conditions (len<=D, vol<=m*D, U<=m): %s\n"
              (if necessary then "pass" else "FAIL");
            Printf.printf "global EDF schedulable (sufficient): %s\n"
              (if edf then "yes" else "no claim");
            Printf.printf "deadline-monotonic schedulable (sufficient): %s\n"
              (if dm then "yes" else "no claim");
            Printf.printf "verdict: %s\n" verdict
          end;
          `Ok ()
  in
  let doc = "Sporadic DAG task sets: response-time bounds and feasibility." in
  Cmd.group (Cmd.info "recurrent" ~doc)
    [
      Cmd.v
        (Cmd.info "analyze"
           ~doc:
             "Per-task volume, critical path and the Graham / long-paths / \
              multi-path response-time bounds.")
        Term.(ret (const analyze_run $ rfile_arg $ m_arg $ json_arg));
      Cmd.v
        (Cmd.info "feasible"
           ~doc:
             "Bonifaci et al. feasibility verdicts: necessary conditions \
              plus sufficient global-EDF and deadline-monotonic tests.")
        Term.(ret (const feasible_run $ rfile_arg $ m_arg $ json_arg));
    ]

(* ---- serve ------------------------------------------------------- *)

(* The long-lived bound-query daemon (lib/serve).  Unlike the one-shot
   commands, serve installs its own signal discipline: the first
   SIGINT/SIGTERM starts a graceful drain (finish in-flight requests,
   refuse new frames with S306, exit 0), the second exits immediately
   with 128+signum.  Cooperative cancellation (Pool.request_cancel)
   is deliberately NOT used here — it would turn in-flight answers
   into drops instead of letting them finish. *)
let serve_cmd =
  let socket_arg =
    let doc = "Listen on a Unix-domain socket at $(docv) (JSON-lines)." in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let tcp_arg =
    let doc =
      "Listen on TCP at $(docv) (HOST:PORT, e.g. 127.0.0.1:7350; port 0 \
       binds an ephemeral port).  May be combined with $(b,--socket) to \
       serve both transports at once."
    in
    Arg.(value & opt (some string) None & info [ "tcp" ] ~docv:"HOST:PORT" ~doc)
  in
  let quota_arg =
    let doc =
      "Per-tenant token-bucket quota, $(docv) as RATE[:BURST] \
       (requests/second, sustained; burst defaults to 2*RATE rounded up). \
       Over-quota requests are rejected with $(b,S307 quota_exceeded) and \
       a retry-after hint; requests without a \"tenant\" field share the \
       anonymous bucket."
    in
    Arg.(value & opt (some string) None & info [ "quota" ] ~docv:"SPEC" ~doc)
  in
  let stdio_arg =
    let doc =
      "Serve stdin/stdout instead of a socket (one request per line; \
       used by tests and as a subprocess protocol)."
    in
    Arg.(value & flag & info [ "stdio" ] ~doc)
  in
  let cache_arg =
    let doc = "Keep at most $(docv) warm incremental handles (LRU)." in
    Arg.(value & opt int 8 & info [ "cache" ] ~docv:"N" ~doc)
  in
  let queue_arg =
    let doc =
      "Admission queue bound; further requests are rejected with \
       $(b,S303 overloaded) and a retry-after hint."
    in
    Arg.(value & opt int 64 & info [ "queue" ] ~docv:"N" ~doc)
  in
  let workers_arg =
    let doc = "Worker threads answering requests concurrently." in
    Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N" ~doc)
  in
  let supervised_arg =
    let doc =
      "Run under a watchdog: a tiny parent binds the listening socket(s), \
       forks the server over the inherited fds and restarts it on abnormal \
       exit with jittered exponential backoff — a crash never drops the \
       endpoint.  A crash loop ($(b,--max-crashes) abnormal exits within \
       $(b,--crash-window) seconds) exits non-zero with a diagnostic.  \
       Requires $(b,--socket)/$(b,--tcp) (not $(b,--stdio))."
    in
    Arg.(value & flag & info [ "supervised" ] ~doc)
  in
  let health_arg =
    let doc =
      "Maintain a one-word health file at $(docv), atomically rewritten on \
       every transition: $(b,ready) once listening, $(b,draining) during \
       graceful drain, $(b,degraded) (written by the watchdog) while a \
       crashed child is being replaced."
    in
    Arg.(
      value & opt (some string) None & info [ "health-file" ] ~docv:"PATH" ~doc)
  in
  let journal_arg =
    let doc =
      "Keep an append-only warm-state journal at $(docv): successful \
       analyze/what-if instances are logged (bounded, compacting, \
       corruption-tolerant), and a (re)started daemon pre-warms its cache \
       from it in the background at low priority instead of serving cold."
    in
    Arg.(
      value & opt (some string) None & info [ "journal" ] ~docv:"PATH" ~doc)
  in
  let breaker_arg =
    let doc =
      "Per-instance circuit breaker, $(docv) as THRESHOLD[:COOLDOWN_MS] \
       (default cooldown 5000).  An instance failing analysis THRESHOLD \
       times in a row fast-fails with $(b,S308 circuit_open) and a \
       retry-after hint until a half-open probe succeeds."
    in
    Arg.(value & opt (some string) None & info [ "breaker" ] ~docv:"SPEC" ~doc)
  in
  let max_crashes_arg =
    let doc = "Crash-loop threshold for $(b,--supervised)." in
    Arg.(value & opt int 5 & info [ "max-crashes" ] ~docv:"N" ~doc)
  in
  let crash_window_arg =
    let doc = "Crash-loop sliding window (seconds) for $(b,--supervised)." in
    Arg.(value & opt float 30.0 & info [ "crash-window" ] ~docv:"SEC" ~doc)
  in
  let parse_tcp spec =
    match String.rindex_opt spec ':' with
    | None -> Error (Printf.sprintf "--tcp %S: expected HOST:PORT" spec)
    | Some i -> (
        let host = String.sub spec 0 i in
        let port = String.sub spec (i + 1) (String.length spec - i - 1) in
        match int_of_string_opt port with
        | Some p when p >= 0 && p <= 65535 && host <> "" ->
            Ok (Rtlb_serve.Server.Tcp (host, p))
        | _ -> Error (Printf.sprintf "--tcp %S: expected HOST:PORT" spec))
  in
  let parse_quota spec =
    let bad () =
      Error
        (Printf.sprintf
           "--quota %S: expected RATE[:BURST] with RATE > 0, BURST >= 1" spec)
    in
    let rate_s, burst_s =
      match String.index_opt spec ':' with
      | None -> (spec, None)
      | Some i ->
          ( String.sub spec 0 i,
            Some (String.sub spec (i + 1) (String.length spec - i - 1)) )
    in
    match float_of_string_opt rate_s with
    | Some rate when Float.is_finite rate && rate > 0.0 -> (
        let burst =
          match burst_s with
          | None -> Some (Float.max 1.0 (Float.ceil (2.0 *. rate)))
          | Some s -> (
              match float_of_string_opt s with
              | Some b when Float.is_finite b && b >= 1.0 -> Some b
              | _ -> None)
        in
        match burst with
        | Some burst ->
            Ok (Rtlb_serve.Quota.create ~rate_per_s:rate ~burst ())
        | None -> bad ())
    | _ -> bad ()
  in
  let parse_breaker spec =
    let bad () =
      Error
        (Printf.sprintf
           "--breaker %S: expected THRESHOLD[:COOLDOWN_MS] with THRESHOLD \
            >= 1, COOLDOWN_MS >= 1"
           spec)
    in
    let threshold_s, cooldown_s =
      match String.index_opt spec ':' with
      | None -> (spec, None)
      | Some i ->
          ( String.sub spec 0 i,
            Some (String.sub spec (i + 1) (String.length spec - i - 1)) )
    in
    match int_of_string_opt threshold_s with
    | Some threshold when threshold >= 1 -> (
        match Option.map int_of_string_opt cooldown_s with
        | None -> Ok (threshold, 5_000)
        | Some (Some ms) when ms >= 1 -> Ok (threshold, ms)
        | Some _ -> bad ())
    | _ -> bad ()
  in
  let run socket tcp quota stdio cache queue workers jobs supervised health
      journal_path breaker max_crashes crash_window =
    let tcp = Option.map parse_tcp tcp in
    let quota = Option.map parse_quota quota in
    let breaker = Option.map parse_breaker breaker in
    match (socket, tcp, quota, stdio) with
    | None, None, _, false ->
        `Error (true, "one of --socket PATH, --tcp HOST:PORT or --stdio is required")
    | (Some _, _, _, true | _, Some _, _, true) ->
        `Error (true, "--stdio is exclusive with --socket and --tcp")
    | _, Some (Error e), _, _ | _, _, Some (Error e), _ -> `Error (true, e)
    | _, _, _, true when supervised ->
        `Error (true, "--supervised requires --socket or --tcp, not --stdio")
    | socket, tcp, quota, _ -> (
        match breaker with
        | Some (Error e) -> `Error (true, e)
        | breaker ->
            (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
             with Invalid_argument _ | Sys_error _ -> ());
            (* First SIGINT/SIGTERM: graceful drain, exit 0; second:
               exit 128+signum.  Installed per serving process — under
               --supervised that is the forked child, while the parent
               keeps the watchdog's forwarding handlers. *)
            let install_drain_signals () =
              let stop = Atomic.make false in
              let handle code _ =
                if Atomic.get stop then exit code else Atomic.set stop true
              in
              List.iter
                (fun (signal, code) ->
                  try Sys.set_signal signal (Sys.Signal_handle (handle code))
                  with Invalid_argument _ | Sys_error _ -> ())
                [ (Sys.sigint, 130); (Sys.sigterm, 143) ];
              fun () -> Atomic.get stop
            in
            let make_config ~generation ~journal =
              {
                Rtlb_serve.Server.default_config with
                cache_capacity = max 0 cache;
                queue_capacity = max 1 queue;
                workers = max 1 workers;
                jobs = resolve_jobs jobs;
                (* the daemon reads only counters (the stats op); spans
                   recorded over its lifetime would be kept forever *)
                tracer = Rtlb_obs.Tracer.make ~spans:false ();
                quota = (match quota with Some (Ok q) -> Some q | _ -> None);
                journal;
                breaker =
                  (match breaker with
                  | Some (Ok (threshold, cooldown_ms)) ->
                      Some
                        (Rtlb_serve.Breaker.create ~threshold ~cooldown_ms ())
                  | _ -> None);
                health_file = health;
                generation;
              }
            in
            let open_journal () =
              Option.map
                (fun path ->
                  Rtlb_serve.Journal.open_ ~capacity:(max 8 (2 * cache)) path)
                journal_path
            in
            let endpoints =
              (match socket with
              | Some path -> [ Rtlb_serve.Server.Unix_path path ]
              | None -> [])
              @ (match tcp with Some (Ok ep) -> [ ep ] | _ -> [])
            in
            let on_ready addrs =
              List.iter
                (fun addr ->
                  match addr with
                  | Unix.ADDR_INET (host, port) ->
                      Printf.eprintf "rtlb serve: listening on %s:%d\n%!"
                        (Unix.string_of_inet_addr host)
                        port
                  | Unix.ADDR_UNIX path ->
                      Printf.eprintf "rtlb serve: listening on %s\n%!" path)
                addrs
            in
            if supervised then begin
              let wd_config =
                {
                  Rtlb_serve.Watchdog.default_config with
                  max_crashes = max 1 max_crashes;
                  crash_window_s = Float.max 0.1 crash_window;
                  health_file = health;
                }
              in
              let child ~generation sockets =
                let stop = install_drain_signals () in
                let journal = open_journal () in
                let config = make_config ~generation ~journal in
                let server = Rtlb_serve.Server.create ~config () in
                Rtlb_serve.Server.serve_bound server ~on_ready ~cleanup:false
                  ~sockets ~stop ();
                Option.iter Rtlb_serve.Journal.close journal
              in
              let code =
                Rtlb_serve.Watchdog.run ~config:wd_config ~endpoints ~child ()
              in
              (* preserve the watchdog's exit code exactly (3 = crash
                 loop; the child's own code when terminating) *)
              if code = 0 then `Ok () else exit code
            end
            else begin
              let stop = install_drain_signals () in
              let journal = open_journal () in
              let config = make_config ~generation:0 ~journal in
              let server = Rtlb_serve.Server.create ~config () in
              (match endpoints with
              | [] -> Rtlb_serve.Server.serve_stdio server ~stop
              | endpoints ->
                  Rtlb_serve.Server.serve server ~on_ready ~endpoints ~stop ());
              Option.iter Rtlb_serve.Journal.close journal;
              `Ok ()
            end)
  in
  let doc =
    "Run the long-lived bound-query daemon (JSON-lines over a Unix \
     socket, TCP, or stdio; optional per-tenant quotas)."
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      ret
        (const run $ socket_arg $ tcp_arg $ quota_arg $ stdio_arg $ cache_arg
       $ queue_arg $ workers_arg $ jobs_arg $ supervised_arg $ health_arg
       $ journal_arg $ breaker_arg $ max_crashes_arg $ crash_window_arg))

(* ---- dot -------------------------------------------------------- *)

let dot_cmd =
  let run path =
    match read_appfile path with
    | Error e -> `Error (false, e)
    | Ok { Rtfmt.Appfile.app; _ } ->
        print_string (Rtlb.App.to_dot app);
        `Ok ()
  in
  let doc = "Emit the task graph of an application file as Graphviz." in
  Cmd.v (Cmd.info "dot" ~doc) Term.(ret (const run $ file_arg))

let () =
  let doc = "lower-bound analysis for real-time applications (ICDCS 1995)" in
  let info = Cmd.info "rtlb" ~version:"1.0.0" ~doc in
  install_signal_handlers ();
  (* RTLB_CHAOS arms the deterministic fault harness for the whole
     process (docs/ROBUSTNESS.md) — the chaos CI job runs real CLI
     invocations under injected faults. *)
  (match Rtlb_par.Chaos.arm_from_env () with
  | Ok _ -> ()
  | Error e ->
      prerr_endline ("rtlb: " ^ e);
      exit 2);
  let code =
    try
      Cmd.eval ~catch:false
        (Cmd.group info
           [
             analyze_cmd; check_cmd; example_cmd; schedule_cmd; generate_cmd;
             dot_cmd; profile_cmd; sensitivity_cmd; whatif_cmd; timebound_cmd;
             horn_cmd; critical_cmd; recurrent_cmd; serve_cmd;
           ])
    with
    | Rtlb_par.Chaos.Killed ->
        (* Simulated SIGKILL at a checkpoint write: die like the real
           thing (the checkpoint just written is durable; resume must
           recover). *)
        prerr_endline "rtlb: killed at checkpoint (chaos)";
        137
    | e ->
        let bt = Printexc.get_backtrace () in
        Printf.eprintf "rtlb: internal error, uncaught exception:\n  %s\n%s"
          (Printexc.to_string e) bt;
        125
  in
  exit code
