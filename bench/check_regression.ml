(* CI perf gate over the E14 SoA scaling bench.

     dune exec bench/check_regression.exe -- BASELINE FRESH

   Compares a freshly produced BENCH_soa.json against the committed
   baseline, per (tasks, domains) point:

   - counters (tasks_scanned / theta_evals / candidate_intervals) must
     match the baseline exactly — they are deterministic functions of
     the workload and the pruning logic, so any drift means the engine's
     work changed (e.g. pruning was weakened or disabled);
   - p50 wall time must stay within a slack factor (default 20%,
     RTLB_GATE_TIME_SLACK overrides) of the baseline, after normalising
     out machine speed: the smallest common size serves as a
     calibration point, and each larger size is compared through its
     ratio to that calibration — so a uniformly slower runner passes
     while a superlinear slowdown of the big sizes fails;
   - the per-layer p50s [plan_ms] and [scan_ms], where both files carry
     them for a point, are gated the same way, through the same
     calibration (the smallest size's total p50) and slack, so a layer
     that slows while another speeds up is still caught.

   Only sizes present in BOTH files are gated, so the CI job can run a
   pinned subset of the committed trajectory.  Exit 0 = pass, 1 =
   regression, 2 = usage/parse error. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("check_regression: " ^ s); exit 2) fmt

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      Printf.printf "FAIL %s\n" s)
    fmt

let ok fmt = Printf.ksprintf (fun s -> Printf.printf "ok   %s\n" s) fmt

let member name j =
  match Rtfmt.Json.member name j with
  | v -> Some v
  | exception Not_found -> None

let as_int = function Rtfmt.Json.Int n -> Some n | _ -> None

let as_float = function
  | Rtfmt.Json.Str s -> float_of_string_opt s
  | Rtfmt.Json.Int n -> Some (float_of_int n)
  | _ -> None

let get_int j name =
  match Option.bind (member name j) as_int with
  | Some n -> n
  | None -> die "missing integer field %S" name

(* The timings a curve point may carry: the total, then the layers. *)
let layers = [ "plan_ms"; "scan_ms" ]
let timings = "p50_ms" :: layers

(* (tasks, counters, [(domains, [(timing, ms)])]) per workload entry. *)
let workloads path =
  let json =
    match Rtfmt.Json.parse (read_file path) with
    | j -> j
    | exception Rtfmt.Json.Parse_error e -> die "%s: %s" path e
    | exception Sys_error e -> die "%s" e
  in
  let entries =
    match member "workloads" json with
    | Some (Rtfmt.Json.List l) -> l
    | _ -> die "%s: no workloads list" path
  in
  List.map
    (fun w ->
      let counters =
        match member "counters" w with
        | Some c ->
            List.map
              (fun name -> (name, get_int c name))
              [ "tasks_scanned"; "theta_evals"; "candidate_intervals" ]
        | None -> die "%s: workload without counters" path
      in
      let curve =
        match member "curve" w with
        | Some (Rtfmt.Json.List pts) ->
            List.filter_map
              (fun p ->
                match Option.bind (member "domains" p) as_int with
                | Some d ->
                    Some
                      ( d,
                        List.filter_map
                          (fun name ->
                            Option.map
                              (fun ms -> (name, ms))
                              (Option.bind (member name p) as_float))
                          timings )
                | None -> None)
              pts
        | _ -> die "%s: workload without curve" path
      in
      (get_int w "tasks", counters, curve))
    entries

let () =
  let baseline_path, fresh_path =
    match Sys.argv with
    | [| _; b; f |] -> (b, f)
    | _ -> die "usage: check_regression BASELINE FRESH"
  in
  let slack =
    match Sys.getenv_opt "RTLB_GATE_TIME_SLACK" with
    | Some s -> (
        match float_of_string_opt s with
        | Some f when f > 0.0 -> f
        | _ -> die "RTLB_GATE_TIME_SLACK must be a positive float, got %S" s)
    | None -> 0.20
  in
  let baseline = workloads baseline_path in
  let fresh = workloads fresh_path in
  let common =
    List.filter_map
      (fun (n, fc, fcurve) ->
        match List.find_opt (fun (bn, _, _) -> bn = n) baseline with
        | Some (_, bc, bcurve) -> Some (n, (bc, bcurve), (fc, fcurve))
        | None -> None)
      fresh
  in
  if common = [] then die "no common sizes between %s and %s" baseline_path fresh_path;
  (* Counters: exact. *)
  List.iter
    (fun (n, (bc, _), (fc, _)) ->
      List.iter
        (fun (name, bv) ->
          match List.assoc_opt name fc with
          | Some fv when fv = bv -> ok "%d tasks: %s = %d" n name fv
          | Some fv -> fail "%d tasks: %s drifted (baseline %d, fresh %d)" n name bv fv
          | None -> fail "%d tasks: %s missing from fresh run" n name)
        bc)
    common;
  (* Time: normalise machine speed through the smallest common size,
     then gate every larger size's ratio-to-calibration. *)
  let smallest =
    List.fold_left (fun a (n, _, _) -> min a n) max_int common
  in
  List.iter
    (fun dom ->
      let timing name curve =
        Option.bind (List.assoc_opt dom curve) (List.assoc_opt name)
      in
      let p50 = timing "p50_ms" in
      let cal =
        List.find_map
          (fun (n, (_, bcurve), (_, fcurve)) ->
            if n = smallest then
              match (p50 bcurve, p50 fcurve) with
              | Some b, Some f when b > 0.0 && f > 0.0 -> Some (b, f)
              | _ -> None
            else None)
          common
      in
      let gate n name b f ~bcal ~fcal =
        let what = if name = "p50_ms" then "" else " " ^ name in
        let bratio = b /. bcal and fratio = f /. fcal in
        if fratio > bratio *. (1.0 +. slack) then
          fail
            "%d tasks, %dd%s: %.1fms (%.1fx calibration) exceeds baseline \
             %.1fms (%.1fx) by more than %.0f%%"
            n dom what f fratio b bratio (slack *. 100.0)
        else
          ok "%d tasks, %dd%s: %.1fx calibration (baseline %.1fx)" n dom what
            fratio bratio
      in
      match cal with
      | None -> ()
      | Some (bcal, fcal) ->
          List.iter
            (fun (n, (_, bcurve), (_, fcurve)) ->
              if n <> smallest then begin
                (match (p50 bcurve, p50 fcurve) with
                | Some b, Some f -> gate n "p50_ms" b f ~bcal ~fcal
                | _ -> fail "%d tasks: missing %dd timing" n dom);
                (* layers only where both files carry them *)
                List.iter
                  (fun name ->
                    match (timing name bcurve, timing name fcurve) with
                    | Some b, Some f -> gate n name b f ~bcal ~fcal
                    | _ -> ())
                  layers
              end)
            common)
    [ 1; 4 ];
  if !failures > 0 then begin
    Printf.printf "%d regression(s) against %s\n" !failures baseline_path;
    exit 1
  end;
  Printf.printf "no regressions against %s\n" baseline_path
