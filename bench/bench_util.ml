(* Shared helpers for the benchmark harness: section headers, wall-clock
   timing, and a thin wrapper over bechamel's measure/analyse pipeline. *)

let section title =
  let line = String.make (String.length title + 8) '=' in
  Printf.printf "\n%s\n==  %s  ==\n%s\n" line title line

let subsection title = Printf.printf "\n-- %s --\n" title

(* Monotonic (Rtlb_obs.Clock), not gettimeofday: wall-clock steps must
   not distort benchmark timings. *)
let time_ms f =
  let t0 = Rtlb_obs.Clock.now_ns Rtlb_obs.Clock.monotonic in
  let result = f () in
  let t1 = Rtlb_obs.Clock.now_ns Rtlb_obs.Clock.monotonic in
  (result, Int64.to_float (Int64.sub t1 t0) /. 1e6)

(* The host a bench ran on, for its JSON: core count, OCaml version and
   the checkout's git revision (read from .git in the working directory,
   without running git). *)
let git_revision () =
  let read p =
    try Some (String.trim (In_channel.with_open_bin p In_channel.input_all))
    with Sys_error _ -> None
  in
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

let host_json () =
  Rtfmt.Json.Obj
    [
      ("nproc", Rtfmt.Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Rtfmt.Json.Str Sys.ocaml_version);
      ("git_revision", Rtfmt.Json.Str (git_revision ()));
    ]

(* Run a list of (name, thunk) micro-benchmarks under bechamel and return
   [(name, ns_per_run)] in input order. *)
let bechamel_ns tests =
  let open Bechamel in
  let open Toolkit in
  let tests =
    List.map
      (fun (name, f) -> Test.make ~name (Staged.stage f))
      tests
  in
  let grouped = Test.make_grouped ~name:"" ~fmt:"%s%s" tests in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name ols acc ->
      match Analyze.OLS.estimates ols with
      | Some (ns :: _) -> (name, ns) :: acc
      | _ -> acc)
    results []
  |> List.sort compare

let pp_ns ns =
  if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
  else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns
