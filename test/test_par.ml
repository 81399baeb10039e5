(* Tests for the parallel analysis engine: the Rtlb_par.Pool domain pool
   itself, the prefix-sum Theta kernel against the naive summation, and
   the headline guarantee that Analysis.run ?pool is bit-identical to the
   sequential analysis.

   Pools here are sized from RTLB_JOBS (the CI matrix runs the suite
   once with RTLB_JOBS=4) with a floor of 4 domains, so the parallel
   machinery is exercised even on a single-core runner. *)

open Helpers

let test_jobs = max 4 (Rtlb_par.Pool.default_jobs ())

(* ------------------------------------------------------------------ *)
(* Pool unit tests                                                     *)
(* ------------------------------------------------------------------ *)

let pool_ordering () =
  Rtlb_par.Pool.with_pool ~jobs:test_jobs (fun pool ->
      List.iter
        (fun n ->
          let input = Array.init n (fun i -> i) in
          let got = Rtlb_par.Pool.map_array ~pool (fun i -> (i * i) + 1) input in
          let want = Array.map (fun i -> (i * i) + 1) input in
          check_bool
            (Printf.sprintf "map_array of %d in input order" n)
            true (got = want))
        [ 0; 1; 2; 7; 64; 1000 ];
      let got = Rtlb_par.Pool.map_list ~pool string_of_int [ 3; 1; 2 ] in
      Alcotest.(check (list string)) "map_list order" [ "3"; "1"; "2" ] got)

let pool_uneven_work () =
  (* Work items of very different cost still land in their slots. *)
  Rtlb_par.Pool.with_pool ~jobs:test_jobs (fun pool ->
      let spin k =
        let acc = ref 0 in
        for i = 1 to k * 1000 do
          acc := !acc + (i mod 7)
        done;
        !acc
      in
      let input = Array.init 50 (fun i -> if i mod 10 = 0 then 40 else 1) in
      let got = Rtlb_par.Pool.map_array ~pool spin input in
      let want = Array.map spin input in
      check_bool "uneven chunks keep ordering" true (got = want))

exception Boom of int

let pool_exception_propagation () =
  Rtlb_par.Pool.with_pool ~jobs:test_jobs (fun pool ->
      (try
         ignore
           (Rtlb_par.Pool.map_array ~pool
              (fun i -> if i = 57 then raise (Boom i) else i)
              (Array.init 200 (fun i -> i)));
         Alcotest.fail "expected the body's exception to reach the submitter"
       with Boom 57 -> ());
      (* the pool survives a failed job *)
      let got =
        Rtlb_par.Pool.map_array ~pool (fun i -> i + 1) (Array.init 10 Fun.id)
      in
      check_bool "pool usable after exception" true
        (got = Array.init 10 (fun i -> i + 1)))

let pool_nested_submit () =
  (* A body that submits to the same pool must not deadlock: nested
     submits run inline on the calling domain. *)
  Rtlb_par.Pool.with_pool ~jobs:test_jobs (fun pool ->
      let got =
        Rtlb_par.Pool.map_array ~pool
          (fun i ->
            let inner =
              Rtlb_par.Pool.map_array ~pool
                (fun j -> i + j)
                (Array.init 5 Fun.id)
            in
            Array.fold_left ( + ) 0 inner)
          (Array.init 20 Fun.id)
      in
      let want = Array.init 20 (fun i -> (5 * i) + 10) in
      check_bool "nested submits complete with correct results" true
        (got = want))

let pool_sequential_degenerate () =
  Rtlb_par.Pool.with_pool ~jobs:1 (fun pool ->
      let got =
        Rtlb_par.Pool.map_array ~pool (fun i -> i * 2) (Array.init 9 Fun.id)
      in
      check_bool "1-domain pool runs inline" true
        (got = Array.init 9 (fun i -> i * 2));
      check_int "size of 1-domain pool" 1 (Rtlb_par.Pool.size pool));
  let got = Rtlb_par.Pool.map_list string_of_int [ 1; 2 ] in
  Alcotest.(check (list string)) "no pool means List.map" [ "1"; "2" ] got

(* ------------------------------------------------------------------ *)
(* Theta kernel vs the naive summation                                 *)
(* ------------------------------------------------------------------ *)

let paper = Rtlb.Paper_example.app
let paper_windows = Rtlb.Est_lct.compute Rtlb.Paper_example.shared paper

let kernel_matches_naive_on_paper () =
  let est = paper_windows.Rtlb.Est_lct.est
  and lct = paper_windows.Rtlb.Est_lct.lct in
  List.iter
    (fun r ->
      let tasks = Rtlb.App.tasks_using paper r in
      let lo = List.fold_left (fun a i -> min a est.(i)) max_int tasks in
      let hi = List.fold_left (fun a i -> max a lct.(i)) min_int tasks in
      for t1 = lo to hi - 1 do
        let kernel =
          Rtlb.Lower_bound.Theta_kernel.make ~resource:r ~est ~lct paper tasks
            ~t1
        in
        for t2 = t1 + 1 to hi do
          check_int
            (Printf.sprintf "Theta(%s, %d, %d)" r t1 t2)
            (Rtlb.Lower_bound.theta ~resource:r ~est ~lct paper tasks ~t1 ~t2)
            (Rtlb.Lower_bound.Theta_kernel.eval kernel ~t2)
        done
      done)
    (Rtlb.App.resource_set paper)

let kernel_empty_tasks () =
  let est = paper_windows.Rtlb.Est_lct.est
  and lct = paper_windows.Rtlb.Est_lct.lct in
  (* empty ST_r: the kernel must evaluate to zero demand everywhere *)
  let kernel =
    Rtlb.Lower_bound.Theta_kernel.make ~resource:"bogus" ~est ~lct paper []
      ~t1:0
  in
  List.iter
    (fun t2 ->
      check_int
        (Printf.sprintf "empty ST_r Theta(0, %d) = 0" t2)
        0
        (Rtlb.Lower_bound.Theta_kernel.eval kernel ~t2))
    [ 1; 5; 36; 1000 ]

let kernel_zero_length_windows () =
  (* A milestone task (C = 0) and a task whose window has zero length
     (E = release, L = release + 0 slack with C = 0) contribute nothing;
     an infeasible window (E + C > L) still has a well-defined Theorem 4
     overlap, which the mu gate cuts short — the kernel must agree. *)
  let tasks =
    [
      Rtlb.Task.make ~id:0 ~compute:0 ~release:5 ~deadline:5 ~proc:"P" ();
      Rtlb.Task.make ~id:1 ~compute:4 ~release:2 ~deadline:6 ~proc:"P" ();
      Rtlb.Task.make ~id:2 ~compute:3 ~release:0 ~deadline:10 ~proc:"P"
        ~preemptive:true ();
    ]
  in
  let app = Rtlb.App.make ~tasks ~edges:[] in
  (* task 1's window is squeezed below its computation time (E=2, L=5,
     C=4) — legal for the raw est/lct arrays even though the task model
     would reject such a deadline *)
  let est = [| 5; 2; 0 |] and lct = [| 5; 5; 10 |] in
  let ids = [ 0; 1; 2 ] in
  for t1 = 0 to 9 do
    let kernel = Rtlb.Lower_bound.Theta_kernel.make ~est ~lct app ids ~t1 in
    for t2 = t1 + 1 to 10 do
      check_int
        (Printf.sprintf "edge-case Theta(%d, %d)" t1 t2)
        (Rtlb.Lower_bound.theta ~est ~lct app ids ~t1 ~t2)
        (Rtlb.Lower_bound.Theta_kernel.eval kernel ~t2)
    done
  done

let kernel_prop =
  qtest ~count:300 "Theta kernel = naive theta on random instances"
    (arb_instance ~max_tasks:14 ()) (fun i ->
      let system = shared_of i in
      let w = Rtlb.Est_lct.compute system i.app in
      let est = w.Rtlb.Est_lct.est and lct = w.Rtlb.Est_lct.lct in
      List.for_all
        (fun r ->
          let tasks = Rtlb.App.tasks_using i.app r in
          let lo = List.fold_left (fun a t -> min a est.(t)) max_int tasks in
          let hi = List.fold_left (fun a t -> max a lct.(t)) min_int tasks in
          tasks = [] || hi <= lo
          || List.for_all
               (fun t1 ->
                 let kernel =
                   Rtlb.Lower_bound.Theta_kernel.make ~resource:r ~est ~lct
                     i.app tasks ~t1
                 in
                 List.for_all
                   (fun t2 ->
                     t2 <= t1
                     || Rtlb.Lower_bound.Theta_kernel.eval kernel ~t2
                        = Rtlb.Lower_bound.theta ~resource:r ~est ~lct i.app
                            tasks ~t1 ~t2)
                   [ t1 + 1; t1 + 2; (t1 + hi + 1) / 2; hi - 1; hi; hi + 3 ])
               [ lo; lo + 1; (lo + hi) / 2; hi - 1 ])
        (Rtlb.App.resource_set i.app))

(* ------------------------------------------------------------------ *)
(* Parallel analysis = sequential analysis                             *)
(* ------------------------------------------------------------------ *)

let bound_equal (a : Rtlb.Lower_bound.bound) (b : Rtlb.Lower_bound.bound) =
  a.Rtlb.Lower_bound.resource = b.Rtlb.Lower_bound.resource
  && a.Rtlb.Lower_bound.lb = b.Rtlb.Lower_bound.lb
  && a.Rtlb.Lower_bound.witness = b.Rtlb.Lower_bound.witness
  && a.Rtlb.Lower_bound.partition = b.Rtlb.Lower_bound.partition

let analyses_identical (a : Rtlb.Analysis.t) (b : Rtlb.Analysis.t) =
  List.length a.Rtlb.Analysis.bounds = List.length b.Rtlb.Analysis.bounds
  && List.for_all2 bound_equal a.Rtlb.Analysis.bounds b.Rtlb.Analysis.bounds
  && a.Rtlb.Analysis.windows.Rtlb.Est_lct.est
     = b.Rtlb.Analysis.windows.Rtlb.Est_lct.est
  && a.Rtlb.Analysis.windows.Rtlb.Est_lct.lct
     = b.Rtlb.Analysis.windows.Rtlb.Est_lct.lct
  && a.Rtlb.Analysis.cost = b.Rtlb.Analysis.cost

(* Every generator shape, 10 seeds each: 100 applications. *)
let all_shapes =
  [
    Workload.Gen.Layered { layers = 4; density = 0.4 };
    Workload.Gen.Series_parallel;
    Workload.Gen.Fork_join { width = 4 };
    Workload.Gen.Out_tree;
    Workload.Gen.In_tree;
    Workload.Gen.Gauss { size = 4 };
    Workload.Gen.Fft { points = 8 };
    Workload.Gen.Stencil { rows = 3; cols = 4 };
    Workload.Gen.Chain;
    Workload.Gen.Independent;
  ]

let parallel_equals_sequential_all_shapes () =
  Rtlb_par.Pool.with_pool ~jobs:test_jobs (fun pool ->
      List.iter
        (fun shape ->
          for seed = 1 to 10 do
            let config =
              {
                Workload.Gen.default with
                Workload.Gen.shape;
                seed;
                n_tasks = 12 + (seed mod 3);
                ccr = (if seed mod 2 = 0 then 0.5 else 2.0);
                laxity = (if seed mod 3 = 0 then 1.0 else 1.4);
                resource_types = [ ("r1", 0.4) ];
                preemptive_fraction = (if seed mod 4 = 0 then 0.5 else 0.0);
              }
            in
            let app = Workload.Gen.generate config in
            let system = Workload.Gen.shared_system config in
            let seq = Rtlb.Analysis.run system app in
            let par = Rtlb.Analysis.run ~pool system app in
            check_bool
              (Printf.sprintf "parallel = sequential (%s, seed %d)"
                 (Workload.Gen.shape_name shape)
                 seed)
              true
              (analyses_identical seq par
              && Oracle.values_identical par (Oracle.run system app))
          done)
        all_shapes)

let parallel_prop =
  qtest ~count:100 "Analysis.run ?pool bit-identical on random instances"
    (arb_instance ~max_tasks:14 ()) (fun i ->
      Rtlb_par.Pool.with_pool ~jobs:test_jobs (fun pool ->
          let seq = Rtlb.Analysis.run (shared_of i) i.app in
          let par = Rtlb.Analysis.run ~pool (shared_of i) i.app in
          analyses_identical seq par
          && Oracle.values_identical par (Oracle.run (shared_of i) i.app)))

let parallel_sensitivity () =
  Rtlb_par.Pool.with_pool ~jobs:test_jobs (fun pool ->
      let factors = [ 0.8; 0.9; 1.0; 1.25; 1.5; 2.0 ] in
      let seq =
        Rtlb.Sensitivity.deadline_sweep Rtlb.Paper_example.shared paper ~factors
      in
      let par =
        Rtlb.Sensitivity.deadline_sweep ~pool Rtlb.Paper_example.shared paper
          ~factors
      in
      check_bool "parallel sweep = sequential sweep" true (seq = par))

(* ------------------------------------------------------------------ *)
(* Fault injection and graceful degradation                            *)
(* ------------------------------------------------------------------ *)

let with_injection f =
  Rtlb_par.Pool.For_testing.reset ();
  Fun.protect ~finally:Rtlb_par.Pool.For_testing.reset f

let pool_spawn_failure_shrinks () =
  with_injection (fun () ->
      Rtlb_par.Pool.For_testing.fail_spawns := 2;
      Rtlb_par.Pool.with_pool ~jobs:4 (fun pool ->
          check_int "pool kept the workers it got" 2 (Rtlb_par.Pool.size pool);
          let got =
            Rtlb_par.Pool.map_array ~pool (fun i -> i * 3)
              (Array.init 100 Fun.id)
          in
          check_bool "shrunk pool still correct" true
            (got = Array.init 100 (fun i -> i * 3))))

let pool_spawn_all_fail () =
  with_injection (fun () ->
      Rtlb_par.Pool.For_testing.fail_spawns := 64;
      Rtlb_par.Pool.with_pool ~jobs:8 (fun pool ->
          check_int "all spawns failed: sequential pool" 1
            (Rtlb_par.Pool.size pool);
          let got =
            Rtlb_par.Pool.map_array ~pool (fun i -> i + 7)
              (Array.init 20 Fun.id)
          in
          check_bool "sequential fallback correct" true
            (got = Array.init 20 (fun i -> i + 7))))

let pool_inject_raise () =
  with_injection (fun () ->
      Rtlb_par.Pool.with_pool ~jobs:test_jobs (fun pool ->
          Rtlb_par.Pool.For_testing.inject :=
            Some (fun i -> if i = 57 then raise (Boom i));
          (try
             ignore
               (Rtlb_par.Pool.map_array ~pool Fun.id (Array.init 200 Fun.id));
             Alcotest.fail "expected the injected exception to propagate"
           with Boom 57 -> ());
          Rtlb_par.Pool.For_testing.inject := None;
          let got =
            Rtlb_par.Pool.map_array ~pool (fun i -> i + 1)
              (Array.init 10 Fun.id)
          in
          check_bool "pool survives an injected worker fault" true
            (got = Array.init 10 (fun i -> i + 1))))

let pool_inject_delay () =
  with_injection (fun () ->
      Rtlb_par.Pool.with_pool ~jobs:test_jobs (fun pool ->
          Rtlb_par.Pool.For_testing.inject :=
            Some
              (fun _ ->
                for k = 0 to 5_000 do
                  ignore (Sys.opaque_identity k)
                done);
          let got =
            Rtlb_par.Pool.map_array ~pool (fun i -> i * i)
              (Array.init 64 Fun.id)
          in
          check_bool "slowed workers still produce correct results" true
            (got = Array.init 64 (fun i -> i * i))))

let pool_concurrent_failures () =
  (* Two bodies raise in the same job: the first failure is the one
     re-raised, the second must not be silently dropped — it is counted
     in [Worker_failures] and in the [Worker_errors] counter.  A barrier
     holds both raising bodies until both have been claimed, so the
     failures are genuinely concurrent (neither is skipped by the
     post-failure drain). *)
  with_injection (fun () ->
      Rtlb_par.Pool.with_pool ~jobs:test_jobs (fun pool ->
          let total = 200 in
          let arrived = Atomic.make 0 in
          Rtlb_par.Pool.For_testing.inject :=
            Some
              (fun i ->
                if i = 0 || i = total - 1 then begin
                  Atomic.incr arrived;
                  while Atomic.get arrived < 2 do
                    Domain.cpu_relax ()
                  done;
                  raise (Boom i)
                end);
          let tracer = Rtlb_obs.Tracer.make () in
          (try
             ignore
               (Rtlb_par.Pool.run ~tracer pool ~total (fun _ -> ()));
             Alcotest.fail "expected Worker_failures"
           with
          | Rtlb_par.Pool.Worker_failures (Boom _, 1) as e ->
              check_bool "message mentions the suppressed failure" true
                (string_contains ~needle:"suppressed" (Printexc.to_string e)));
          check_int "both failures hit the Worker_errors counter" 2
            (Rtlb_obs.Tracer.counter tracer Rtlb_obs.Tracer.Worker_errors);
          Rtlb_par.Pool.For_testing.inject := None;
          let got =
            Rtlb_par.Pool.map_array ~pool (fun i -> i + 1)
              (Array.init 8 Fun.id)
          in
          check_bool "pool usable after concurrent failures" true
            (got = Array.init 8 (fun i -> i + 1))))

let pool_heal_after_worker_abort () =
  (* Worker_abort kills the executing domain mid-run; [dead_workers]
     reports the casualty, [heal] joins and respawns it, and the pool is
     fully usable afterwards.  Whether a worker or the submitting domain
     executes the aborting body is scheduling-dependent (the submitter
     never dies), so the assertions tie [heal] to the observed death
     count instead of pinning it. *)
  with_injection (fun () ->
      Rtlb_par.Pool.with_pool ~jobs:test_jobs (fun pool ->
          let before = Rtlb_par.Pool.size pool in
          Rtlb_par.Pool.For_testing.inject :=
            Some (fun i -> if i = 31 then raise Rtlb_par.Pool.Worker_abort);
          (try
             ignore
               (Rtlb_par.Pool.map_array ~pool Fun.id (Array.init 64 Fun.id));
             Alcotest.fail "expected Worker_abort to reach the submitter"
           with
          | Rtlb_par.Pool.Worker_abort
          | Rtlb_par.Pool.Worker_failures (Rtlb_par.Pool.Worker_abort, _) ->
              ());
          Rtlb_par.Pool.For_testing.inject := None;
          let dead = Rtlb_par.Pool.dead_workers pool in
          check_bool "at most one casualty" true (dead <= 1);
          check_int "size reflects the death" (before - dead)
            (Rtlb_par.Pool.size pool);
          let healed = Rtlb_par.Pool.heal pool in
          check_int "heal respawns exactly the casualties" dead healed;
          check_int "size restored" before (Rtlb_par.Pool.size pool);
          check_int "no dead workers left" 0
            (Rtlb_par.Pool.dead_workers pool);
          let got =
            Rtlb_par.Pool.map_array ~pool (fun i -> i * 2)
              (Array.init 100 Fun.id)
          in
          check_bool "pool correct after heal" true
            (got = Array.init 100 (fun i -> i * 2))))

let pool_cancel_flag () =
  (* The process-wide cancel flag turns cancellable runs into `Partial
     without executing further bodies; map_array (all-Some invariant)
     and ~cancellable:false runs are immune; reset_cancel restores
     normal operation. *)
  Fun.protect ~finally:Rtlb_par.Pool.reset_cancel (fun () ->
      Rtlb_par.Pool.request_cancel ();
      check_bool "flag visible" true (Rtlb_par.Pool.cancel_requested ());
      let out, status =
        Rtlb_par.Pool.map_array_partial Fun.id (Array.init 20 Fun.id)
      in
      check_bool "cancelled run is `Partial" true (status = `Partial);
      check_bool "cancelled run executed nothing" true
        (Array.for_all (( = ) None) out);
      let got =
        Rtlb_par.Pool.map_array (fun i -> i + 1) (Array.init 20 Fun.id)
      in
      check_bool "map_array immune to the cancel flag" true
        (got = Array.init 20 (fun i -> i + 1));
      let out2, st2 =
        Rtlb_par.Pool.map_array_partial ~cancellable:false Fun.id
          (Array.init 20 Fun.id)
      in
      check_bool "~cancellable:false run completes" true
        (st2 = `Done && Array.for_all Option.is_some out2);
      Rtlb_par.Pool.reset_cancel ();
      let _, st3 = Rtlb_par.Pool.map_array_partial Fun.id (Array.init 5 Fun.id) in
      check_bool "reset_cancel restores `Done" true (st3 = `Done);
      Rtlb_par.Pool.with_pool ~jobs:test_jobs (fun pool ->
          Rtlb_par.Pool.request_cancel ();
          let _, st =
            Rtlb_par.Pool.map_array_partial ~pool Fun.id
              (Array.init 50 Fun.id)
          in
          check_bool "pooled cancelled run is `Partial" true (st = `Partial);
          Rtlb_par.Pool.reset_cancel ()))

(* ------------------------------------------------------------------ *)
(* Worker-utilization accounting under faults                          *)
(*                                                                     *)
(* The tracer's per-worker chunk table must stay consistent with what  *)
(* actually executed, whatever goes wrong: the per-worker item totals  *)
(* count exactly the bodies that ran to completion (= the [Some] slots *)
(* of map_array_partial), and [Chunks_claimed] equals the sum of the   *)
(* per-worker chunk counts.  No chunk is lost or double-counted.       *)
(* ------------------------------------------------------------------ *)

let worker_sums tracer =
  List.fold_left
    (fun (chunks, items) (_, c, i) -> (chunks + c, items + i))
    (0, 0)
    (Rtlb_obs.Tracer.worker_stats tracer)

let check_chunk_accounting label tracer ~executed =
  let chunks, items = worker_sums tracer in
  check_int (label ^ ": worker items = executed bodies") executed items;
  check_int
    (label ^ ": Chunks_claimed = sum of worker chunks")
    (Rtlb_obs.Tracer.counter tracer Rtlb_obs.Tracer.Chunks_claimed)
    chunks

let some_count out = Array.fold_left (fun a -> function Some _ -> a + 1 | None -> a) 0 out

let traced_counters_under_spawn_failure () =
  with_injection (fun () ->
      Rtlb_par.Pool.For_testing.fail_spawns := 64;
      Rtlb_par.Pool.with_pool ~jobs:8 (fun pool ->
          let tracer = Rtlb_obs.Tracer.make () in
          let out, status =
            Rtlb_par.Pool.map_array_partial ~pool ~tracer
              (fun i -> i * 2)
              (Array.init 100 Fun.id)
          in
          check_bool "degraded pool completes" true (status = `Done);
          check_int "every body ran" 100 (some_count out);
          check_chunk_accounting "spawn failure" tracer ~executed:100;
          check_int "no cancellations" 0
            (Rtlb_obs.Tracer.counter tracer Rtlb_obs.Tracer.Deadline_cancels)))

let traced_counters_under_worker_raise () =
  Rtlb_par.Pool.with_pool ~jobs:test_jobs (fun pool ->
      let tracer = Rtlb_obs.Tracer.make () in
      let out = Array.make 200 false in
      (try
         ignore
           (Rtlb_par.Pool.run ~tracer pool ~total:200 (fun i ->
                if i = 57 then raise (Boom i);
                out.(i) <- true));
         Alcotest.fail "expected the body's exception to propagate"
       with Boom 57 -> ());
      let executed =
        Array.fold_left (fun a ran -> if ran then a + 1 else a) 0 out
      in
      (* the raising body itself is not credited as an executed item *)
      check_chunk_accounting "worker raise" tracer ~executed;
      check_bool "failed job does not count as a deadline cancel" true
        (Rtlb_obs.Tracer.counter tracer Rtlb_obs.Tracer.Deadline_cancels = 0))

let traced_counters_expired_budget () =
  let input = Array.init 50 Fun.id in
  let check_path label pool =
    let tracer = Rtlb_obs.Tracer.make () in
    let out, status =
      Rtlb_par.Pool.map_array_partial ?pool ~tracer
        ~deadline_ns:(Rtlb_par.Pool.now_ns ())
        Fun.id input
    in
    check_bool (label ^ ": expired budget is `Partial") true
      (status = `Partial);
    check_chunk_accounting label tracer ~executed:(some_count out);
    check_int (label ^ ": exactly one cancellation") 1
      (Rtlb_obs.Tracer.counter tracer Rtlb_obs.Tracer.Deadline_cancels)
  in
  check_path "inline" None;
  Rtlb_par.Pool.with_pool ~jobs:test_jobs (fun pool ->
      check_path "pooled" (Some pool))

let traced_counters_midrun_deadline () =
  (* Delay every body so a short budget expires mid-run: however many
     chunks the race lets through, the accounting must balance. *)
  with_injection (fun () ->
      Rtlb_par.Pool.For_testing.inject :=
        Some
          (fun _ ->
            for k = 0 to 20_000 do
              ignore (Sys.opaque_identity k)
            done);
      Rtlb_par.Pool.with_pool ~jobs:test_jobs (fun pool ->
          let tracer = Rtlb_obs.Tracer.make () in
          let out, status =
            Rtlb_par.Pool.map_array_partial ~pool ~tracer
              ~deadline_ns:(Int64.add (Rtlb_par.Pool.now_ns ()) 2_000_000L)
              Fun.id
              (Array.init 512 Fun.id)
          in
          check_chunk_accounting "mid-run deadline" tracer
            ~executed:(some_count out);
          if status = `Partial then
            check_bool "partial run recorded a cancellation" true
              (Rtlb_obs.Tracer.counter tracer Rtlb_obs.Tracer.Deadline_cancels
              >= 1)))

(* ------------------------------------------------------------------ *)
(* Cooperative cancellation                                            *)
(* ------------------------------------------------------------------ *)

let far_deadline () =
  Int64.add (Rtlb_par.Pool.now_ns ()) 60_000_000_000L (* now + 60 s *)

let deadline_expired_is_partial () =
  let input = Array.init 50 Fun.id in
  let check_path label pool =
    let out, status =
      Rtlb_par.Pool.map_array_partial ?pool
        ~deadline_ns:(Rtlb_par.Pool.now_ns ())
        (fun i -> i)
        input
    in
    check_bool (label ^ ": expired budget reports `Partial") true
      (status = `Partial);
    check_bool (label ^ ": nothing executed") true
      (Array.for_all (( = ) None) out)
  in
  check_path "inline" None;
  Rtlb_par.Pool.with_pool ~jobs:test_jobs (fun pool ->
      check_path "pooled" (Some pool));
  let _, status =
    Rtlb_par.Pool.map_array_partial ~deadline_ns:(Rtlb_par.Pool.now_ns ())
      Fun.id [||]
  in
  check_bool "empty input is `Done even past the deadline" true
    (status = `Done)

let generous_deadline_is_done () =
  let input = Array.init 200 Fun.id in
  let want = Array.map (fun i -> Some (i * 2)) input in
  let check_path label pool =
    let out, status =
      Rtlb_par.Pool.map_array_partial ?pool ~deadline_ns:(far_deadline ())
        (fun i -> i * 2)
        input
    in
    check_bool (label ^ ": generous budget completes") true (status = `Done);
    check_bool (label ^ ": results identical to map_array") true (out = want)
  in
  check_path "inline" None;
  Rtlb_par.Pool.with_pool ~jobs:test_jobs (fun pool ->
      check_path "pooled" (Some pool))

let analysis_budget_expired () =
  let run ?pool () =
    Rtlb.Analysis.run ?pool ~deadline_ns:(Rtlb_par.Pool.now_ns ())
      Rtlb.Paper_example.shared paper
  in
  let check_analysis label (a : Rtlb.Analysis.t) =
    check_bool (label ^ ": partial") true (Rtlb.Analysis.is_partial a);
    check_bool (label ^ ": coverage 0") true (Rtlb.Analysis.coverage a = 0.0);
    List.iter
      (fun (b : Rtlb.Lower_bound.bound) ->
        check_int
          (Printf.sprintf "%s: LB_%s trivial" label b.Rtlb.Lower_bound.resource)
          0 b.Rtlb.Lower_bound.lb;
        check_bool (label ^ ": no fabricated witness") true
          (b.Rtlb.Lower_bound.witness = None))
      a.Rtlb.Analysis.bounds
  in
  check_analysis "sequential" (run ());
  Rtlb_par.Pool.with_pool ~jobs:test_jobs (fun pool ->
      check_analysis "pooled" (run ~pool ()))

let analysis_budget_generous_bit_identical () =
  let baseline = Rtlb.Analysis.run Rtlb.Paper_example.shared paper in
  let seq =
    Rtlb.Analysis.run ~deadline_ns:(far_deadline ()) Rtlb.Paper_example.shared
      paper
  in
  check_bool "generous budget is `Complete" false (Rtlb.Analysis.is_partial seq);
  check_bool "generous budget bit-identical (sequential)" true
    (analyses_identical baseline seq);
  Rtlb_par.Pool.with_pool ~jobs:test_jobs (fun pool ->
      let par =
        Rtlb.Analysis.run ~pool ~deadline_ns:(far_deadline ())
          Rtlb.Paper_example.shared paper
      in
      check_bool "generous budget bit-identical (pooled)" true
        (analyses_identical baseline par))

let sensitivity_budget_expired () =
  let samples =
    Rtlb.Sensitivity.deadline_sweep
      ~deadline_ns:(Rtlb_par.Pool.now_ns ())
      Rtlb.Paper_example.shared paper ~factors:[ 1.0; 2.0 ]
  in
  check_bool "every sample flagged partial" true
    (List.for_all (fun s -> s.Rtlb.Sensitivity.s_partial) samples)

(* Chunk boundaries align to cache-line-sized packed-array slices:
   1000 items on 4 domains gives a raw chunk of 63, rounded up to 64
   (8 ints x 8 bytes = one 64-byte line), hence exactly 16 claims. *)
let chunk_cache_line_alignment () =
  Rtlb_par.Pool.with_pool ~jobs:4 (fun pool ->
      if Rtlb_par.Pool.size pool = 4 then begin
        let tracer = Rtlb_obs.Tracer.make () in
        let hits = Atomic.make 0 in
        let status =
          Rtlb_par.Pool.run ~tracer pool ~total:1000 (fun _ ->
              Atomic.incr hits)
        in
        check_bool "run completed" true (status = `Done);
        check_int "all bodies ran" 1000 (Atomic.get hits);
        check_int "aligned chunk count" 16
          (Rtlb_obs.Tracer.counter tracer Rtlb_obs.Tracer.Chunks_claimed)
      end)

let parallel_paper_example () =
  Rtlb_par.Pool.with_pool ~jobs:4 (fun pool ->
      List.iter
        (fun system ->
          let seq = Rtlb.Analysis.run system paper in
          let par = Rtlb.Analysis.run ~pool system paper in
          check_bool "paper example identical on a 4-domain pool" true
            (analyses_identical seq par))
        [ Rtlb.Paper_example.shared; Rtlb.Paper_example.dedicated ])

let suite =
  [
    ( "par",
      [
        Alcotest.test_case "pool preserves input order" `Quick pool_ordering;
        Alcotest.test_case "pool balances uneven work" `Quick pool_uneven_work;
        Alcotest.test_case "pool propagates exceptions" `Quick
          pool_exception_propagation;
        Alcotest.test_case "pool nested submit is safe" `Quick
          pool_nested_submit;
        Alcotest.test_case "pool sequential degenerate" `Quick
          pool_sequential_degenerate;
        Alcotest.test_case "pool shrinks on spawn failure" `Quick
          pool_spawn_failure_shrinks;
        Alcotest.test_case "pool degrades to sequential when no spawn works"
          `Quick pool_spawn_all_fail;
        Alcotest.test_case "pool propagates injected worker faults" `Quick
          pool_inject_raise;
        Alcotest.test_case "pool correct under injected delays" `Quick
          pool_inject_delay;
        Alcotest.test_case "pool reports concurrent worker failures" `Quick
          pool_concurrent_failures;
        Alcotest.test_case "pool heals after a worker death" `Quick
          pool_heal_after_worker_abort;
        Alcotest.test_case "cancel flag: partial maps, reset" `Quick
          pool_cancel_flag;
        Alcotest.test_case "traced chunk accounting under spawn failure"
          `Quick traced_counters_under_spawn_failure;
        Alcotest.test_case "traced chunk accounting under a worker raise"
          `Quick traced_counters_under_worker_raise;
        Alcotest.test_case "chunk boundaries align to cache lines" `Quick
          chunk_cache_line_alignment;
        Alcotest.test_case "traced chunk accounting: expired budget" `Quick
          traced_counters_expired_budget;
        Alcotest.test_case "traced chunk accounting: mid-run deadline" `Quick
          traced_counters_midrun_deadline;
        Alcotest.test_case "expired deadline yields `Partial" `Quick
          deadline_expired_is_partial;
        Alcotest.test_case "generous deadline yields `Done, identical" `Quick
          generous_deadline_is_done;
        Alcotest.test_case "anytime analysis: expired budget" `Quick
          analysis_budget_expired;
        Alcotest.test_case "anytime analysis: generous budget bit-identical"
          `Quick analysis_budget_generous_bit_identical;
        Alcotest.test_case "anytime sensitivity flags partial samples" `Quick
          sensitivity_budget_expired;
        Alcotest.test_case "kernel = naive theta (paper, exhaustive)" `Quick
          kernel_matches_naive_on_paper;
        Alcotest.test_case "kernel on empty ST_r" `Quick kernel_empty_tasks;
        Alcotest.test_case "kernel on zero-length/infeasible windows" `Quick
          kernel_zero_length_windows;
        Alcotest.test_case "parallel analysis, paper example" `Quick
          parallel_paper_example;
        Alcotest.test_case "parallel = sequential on 100 generated apps"
          `Quick parallel_equals_sequential_all_shapes;
        Alcotest.test_case "parallel sensitivity sweep" `Quick
          parallel_sensitivity;
        kernel_prop;
        parallel_prop;
      ] );
  ]
