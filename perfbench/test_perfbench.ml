(* The benchmark's own checks: inputs are a function of the seed,
   percentiles state their sample counts, and the answer check counts
   wrong answers and error replies as failures. *)

open Perfbench

let same_schedule () =
  let a = Schedule.make Schedule.Serve_mixed ~seed:11 ~seconds:1.0 in
  let b = Schedule.make Schedule.Serve_mixed ~seed:11 ~seconds:1.0 in
  let c = Schedule.make Schedule.Serve_mixed ~seed:12 ~seconds:1.0 in
  let frames s = Array.to_list (Array.map (Schedule.frame_line s) s.Schedule.requests) in
  let dues s = Array.to_list (Array.map (fun r -> r.Schedule.due_ns) s.Schedule.requests) in
  Alcotest.(check (list string)) "frames" (frames a) (frames b);
  Alcotest.(check (list int)) "due times" (dues a) (dues b);
  Alcotest.(check bool) "another seed differs" true (frames a <> frames c)

let offered_counts () =
  let span = Schedule.warmup_s +. 2.0 in
  let mixed = Schedule.make Schedule.Serve_mixed ~seed:3 ~seconds:2.0 in
  let reqs = mixed.Schedule.requests in
  let n = Array.length reqs in
  Alcotest.(check int) "rate x (warm-up + seconds) requests"
    (int_of_float (Float.round (Schedule.rate_per_s Schedule.Serve_mixed *. span)))
    n;
  let colds = List.filter (fun r -> not (Schedule.is_warm r)) (Array.to_list reqs) in
  Alcotest.(check int) "one cold instance per cold request" (List.length colds)
    (Array.length mixed.Schedule.cold);
  Alcotest.(check int) "cold share"
    (int_of_float (Float.round (Schedule.cold_share *. float_of_int n)))
    (List.length colds);
  ignore
    (List.fold_left
       (fun prev r ->
         Alcotest.(check bool) "cold gaps keep the floor" true
           (r.Schedule.due_ns - prev >= int_of_float (Schedule.cold_floor_s *. 1e9) - 1);
         r.Schedule.due_ns)
       (List.hd colds).Schedule.due_ns (List.tl colds));
  let warm_ns = int_of_float (Schedule.warmup_s *. 1e9) in
  Array.iteri
    (fun i r ->
      Alcotest.(check bool) "warm-up precedes the measured phase"
        (i < mixed.Schedule.measured_from) (r.Schedule.due_ns < warm_ns))
    reqs;
  let sweep = Schedule.make Schedule.Serve_sweep ~seed:3 ~seconds:2.0 in
  let b = Schedule.burst in
  Array.iteri
    (fun i r ->
      let first = sweep.Schedule.requests.(i / b * b) in
      Alcotest.(check int) "burst-mates share a due time" first.Schedule.due_ns r.Schedule.due_ns;
      Alcotest.(check int) "bursts alternate connections" (i / b mod Schedule.connections)
        r.Schedule.conn;
      if i >= b && i mod b = 0 then
        Alcotest.(check bool) "burst gaps keep the floor" true
          (r.Schedule.due_ns - sweep.Schedule.requests.(i - b).Schedule.due_ns
          >= int_of_float (Schedule.burst_floor_s *. 1e9) - 1))
    sweep.Schedule.requests;
  (* every generated edit keeps release + compute <= deadline *)
  List.iter
    (fun s ->
      Array.iter
        (fun r ->
          match r.Schedule.kind with
          | Schedule.Whatif { inst; edit } ->
              ignore (Rtlb.Incremental.apply s.Schedule.hot.(inst).Schedule.app [ edit ])
          | Schedule.Cold _ -> ())
        s.Schedule.requests)
    [ mixed; sweep ]

let percentile_counts () =
  let xs n = Array.init n (fun i -> float_of_int (n - i)) in
  let p = Stat.percentile (xs 1000) 99.0 in
  Alcotest.(check int) "taken over every sample" 1000 p.Stat.n;
  Alcotest.(check int) "ten beyond" 10 p.Stat.beyond;
  Alcotest.(check (float 0.0)) "990th smallest" 990.0 p.Stat.value;
  Alcotest.(check bool) "p99 of 1000 is supported" true (Stat.supported p);
  Alcotest.(check bool) "p99 of 999 is not" false (Stat.supported (Stat.percentile (xs 999) 99.0));
  let level, t = Stat.tail (xs 999) 99.0 in
  Alcotest.(check (float 0.0)) "tail backs off to p98" 98.0 level;
  Alcotest.(check bool) "with ten beyond" true (t.Stat.beyond >= Stat.min_beyond);
  let level, t = Stat.tail [| 5.0; 1.0; 3.0; 2.0 |] 99.0 in
  Alcotest.(check (float 0.0)) "few samples: the median" 50.0 level;
  Alcotest.(check (float 0.0)) "median of four" 2.5 t.Stat.value

let answers_are_checked () =
  let s = Schedule.make Schedule.Serve_sweep ~seed:5 ~seconds:0.2 in
  let refs = Check.refs s in
  let r = s.Schedule.requests.(0) in
  let good = Check.expected_line refs r in
  let expected = Check.expected refs r in
  (* a wrong number planted in an otherwise correct reply *)
  let planted =
    let i = Option.get (Check.value_after good "\"lb\"") in
    String.sub good 0 i ^ "9" ^ String.sub good i (String.length good - i)
  in
  let error =
    Rtlb_serve.Protocol.to_line
      (Rtlb_serve.Protocol.error_reply ~id:(Rtfmt.Json.Int r.Schedule.id)
         Rtlb_serve.Protocol.Overloaded ~retry_after_ms:25 "request queue is full")
  in
  let v line = Check.verdict ~expected (Some (Check.seen_of_line line)) in
  Alcotest.(check bool) "reference passes" true (v good = Check.Correct);
  Alcotest.(check bool) "planted answer is wrong" true (v planted = Check.Wrong);
  Alcotest.(check bool) "error reply keeps its code" true (v error = Check.Error_reply "S303");
  let t = Check.tally () in
  Check.record t ~within:true (v good);
  Check.record t ~within:true (v planted);
  Check.record t ~within:true (v error);
  Check.record t ~within:false (Check.verdict ~expected None);
  Check.record t ~within:false (v good);
  Alcotest.(check int) "attempted" 5 t.Check.attempted;
  Alcotest.(check int) "failed" 3 (Check.failed t);
  Alcotest.(check int) "in time" 1 t.Check.in_time;
  Alcotest.(check (option int)) "reply id" (Some r.Schedule.id) (Check.reply_id error)

let self_times () =
  let tracer = Rtlb_obs.Tracer.make ~clock:(Rtlb_obs.Clock.fake ~step:1_000_000L ()) () in
  Rtlb_obs.Tracer.with_span tracer "outer" (fun () ->
      Rtlb_obs.Tracer.with_span tracer "inner" ignore;
      Rtlb_obs.Tracer.with_span tracer "inner" ignore);
  let s = Traced.span_totals tracer in
  Alcotest.(check (float 1e-9)) "outer total" 5.0 (Traced.total s "outer");
  Alcotest.(check (float 1e-9)) "inner total" 2.0 (Traced.total s "inner");
  Alcotest.(check (float 1e-9)) "outer self" 3.0 (Hashtbl.find s.Traced.self_ms "outer")

let () =
  Alcotest.run "perfbench"
    [
      ( "generator",
        [
          Alcotest.test_case "a seed gives the same schedule" `Quick same_schedule;
          Alcotest.test_case "offered counts and valid edits" `Quick offered_counts;
        ] );
      ( "stats",
        [
          Alcotest.test_case "percentiles state their sample count" `Quick percentile_counts;
          Alcotest.test_case "span self times" `Quick self_times;
        ] );
      ( "check",
        [ Alcotest.test_case "wrong answers and error replies fail" `Quick answers_are_checked ] );
    ]
