(* Serve-daemon suite: protocol strictness, the warm-handle LRU's
   checkout/checkin discipline, admission control (overload + drain
   refusals), per-request deadline budgets, request isolation, and the
   acceptance storm — 8 concurrent clients replaying a seeded
   server-side chaos plan (malformed frames, mid-request worker kills,
   slow clients, transient raises) against one daemon, asserting the
   daemon survives with zero incorrect answers: every successful reply
   is bit-identical to the one-shot encoders the CLI uses, every
   failure is a structured S3xx error. *)

open Helpers
module Json = Rtfmt.Json
module Server = Rtlb_serve.Server
module Protocol = Rtlb_serve.Protocol
module Cache = Rtlb_serve.Cache
module Chaos = Rtlb_par.Chaos
module Tracer = Rtlb_obs.Tracer

let paper = Rtlb.Paper_example.app
let paper_text = Rtfmt.Appfile.to_string paper

(* Serve resolves a file with no system line to the uniform shared
   model — the reference computations below must do the same. *)
let uniform app =
  Rtlb.System.shared_uniform ~resources:(Rtlb.App.resource_set app)

let with_chaos plan f =
  Chaos.arm plan;
  Fun.protect ~finally:Chaos.disarm f

(* Fresh tracer per server: the counters the stats op snapshots must
   not leak across test cases. *)
let quick_config () =
  {
    Server.default_config with
    Server.jobs = 2;
    workers = 2;
    tracer = Tracer.make ();
  }

let with_server ?config f =
  let config = match config with Some c -> c | None -> quick_config () in
  let t = Server.create ~config () in
  Fun.protect ~finally:(fun () -> Server.shutdown t) (fun () -> f t)

(* Submit one frame and block until its reply line arrives (replies may
   come from a worker thread). *)
let request_line t line =
  let m = Mutex.create () and c = Condition.create () in
  let slot = ref None in
  Server.submit t line (fun reply ->
      Mutex.lock m;
      slot := Some reply;
      Condition.signal c;
      Mutex.unlock m);
  Mutex.lock m;
  while !slot = None do
    Condition.wait c m
  done;
  Mutex.unlock m;
  Option.get !slot

let request t line = Json.parse (request_line t line)

let frame fields = Protocol.to_line (Json.Obj fields)

let error_code reply =
  match Json.member "code" (Json.member "error" reply) with
  | Json.Str c -> c
  | _ -> "?"

let is_ok reply = Json.member "ok" reply = Json.Bool true
let result_line reply = Protocol.to_line (Json.member "result" reply)

(* ------------------------------------------------------------------ *)
(* Protocol strictness                                                 *)
(* ------------------------------------------------------------------ *)

let protocol_strict () =
  let reject line needle =
    match Protocol.request_of_json (Json.parse line) with
    | Ok _ -> Alcotest.failf "expected %s to be rejected" line
    | Error m ->
        check_bool
          (Printf.sprintf "error for %s mentions %S (got %S)" line needle m)
          true
          (string_contains ~needle m)
  in
  reject {|{"op": "analyze"}|} "app";
  reject {|{"op": "fly", "app": ""}|} "unknown op";
  reject {|{"op": "analyze", "app": "", "surprise": 1}|} "surprise";
  reject {|{"op": "analyze", "app": "", "engine": "simd"}|} "simd";
  reject {|{"op": "analyze", "app": "", "deadline_ms": -1}|} "deadline_ms";
  reject {|{"op": "whatif", "app": ""}|} "edits";
  reject {|{"op": "whatif", "app": "", "edits": []}|} "empty";
  reject {|{"op": "whatif", "app": "", "edits": [{"task": 0}]}|} "one of";
  reject {|{"op": "sensitivity", "app": "", "factors": ["zero"]}|} "factor";
  reject {|{"op": "sensitivity", "app": "", "factors": ["-1"]}|} "-1";
  reject {|{"op": "ping", "app": ""}|} "takes no";
  reject {|{"op": "analyze", "app": "", "factors": [1]}|} "takes no";
  match
    Protocol.request_of_json
      (Json.parse
         {|{"id": 9, "op": "whatif", "app": "x", "engine": "soa",
            "edits": [{"task": 1, "deadline": 12, "release": 2}]}|})
  with
  | Error m -> Alcotest.failf "well-formed request rejected: %s" m
  | Ok req ->
      check_bool "id echoed" true (req.Protocol.id = Json.Int 9);
      check_int "two edits from one object" 2 (List.length req.Protocol.edits)

(* ------------------------------------------------------------------ *)
(* LRU cache                                                           *)
(* ------------------------------------------------------------------ *)

let cache_lru () =
  let tracer = Tracer.make () in
  let cache = Cache.create ~tracer ~capacity:2 () in
  let system = uniform paper in
  let handle () = Rtlb.Incremental.create system paper in
  Cache.checkin cache "a" ~text:"a" (handle ());
  Cache.checkin cache "b" ~text:"b" (handle ());
  Cache.checkin cache "c" ~text:"c" (handle ());
  check_int "capacity bound holds" 2 (Cache.length cache);
  check_int "one eviction counted" 1 (Tracer.counter tracer Tracer.Evictions);
  check_bool "least-recently-used key evicted" true
    (Cache.checkout cache "a" ~text:"a" = None);
  Cache.release cache "a";
  check_bool "fresh key resident" true
    (Cache.checkout cache "c" ~text:"c" <> None);
  (* checkout removes: once the claim ends without a checkin, a second
     checkout misses (single-user handles) *)
  Cache.release cache "c";
  check_bool "checkout removes the entry" true
    (Cache.checkout cache "c" ~text:"c" = None);
  Cache.release cache "c";
  check_int "only b left" 1 (Cache.length cache)

(* The deprecated "engine" field: both of its names are accepted and
   ignored, so one text is one instance whatever the field says. *)
let engine_field_ignored () =
  let tracer = Tracer.make () in
  with_server ~config:{ (quick_config ()) with Server.tracer } @@ fun t ->
  let analyze id engine =
    request_line t
      (frame
         ([
            ("id", Json.Int id);
            ("op", Json.Str "analyze");
            ("app", Json.Str paper_text);
          ]
         @ List.map (fun e -> ("engine", Json.Str e)) (Option.to_list engine)))
  in
  let cold = Tracer.counter tracer Tracer.Cold_builds in
  (* each reply starts with its id; the bytes after it must agree *)
  let after_id id line =
    let prefix = Printf.sprintf "{\"id\": %d," id in
    check_bool
      (Printf.sprintf "reply %d starts with its id" id)
      true
      (String.starts_with ~prefix line);
    let n = String.length prefix in
    String.sub line n (String.length line - n)
  in
  let record = after_id 1 (analyze 1 (Some "record")) in
  let soa = after_id 2 (analyze 2 (Some "soa")) in
  let none = after_id 3 (analyze 3 None) in
  check_bool "the record reply is ok" true
    (is_ok (Json.parse ("{" ^ record)));
  check_string "\"soa\" = \"record\", byte for byte" record soa;
  check_string "no engine = \"record\", byte for byte" record none;
  check_int "one cold build served all three" 1
    (Tracer.counter tracer Tracer.Cold_builds - cold);
  check_string "any other engine is still S301" "S301"
    (error_code (Json.parse (analyze 4 (Some "simd"))))

(* ------------------------------------------------------------------ *)
(* Admission control and drain                                         *)
(* ------------------------------------------------------------------ *)

let overload_rejected () =
  (* A zero-capacity queue rejects every analysis admission — the
     deterministic stand-in for a backlogged daemon. *)
  let config = { (quick_config ()) with Server.queue_capacity = 0 } in
  with_server ~config (fun t ->
      let reply =
        request t (frame [ ("op", Json.Str "analyze"); ("app", Json.Str paper_text) ])
      in
      check_bool "overload reply is an error" false (is_ok reply);
      check_string "overload code" "S303" (error_code reply);
      (match Json.member "retry_after_ms" (Json.member "error" reply) with
      | Json.Int ms -> check_bool "retry hint is positive" true (ms > 0)
      | _ -> Alcotest.fail "S303 carries retry_after_ms");
      (* inline ops still answer under overload *)
      check_bool "ping unaffected" true
        (is_ok (request t (frame [ ("op", Json.Str "ping") ]))))

let drain_refuses () =
  with_server (fun t ->
      let before =
        request t
          (frame [ ("id", Json.Int 1); ("op", Json.Str "analyze"); ("app", Json.Str paper_text) ])
      in
      check_bool "pre-drain request answered" true (is_ok before);
      Server.drain t;
      let after =
        request t
          (frame [ ("id", Json.Int 2); ("op", Json.Str "analyze"); ("app", Json.Str paper_text) ])
      in
      check_bool "post-drain request refused" false (is_ok after);
      check_string "drain code" "S306" (error_code after))

let deadline_budget_partial () =
  with_server (fun t ->
      let reply =
        request t
          (frame
             [
               ("op", Json.Str "analyze");
               ("app", Json.Str paper_text);
               ("deadline_ms", Json.Int 0);
             ])
      in
      (* an expired budget yields a valid partial reply, not an error *)
      check_bool "expired budget still answers" true (is_ok reply);
      check_bool "reply is flagged partial" true
        (Json.member "partial" (Json.member "result" reply) = Json.Bool true);
      check_int "partial base analyses are never cached" 0
        (Cache.length (Server.cache t));
      let full =
        request t (frame [ ("op", Json.Str "analyze"); ("app", Json.Str paper_text) ])
      in
      check_bool "full rerun is exhaustive" true
        (Json.member "partial" (Json.member "result" full) = Json.Bool false);
      check_int "exhaustive base analyses are cached" 1
        (Cache.length (Server.cache t)))

(* ------------------------------------------------------------------ *)
(* Request isolation                                                   *)
(* ------------------------------------------------------------------ *)

let isolation () =
  with_server (fun t ->
      let bad_frame = request t "{\"id\": 3, op: broken" in
      check_string "garbage frame -> S300" "S300" (error_code bad_frame);
      let bad_app =
        request t
          (frame [ ("op", Json.Str "analyze"); ("app", Json.Str "task T1 oops\n") ])
      in
      check_string "unparsable app -> S302" "S302" (error_code bad_app);
      check_bool "S302 names the line" true
        (string_contains ~needle:"line 1"
           (match Json.member "message" (Json.member "error" bad_app) with
           | Json.Str m -> m
           | _ -> ""));
      let unhostable =
        request t
          (frame
             [
               ("op", Json.Str "analyze");
               ( "app",
                 Json.Str
                   "task T1 compute=3 deadline=9 proc=P1 res=r1\nnode N1 proc=P2 cost=5\n"
               );
             ])
      in
      check_bool "unhostable app is a structured error" false (is_ok unhostable);
      let bad_edit =
        request t
          (frame
             [
               ("op", Json.Str "whatif");
               ("app", Json.Str paper_text);
               ( "edits",
                 Json.List [ Json.Obj [ ("task", Json.Int 999); ("deadline", Json.Int 5) ] ] );
             ])
      in
      check_string "out-of-range edit -> S301" "S301" (error_code bad_edit);
      (* after all of that, the daemon still answers correctly *)
      let alive =
        request t (frame [ ("op", Json.Str "analyze"); ("app", Json.Str paper_text) ])
      in
      check_bool "daemon survives its worst clients" true (is_ok alive);
      check_string "and still answers exactly"
        (Protocol.to_line (Json.of_analysis (Rtlb.Analysis.run (uniform paper) paper)))
        (result_line alive))

(* ------------------------------------------------------------------ *)
(* Acceptance storm: 8 concurrent clients under a seeded chaos plan    *)
(* ------------------------------------------------------------------ *)

type expect = { e_label : string; e_line : string; e_want : string }

let storm_requests () =
  let apps =
    paper
    :: List.map
         (fun seed ->
           Workload.Gen.layered_frames ~seed ~frames:2 ~tasks_per_frame:12 ())
         [ 3; 4 ]
  in
  List.concat_map
    (fun app ->
      let text = Rtfmt.Appfile.to_string app in
      let system = uniform app in
      let record = Oracle.run system app in
      let soa = Rtlb.Analysis.run system app in
      let d0 = (Rtlb.App.task app 0).Rtlb.Task.deadline in
      let edits = [ Rtlb.Incremental.Set_deadline { task = 0; deadline = d0 + 7 } ] in
      let edited = Oracle.run system (Rtlb.Incremental.apply app edits) in
      [
        {
          e_label = "analyze/record";
          e_line = frame [ ("op", Json.Str "analyze"); ("app", Json.Str text) ];
          e_want = Protocol.to_line (Json.of_analysis record);
        };
        {
          e_label = "analyze/soa";
          e_line =
            frame
              [
                ("op", Json.Str "analyze");
                ("app", Json.Str text);
                ("engine", Json.Str "soa");
              ];
          e_want = Protocol.to_line (Json.of_analysis soa);
        };
        {
          e_label = "whatif";
          e_line =
            frame
              [
                ("op", Json.Str "whatif");
                ("app", Json.Str text);
                ( "edits",
                  Json.List
                    [
                      Json.Obj
                        [ ("task", Json.Int 0); ("deadline", Json.Int (d0 + 7)) ];
                    ] );
              ];
          e_want = Protocol.to_line (Json.of_whatif ~base:record ~edited);
        };
      ])
    apps

(* Seeds chosen so the two storms together replay every server-side
   fault class: 11 expands to transient raises + a mid-request worker
   kill + two bad frames, 1 to slow clients + a mid-request kill + a
   bad frame (plans are deterministic, see seeded-plan tests). *)
let storm_with ~seed ~kills ~delays () =
  let expects = Array.of_list (storm_requests ()) in
  let clients = 8 and per_client = 5 in
  let plan = Chaos.server_plan_of_seed ~requests:(clients * per_client) seed in
  let frame_no = Atomic.make 0 in
  let sent_garbage = Atomic.make 0 in
  let failures = Atomic.make [] in
  let fail fmt =
    Printf.ksprintf
      (fun m -> Atomic.set failures (m :: Atomic.get failures))
      fmt
  in
  with_chaos plan (fun () ->
      with_server (fun t ->
          let client c =
            for k = 0 to per_client - 1 do
              let idx = Atomic.fetch_and_add frame_no 1 in
              let delay = Chaos.client_delay_ms idx in
              if delay > 0 then Thread.delay (float_of_int delay /. 1000.0);
              if Chaos.frame_corrupt idx then begin
                Atomic.incr sent_garbage;
                let reply = request t "{\"id\": \"broken\", " in
                if error_code reply <> "S300" then
                  fail "client %d frame %d: corrupt frame got %s" c idx
                    (error_code reply)
              end
              else begin
                let e = expects.(((c * per_client) + k) mod Array.length expects) in
                let reply = request t e.e_line in
                if not (is_ok reply) then
                  fail "client %d frame %d (%s): unexpected error %s" c idx
                    e.e_label (error_code reply)
                else if result_line reply <> e.e_want then
                  fail "client %d frame %d (%s): result diverged" c idx
                    e.e_label
              end
            done
          in
          let threads = List.init clients (fun c -> Thread.create client c) in
          List.iter Thread.join threads;
          (match Atomic.get failures with
          | [] -> ()
          | msgs -> Alcotest.fail (String.concat "\n" msgs));
          (* the plan's faults really fired *)
          check_int "every corrupted frame was sent" (Atomic.get sent_garbage)
            (Chaos.fired_bad_frames ());
          check_int "mid-request worker kills fired" kills
            (Chaos.fired_request_kills ());
          check_int "client stalls fired" delays (Chaos.fired_client_delays ());
          (* daemon is still alive and exact after the storm *)
          let alive = request t (frame [ ("op", Json.Str "ping") ]) in
          check_bool "daemon survived the plan" true (is_ok alive);
          let stats =
            request t (frame [ ("op", Json.Str "stats") ])
          in
          let counter name =
            match Json.member name (Json.member "result" stats) with
            | Json.Int n -> n
            | _ -> -1
          in
          let legit = (clients * per_client) - Atomic.get sent_garbage in
          check_int "every legitimate frame was admitted" legit
            (counter "requests_admitted");
          check_bool "every corrupted frame was rejected" true
            (counter "requests_rejected" >= Atomic.get sent_garbage)))

(* ------------------------------------------------------------------ *)
(* Line reader: the frame cap binds buffered bytes, not only lines     *)
(* ------------------------------------------------------------------ *)

(* Regression for the unbounded-buffer bug: a client streaming an
   endless frame with no '\n' used to grow the reader's buffer without
   bound (the cap was only checked on complete lines, which never
   arrived).  Now the reader must report Overflow as soon as the
   buffered newline-free bytes exceed the cap — long before the flood
   ends — with memory bounded by cap + one read chunk. *)
let flood_capped () =
  let module Lr = Rtlb_serve.Line_reader in
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
  @@ fun () ->
  let max_bytes = 4096 in
  let lr = Lr.create ~max_bytes r in
  let chunk = Bytes.make 1024 'x' in
  let writer =
    Thread.create
      (fun () ->
        (* 16 KiB of newline-free garbage — and the pipe stays OPEN:
           overflow must fire from buffered bytes alone, not from EOF *)
        for _ = 1 to 16 do
          ignore (Unix.write w chunk 0 (Bytes.length chunk))
        done)
      ()
  in
  let event = Lr.read lr ~stop:(fun () -> false) in
  Thread.join writer;
  (match event with
  | Lr.Overflow -> ()
  | Lr.Line _ -> Alcotest.fail "no-newline flood produced a line"
  | Lr.Eof -> Alcotest.fail "no-newline flood reported EOF");
  check_bool "buffered memory stays bounded" true
    (Lr.buffered lr <= max_bytes + 65536);
  (* the reader is poisoned: it keeps refusing, it does not resync *)
  check_bool "overflow is sticky" true
    (Lr.read lr ~stop:(fun () -> false) = Lr.Overflow);
  (* a sane frame on a fresh reader still parses *)
  let lr2 = Lr.create ~max_bytes r in
  ignore (Unix.write_substring w "{\"op\": \"ping\"}\n" 0 15);
  match Lr.read lr2 ~stop:(fun () -> false) with
  | Lr.Line _ -> ()
  | _ -> Alcotest.fail "fresh reader failed on a normal line"

(* The daemon front end answers the flood with S300 and drops the
   connection instead of ballooning. *)
let flood_rejected_end_to_end () =
  let config = { (quick_config ()) with Server.max_frame_bytes = 2048 } in
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "rtlb-flood-%d.sock" (Unix.getpid ()))
  in
  let t = Server.create ~config () in
  let stop = Atomic.make false in
  let ready = ref false in
  let m = Mutex.create () and c = Condition.create () in
  let server_thread =
    Thread.create
      (fun () ->
        Server.serve t
          ~on_ready:(fun _ ->
            Mutex.lock m;
            ready := true;
            Condition.signal c;
            Mutex.unlock m)
          ~endpoints:[ Server.Unix_path path ]
          ~stop:(fun () -> Atomic.get stop)
          ())
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Thread.join server_thread)
  @@ fun () ->
  Mutex.lock m;
  while not !ready do
    Condition.wait c m
  done;
  Mutex.unlock m;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX path);
  let flood = Bytes.make 4096 'y' in
  ignore (Unix.write fd flood 0 (Bytes.length flood));
  let lr = Rtlb_serve.Line_reader.create fd in
  (match Rtlb_serve.Line_reader.read lr ~stop:(fun () -> false) with
  | Rtlb_serve.Line_reader.Line reply ->
      check_string "flood refused with S300" "S300"
        (error_code (Json.parse reply))
  | _ -> Alcotest.fail "no reply to the oversized frame");
  (* the daemon closed its end: the next read hits EOF *)
  match Rtlb_serve.Line_reader.read lr ~stop:(fun () -> false) with
  | Rtlb_serve.Line_reader.Eof -> ()
  | _ -> Alcotest.fail "connection was not dropped after overflow"

(* ------------------------------------------------------------------ *)
(* locked_writer: short writes and EAGAIN never truncate or tear       *)
(* ------------------------------------------------------------------ *)

let writer_no_tearing () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
  @@ fun () ->
  (* non-blocking writer end with a tiny send buffer: big frames MUST
     hit partial writes and EAGAIN (the old writer silently dropped the
     rest of the frame on EAGAIN — truncating or tearing it) *)
  Unix.set_nonblock a;
  (try Unix.setsockopt_int a Unix.SO_SNDBUF 4096
   with Unix.Unix_error _ -> ());
  let write = Server.locked_writer a in
  let frames_per_thread = 40 and writers = 2 in
  let payload tid k =
    (* ~8 KiB, bigger than the send buffer, tagged per frame *)
    Printf.sprintf "%d:%d:%s" tid k (String.make 8192 (Char.chr (65 + tid)))
  in
  let senders =
    List.init writers (fun tid ->
        Thread.create
          (fun () ->
            for k = 0 to frames_per_thread - 1 do
              write (payload tid k)
            done)
          ())
  in
  (* deliberately slow reader: drain in small sips so the writer keeps
     running into a full buffer *)
  let lr = Rtlb_serve.Line_reader.create b in
  let got = ref [] in
  let expected = writers * frames_per_thread in
  while List.length !got < expected do
    match Rtlb_serve.Line_reader.read lr ~stop:(fun () -> false) with
    | Rtlb_serve.Line_reader.Line l -> got := l :: !got
    | _ -> Alcotest.fail "reader lost the stream"
  done;
  List.iter Thread.join senders;
  let seen = List.sort compare !got in
  let want =
    List.sort compare
      (List.concat_map
         (fun tid -> List.init frames_per_thread (payload tid))
         (List.init writers Fun.id))
  in
  check_int "every frame arrived exactly once" (List.length want)
    (List.length seen);
  List.iter2 (fun w s -> check_string "frame intact (not torn/truncated)" w s)
    want seen

(* ------------------------------------------------------------------ *)
(* retry hints: clamped, depth-aware, never zero or negative           *)
(* ------------------------------------------------------------------ *)

let retry_hint_bounds () =
  check_int "drained queue still hints 25ms" 25
    (Server.retry_hint_ms ~workers:2 ~depth:0);
  check_int "scales with standing depth per worker" 825
    (Server.retry_hint_ms ~workers:2 ~depth:64);
  check_int "upper clamp at 30s" 30_000
    (Server.retry_hint_ms ~workers:1 ~depth:10_000_000);
  check_bool "workers=0 does not divide by zero" true
    (Server.retry_hint_ms ~workers:0 ~depth:0 >= 1);
  check_bool "negative depth cannot go below the floor" true
    (Server.retry_hint_ms ~workers:2 ~depth:(-5) >= 1);
  (* and the S303 reply really carries it *)
  let config = { (quick_config ()) with Server.queue_capacity = 0 } in
  with_server ~config (fun t ->
      let reply =
        request t (frame [ ("op", Json.Str "analyze"); ("app", Json.Str paper_text) ])
      in
      check_string "queue full -> S303" "S303" (error_code reply);
      match Json.member "retry_after_ms" (Json.member "error" reply) with
      | Json.Int ms -> check_bool "hint positive" true (ms >= 1)
      | _ -> Alcotest.fail "S303 without retry_after_ms")

(* ------------------------------------------------------------------ *)
(* Quota: exhaustion and refill against a fake clock                   *)
(* ------------------------------------------------------------------ *)

let quota_schedule () =
  let module Quota = Rtlb_serve.Quota in
  let t_ns = ref 0L in
  let q = Quota.create ~now:(fun () -> !t_ns) ~rate_per_s:2.0 ~burst:2.0 () in
  check_bool "burst admits" true (Quota.take q "alice" = Quota.Admit);
  check_bool "burst admits again" true (Quota.take q "alice" = Quota.Admit);
  (match Quota.take q "alice" with
  | Quota.Admit -> Alcotest.fail "empty bucket admitted"
  | Quota.Reject { retry_after_ms } ->
      (* one token at 2/s = 500ms away, exactly *)
      check_int "hint is the token drip time" 500 retry_after_ms);
  (* other tenants are isolated *)
  check_bool "bob unaffected" true (Quota.take q "bob" = Quota.Admit);
  (* half a second later alice has exactly one token back *)
  t_ns := Int64.add !t_ns 500_000_000L;
  check_bool "refilled token admits" true (Quota.take q "alice" = Quota.Admit);
  (match Quota.take q "alice" with
  | Quota.Admit -> Alcotest.fail "token refilled twice"
  | Quota.Reject { retry_after_ms } ->
      check_int "drained again" 500 retry_after_ms);
  (* a clock that jumps backwards must never drain tokens or crash,
     and the hint stays in [1, 60000] *)
  t_ns := Int64.sub !t_ns 2_000_000_000L;
  (match Quota.take q "alice" with
  | Quota.Admit -> Alcotest.fail "backwards clock minted a token"
  | Quota.Reject { retry_after_ms } ->
      check_bool "hint clamped positive" true
        (retry_after_ms >= 1 && retry_after_ms <= Quota.max_retry_ms));
  (* sub-millisecond deficits round up to 1, never 0 *)
  let fast = Quota.create ~now:(fun () -> 0L) ~rate_per_s:1e6 ~burst:1.0 () in
  ignore (Quota.take fast "x");
  (match Quota.take fast "x" with
  | Quota.Reject { retry_after_ms } -> check_int "floor clamp" 1 retry_after_ms
  | Quota.Admit -> Alcotest.fail "empty fast bucket admitted");
  (* a glacial rate clamps at the 60s ceiling *)
  let slow = Quota.create ~now:(fun () -> 0L) ~rate_per_s:1e-6 ~burst:1.0 () in
  ignore (Quota.take slow "y");
  (match Quota.take slow "y" with
  | Quota.Reject { retry_after_ms } ->
      check_int "ceiling clamp" Quota.max_retry_ms retry_after_ms
  | Quota.Admit -> Alcotest.fail "empty slow bucket admitted");
  check_int "tracked tenants" 2 (Quota.tenants q)

(* end-to-end: over-quota frames get S307 with a hint; other tenants
   keep flowing; the counters record it *)
let quota_s307 () =
  let tracer = Tracer.make () in
  let quota = Rtlb_serve.Quota.create ~rate_per_s:0.001 ~burst:2.0 () in
  let config =
    {
      (quick_config ()) with
      Server.workers = 0;
      jobs = 1;
      tracer;
      quota = Some quota;
    }
  in
  with_server ~config (fun t ->
      let send tenant =
        let replies = ref [] in
        Server.submit t
          (frame
             [
               ("op", Json.Str "analyze");
               ("app", Json.Str paper_text);
               ("tenant", Json.Str tenant);
             ])
          (fun r -> replies := r :: !replies);
        !replies
      in
      ignore (send "alice");
      ignore (send "alice");
      (match send "alice" with
      | [ reply ] ->
          let reply = Json.parse reply in
          check_string "third alice frame -> S307" "S307" (error_code reply);
          (match Json.member "name" (Json.member "error" reply) with
          | Json.Str n -> check_string "stable name" "quota_exceeded" n
          | _ -> Alcotest.fail "S307 without a name");
          (match Json.member "retry_after_ms" (Json.member "error" reply) with
          | Json.Int ms -> check_bool "hint positive" true (ms >= 1)
          | _ -> Alcotest.fail "S307 without retry_after_ms")
      | _ -> Alcotest.fail "over-quota frame was not rejected synchronously");
      check_bool "bob still admitted" true (send "bob" = []);
      (* ping/stats are not metered *)
      check_bool "ping unmetered" true
        (is_ok (request t (frame [ ("op", Json.Str "ping") ])));
      check_int "quota_rejections counted" 1
        (Tracer.counter tracer Tracer.Quota_rejections);
      check_int "also counted as a rejection" 1
        (Tracer.counter tracer Tracer.Requests_rejected);
      (* the queued work still runs to completion *)
      Server.run_pending t;
      check_int "admitted jobs all ran" 3
        (Tracer.counter tracer Tracer.Requests_admitted))

(* ------------------------------------------------------------------ *)
(* Coalescing: batched what-ifs are bit-identical to sequential        *)
(* ------------------------------------------------------------------ *)

(* workers = 0 + run_pending makes the batching deterministic: all N
   compatible what-ifs are queued when the (synchronous) worker pass
   starts, so they form one batch — and every reply must be
   byte-identical to the same frames run under coalesce = false. *)
let coalesce_identity =
  qtest ~count:25 "coalescing: batched replies == sequential replies"
    (arb_instance ~max_tasks:10 ())
    (fun i ->
      let text = Rtfmt.Appfile.to_string i.Helpers.app in
      let d0 = (Rtlb.App.task i.Helpers.app 0).Rtlb.Task.deadline in
      let n = 5 in
      let frames =
        List.init n (fun k ->
            frame
              [
                ("id", Json.Int k);
                ("op", Json.Str "whatif");
                ("app", Json.Str text);
                ( "edits",
                  Json.List
                    [
                      Json.Obj
                        [
                          ("task", Json.Int 0);
                          (* different edits per request: compatibility is
                             per instance, not per edit *)
                          ("deadline", Json.Int (d0 + 1 + k));
                        ];
                    ] );
              ])
      in
      let run ~coalesce =
        let tracer = Tracer.make () in
        let config =
          {
            (quick_config ()) with
            Server.workers = 0;
            jobs = 1;
            tracer;
            coalesce;
          }
        in
        let t = Server.create ~config () in
        Fun.protect ~finally:(fun () -> Server.shutdown t) @@ fun () ->
        let replies = Array.make n "" in
        List.iteri
          (fun k f -> Server.submit t f (fun r -> replies.(k) <- r))
          frames;
        Server.run_pending t;
        Array.iteri
          (fun k r -> if r = "" then Alcotest.failf "reply %d missing" k)
          replies;
        (replies, Tracer.counter tracer Tracer.Coalesced_queries)
      in
      let batched, coalesced = run ~coalesce:true in
      let sequential, uncoalesced = run ~coalesce:false in
      check_int "all n what-ifs shared one batch" (n - 1) coalesced;
      check_int "coalesce=false batches nothing" 0 uncoalesced;
      Array.iteri
        (fun k b ->
          if b <> sequential.(k) then
            Alcotest.failf "reply %d diverged under coalescing:\n%s\nvs\n%s" k
              b sequential.(k))
        batched;
      true)

(* priority admission: an explicit low-priority cold analysis queued
   first must not delay a warm what-if queued after it *)
let priority_orders_queue () =
  let tracer = Tracer.make () in
  let config =
    { (quick_config ()) with Server.workers = 0; jobs = 1; tracer }
  in
  with_server ~config (fun t ->
      let order = ref [] in
      let submit label fields =
        Server.submit t (frame fields) (fun _ -> order := label :: !order)
      in
      submit "cold-low"
        [
          ("op", Json.Str "analyze");
          ("app", Json.Str paper_text);
          ("priority", Json.Str "low");
        ];
      submit "check-auto-high"
        [ ("op", Json.Str "check"); ("app", Json.Str paper_text) ];
      submit "explicit-high"
        [
          ("op", Json.Str "analyze");
          ("app", Json.Str paper_text);
          ("priority", Json.Str "high");
        ];
      Server.run_pending t;
      check_bool "high-priority work ran before the cold analysis" true
        (!order = [ "cold-low"; "explicit-high"; "check-auto-high" ]))

(* ------------------------------------------------------------------ *)
(* Transports: Unix socket and TCP served simultaneously               *)
(* ------------------------------------------------------------------ *)

let tcp_and_unix () =
  let module Client = Rtlb_serve.Client in
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "rtlb-test-%d.sock" (Unix.getpid ()))
  in
  let t = Server.create ~config:(quick_config ()) () in
  let stop = Atomic.make false in
  let ready = ref [] in
  let m = Mutex.create () and c = Condition.create () in
  let server_thread =
    Thread.create
      (fun () ->
        Server.serve t
          ~on_ready:(fun addrs ->
            Mutex.lock m;
            ready := addrs;
            Condition.signal c;
            Mutex.unlock m)
          ~endpoints:[ Server.Unix_path path; Server.Tcp ("127.0.0.1", 0) ]
          ~stop:(fun () -> Atomic.get stop)
          ())
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Thread.join server_thread)
  @@ fun () ->
  Mutex.lock m;
  while !ready = [] do
    Condition.wait c m
  done;
  let addrs = !ready in
  Mutex.unlock m;
  (match addrs with
  | [ Unix.ADDR_UNIX p; Unix.ADDR_INET (_, port) ] ->
      check_string "unix endpoint reported" path p;
      check_bool "ephemeral TCP port resolved" true (port > 0)
  | _ -> Alcotest.fail "on_ready did not report both endpoints");
  let over_unix = Client.connect_unix ~retry_for:5.0 path in
  let over_tcp =
    match List.nth addrs 1 with
    | addr -> Client.connect_sockaddr ~retry_for:5.0 addr
  in
  Fun.protect
    ~finally:(fun () ->
      Client.close over_unix;
      Client.close over_tcp)
  @@ fun () ->
  check_bool "ping over unix" true (Client.ping over_unix);
  check_bool "ping over tcp" true (Client.ping over_tcp);
  let analyze client =
    match
      Client.call client
        (Json.Obj [ ("op", Json.Str "analyze"); ("app", Json.Str paper_text) ])
    with
    | Ok reply when is_ok reply -> result_line reply
    | Ok reply -> Alcotest.failf "analyze failed: %s" (error_code reply)
    | Error e -> Alcotest.failf "transport failure: %s" e
  in
  check_string "both transports serve identical answers" (analyze over_unix)
    (analyze over_tcp);
  (* pipelining with out-of-order completion still matches ids *)
  let replies =
    Client.pipeline over_tcp
      [
        Json.Obj [ ("op", Json.Str "ping") ];
        Json.Obj [ ("op", Json.Str "analyze"); ("app", Json.Str paper_text) ];
        Json.Obj [ ("op", Json.Str "ping") ];
      ]
  in
  check_int "pipeline answers everything" 3
    (List.length (List.filter Result.is_ok replies))

(* ------------------------------------------------------------------ *)
(* Chaos: the tenantflood directive                                    *)
(* ------------------------------------------------------------------ *)

let tenantflood_dsl () =
  (match Chaos.parse "tenantflood@3:5" with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok plan ->
      with_chaos plan (fun () ->
          check_int "other indices unaffected" 0 (Chaos.tenant_flood_burst 2);
          check_int "burst delivered at its index" 5
            (Chaos.tenant_flood_burst 3);
          check_int "one-shot: second probe gets nothing" 0
            (Chaos.tenant_flood_burst 3);
          check_int "fired counter" 1 (Chaos.fired_tenant_floods ())));
  (match Chaos.parse "tenantflood@1" with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok plan ->
      with_chaos plan (fun () ->
          check_int "default burst" 8 (Chaos.tenant_flood_burst 1)));
  (* round-trips through to_string, and bad specs are refused loudly *)
  (match Chaos.parse "tenantflood@2:3" with
  | Ok plan ->
      check_bool "to_string round-trips" true
        (string_contains ~needle:"tenantflood@2:3" (Chaos.to_string plan))
  | Error e -> Alcotest.failf "parse failed: %s" e);
  match Chaos.parse "tenantflood@x" with
  | Ok _ -> Alcotest.fail "malformed directive accepted"
  | Error _ -> ()

(* a flood burst from one tenant exhausts its bucket, collects S307s,
   and never starves the well-behaved tenant *)
let tenantflood_quota_storm () =
  let plan =
    match Chaos.parse "tenantflood@2:8" with
    | Ok p -> p
    | Error e -> Alcotest.failf "parse failed: %s" e
  in
  let tracer = Tracer.make () in
  let quota = Rtlb_serve.Quota.create ~rate_per_s:0.001 ~burst:2.0 () in
  let config = { (quick_config ()) with Server.tracer; quota = Some quota } in
  with_chaos plan (fun () ->
      with_server ~config (fun t ->
          let analyze tenant =
            request t
              (frame
                 [
                   ("op", Json.Str "analyze");
                   ("app", Json.Str paper_text);
                   ("tenant", Json.Str tenant);
                 ])
          in
          check_bool "steady tenant flows before the flood" true
            (is_ok (analyze "steady"));
          let s307 = ref 0 in
          for i = 0 to 4 do
            (* the armed plan floods (burst 8) at request index 2 only *)
            let burst = Chaos.tenant_flood_burst i in
            for _ = 1 to burst do
              let reply = analyze "flood" in
              if is_ok reply then ()
              else begin
                check_string "flood failures are structured S307" "S307"
                  (error_code reply);
                incr s307
              end
            done
          done;
          check_int "the flood fired" 1 (Chaos.fired_tenant_floods ());
          (* burst 2.0, no meaningful refill: 8 flood frames -> 2 admits *)
          check_int "the flood tenant was throttled" 6 !s307;
          check_bool "steady tenant still flows after the flood" true
            (is_ok (analyze "steady"));
          check_int "tracer agrees" !s307
            (Tracer.counter tracer Tracer.Quota_rejections);
          (* quota pressure never poisons the daemon *)
          check_bool "daemon alive" true
            (is_ok (request t (frame [ ("op", Json.Str "ping") ])))))

(* ---- resilience layer ------------------------------------------- *)

module Client = Rtlb_serve.Client
module Breaker = Rtlb_serve.Breaker
module Journal = Rtlb_serve.Journal
module Health = Rtlb_serve.Health

let temp_path suffix =
  let path = Filename.temp_file "rtlb_serve_test" suffix in
  Sys.remove path;
  path

(* satellite: the connect retry loop is jittered exponential backoff
   (was a fixed 5 ms sleep) and an exhausted budget surfaces the
   attempt count instead of the last bare Unix_error *)
let connect_backoff () =
  let path = temp_path ".sock" in
  (* nothing ever listens at [path] *)
  (match Client.connect_unix ~retry_for:0.25 path with
  | _ -> Alcotest.fail "connected to nothing"
  | exception Failure msg ->
      check_bool "attempt count surfaced" true
        (string_contains ~needle:"attempts" msg)
  | exception Unix.Unix_error _ ->
      Alcotest.fail "expected Failure naming the attempt count");
  (* [retry_for = 0] keeps the original contract: immediate raise *)
  match Client.connect_unix path with
  | _ -> Alcotest.fail "connected to nothing"
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* satellite: an error code this client build has never heard of (a
   newer daemon) decodes as a generic server error carrying the raw
   code — never a raise, never a client-breaking protocol addition *)
let decode_forward_compat () =
  let err_reply code =
    Json.Obj
      [
        ("id", Json.Int 1);
        ("ok", Json.Bool false);
        ( "error",
          Json.Obj
            [
              ("code", Json.Str code);
              ("name", Json.Str "mystery");
              ("message", Json.Str "from the future");
              ("retry_after_ms", Json.Int 7);
            ] );
      ]
  in
  (match Client.decode_error (err_reply "S303") with
  | Some e ->
      check_bool "known code decodes typed" true
        (e.Client.se_code = Some Protocol.Overloaded);
      check_bool "retry hint carried" true (e.Client.se_retry_after_ms = Some 7)
  | None -> Alcotest.fail "S303 reply not recognised as an error");
  (match Client.decode_error (err_reply "S399") with
  | Some e ->
      check_bool "unknown code -> generic variant" true (e.Client.se_code = None);
      check_string "raw code carried" "S399" e.Client.se_code_id;
      check_string "message carried" "from the future" e.Client.se_message
  | None -> Alcotest.fail "synthetic S399 reply not recognised as an error");
  check_bool "ok replies are not errors" true
    (Client.decode_error (Json.Obj [ ("ok", Json.Bool true) ]) = None);
  check_bool "total on junk" true (Client.decode_error Json.Null = None);
  (* ok:false with a malformed error object must still not raise *)
  check_bool "total on malformed errors" true
    (Client.decode_error (Json.Obj [ ("ok", Json.Bool false) ]) <> None)

(* the breaker state machine on a fake clock: closed -> open at the
   threshold -> half-open single probe after the cooldown -> closed on
   probe success / re-open on probe failure *)
let breaker_machine () =
  let now = ref 0L in
  let tracer = Tracer.make () in
  let b =
    Breaker.create
      ~now:(fun () -> !now)
      ~tracer ~threshold:2 ~cooldown_ms:100 ()
  in
  let at_ms ms = Int64.mul (Int64.of_int ms) 1_000_000L in
  check_bool "closed: proceed" true (Breaker.check b "k" = Breaker.Proceed);
  Breaker.failure b "k";
  check_bool "below threshold: still closed" true
    (Breaker.check b "k" = Breaker.Proceed);
  Breaker.failure b "k";
  check_int "trip counted" 1 (Tracer.counter tracer Tracer.Breaker_opens);
  (match Breaker.check b "k" with
  | Breaker.Fast_fail { retry_after_ms } ->
      check_bool "hint within the cooldown" true
        (retry_after_ms >= 1 && retry_after_ms <= 100)
  | _ -> Alcotest.fail "open breaker must fast-fail");
  check_int "open_count sees it" 1 (Breaker.open_count b);
  check_bool "other fingerprints unaffected" true
    (Breaker.check b "other" = Breaker.Proceed);
  now := at_ms 101;
  check_bool "cooldown elapsed: single probe" true
    (Breaker.check b "k" = Breaker.Probe);
  check_int "probe counted" 1 (Tracer.counter tracer Tracer.Breaker_probes);
  (match Breaker.check b "k" with
  | Breaker.Fast_fail _ -> ()
  | _ -> Alcotest.fail "probe in flight: everyone else fast-fails");
  Breaker.failure b "k";
  (match Breaker.check b "k" with
  | Breaker.Fast_fail _ -> ()
  | _ -> Alcotest.fail "failed probe re-opens");
  check_int "re-open counted" 2 (Tracer.counter tracer Tracer.Breaker_opens);
  now := at_ms 300;
  check_bool "second probe window" true (Breaker.check b "k" = Breaker.Probe);
  Breaker.success b "k";
  check_bool "probe success closes" true (Breaker.check b "k" = Breaker.Proceed);
  check_int "nothing open" 0 (Breaker.open_count b)

(* S308 end to end: an instance that keeps failing analysis trips its
   breaker at admission; unrelated requests and the ping/stats ops
   never consult it *)
let breaker_s308 () =
  let tracer = Tracer.make () in
  let breaker = Breaker.create ~tracer ~threshold:2 ~cooldown_ms:60 () in
  let config =
    { (quick_config ()) with Server.tracer; breaker = Some breaker }
  in
  with_server ~config (fun t ->
      let bad () =
        request t
          (frame [ ("op", Json.Str "analyze"); ("app", Json.Str "garbage") ])
      in
      check_string "first failure: S302" "S302" (error_code (bad ()));
      check_string "second failure: S302" "S302" (error_code (bad ()));
      let tripped = bad () in
      check_string "third request fast-fails" "S308" (error_code tripped);
      (match Client.decode_error tripped with
      | Some e ->
          check_bool "S308 carries a retry hint" true
            (e.Client.se_retry_after_ms <> None);
          check_bool "decodes as Circuit_open" true
            (e.Client.se_code = Some Protocol.Circuit_open)
      | None -> Alcotest.fail "S308 reply did not decode");
      check_bool "healthy instances flow" true
        (is_ok
           (request t
              (frame
                 [ ("op", Json.Str "analyze"); ("app", Json.Str paper_text) ])));
      check_bool "ping never consults the breaker" true
        (is_ok (request t (frame [ ("op", Json.Str "ping") ])));
      (* cooldown over: exactly one probe goes through (and fails
         again, re-opening) *)
      ignore (Unix.select [] [] [] 0.08);
      check_string "probe re-runs the analysis" "S302" (error_code (bad ()));
      check_string "failed probe re-opens" "S308" (error_code (bad ()));
      check_bool "breaker trips counted" true
        (Tracer.counter tracer Tracer.Breaker_opens >= 2))

(* journal: record/reopen round-trip, recency order, dedup,
   capacity trim, compaction *)
let journal_roundtrip () =
  let path = temp_path ".journal" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let j = Journal.open_ ~capacity:3 path in
  Journal.record j ~app:"a";
  Journal.record j ~app:"b";
  Journal.record j ~app:"c";
  Journal.record j ~app:"a";
  (* refresh: moves to front *)
  Journal.record j ~app:"a";
  (* duplicate head: no-op *)
  check_int "recency-deduped length" 3 (Journal.length j);
  (match Journal.entries j with
  | [ e1; e2; e3 ] ->
      check_string "most recent first" "a" e1.Journal.je_app;
      check_string "then c" "c" e2.Journal.je_app;
      check_string "then the oldest" "b" e3.Journal.je_app
  | es -> Alcotest.failf "expected 3 entries, got %d" (List.length es));
  Journal.close j;
  let j2 = Journal.open_ ~capacity:3 path in
  check_int "reopen preserves the live set" 3 (Journal.length j2);
  check_int "clean file: nothing dropped" 0 (Journal.dropped_tail j2);
  (* capacity trim on reopen *)
  Journal.close j2;
  let j3 = Journal.open_ ~capacity:1 path in
  check_int "tighter capacity trims to most recent" 1 (Journal.length j3);
  (match Journal.entries j3 with
  | [ e ] -> check_string "the survivor is the most recent" "a" e.Journal.je_app
  | _ -> Alcotest.fail "expected 1 entry");
  (* compaction: enough distinct appends to pass max(2*cap, 8) *)
  for i = 0 to 11 do
    Journal.record j3 ~app:(Printf.sprintf "app%d" i)
  done;
  Journal.close j3;
  let stat = Unix.stat path in
  check_bool "log-structured file stays bounded" true
    (stat.Unix.st_size < 4096);
  let j4 = Journal.open_ ~capacity:8 path in
  check_bool "compacted journal reopens clean" true
    (Journal.length j4 >= 1 && Journal.dropped_tail j4 = 0);
  Journal.close j4

(* corrupt tails: garbage lines, checksum mismatches and torn appends
   are dropped together with everything after them, and the clean
   prefix is repaired in place *)
let journal_corrupt_tail () =
  let path = temp_path ".journal" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let j = Journal.open_ ~capacity:4 path in
  Journal.record j ~app:"keep1";
  Journal.record j ~app:"keep2";
  Journal.close j;
  (* a torn append: valid-looking JSON with no trailing newline *)
  let append s =
    let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
    output_string oc s;
    close_out oc
  in
  append "{\"sum\": \"deadbeef\"";
  let j2 = Journal.open_ ~capacity:4 path in
  check_int "torn tail dropped" 1 (Journal.dropped_tail j2);
  check_int "clean prefix kept" 2 (Journal.length j2);
  Journal.close j2;
  (* the repair rewrote the file: reopening is clean again *)
  let j3 = Journal.open_ ~capacity:4 path in
  check_int "repaired file reopens clean" 0 (Journal.dropped_tail j3);
  Journal.close j3;
  (* a checksum mismatch mid-file poisons everything after it *)
  append
    "{\"sum\": \"00000000000000000000000000000000\",\"engine\": \
     \"record\",\"app\": \"evil\"}\n";
  append
    (Rtfmt.Json.to_string ~indent:false
       (Json.Obj
          [
            ("sum", Json.Str (Digest.to_hex (Digest.string "record\x00late")));
            ("engine", Json.Str "record");
            ("app", Json.Str "late");
          ])
    ^ "\n");
  let j4 = Journal.open_ ~capacity:4 path in
  check_int "bad checksum drops itself and the rest" 2
    (Journal.dropped_tail j4);
  check_int "only the trusted prefix survives" 2 (Journal.length j4);
  Journal.close j4;
  (* a corrupt header distrusts the whole file *)
  let oc = open_out_bin path in
  output_string oc "not a journal\n{\"sum\": \"x\"}\n";
  close_out oc;
  let j5 = Journal.open_ ~capacity:4 path in
  check_int "corrupt header: nothing trusted" 0 (Journal.length j5);
  check_bool "everything counted as dropped" true (Journal.dropped_tail j5 >= 2);
  Journal.close j5

(* A journal record as the v1 writer renders it: the sum covers
   [sum_tag] (the record's own tag unless a test forges it), a NUL byte
   and the text. *)
let v1_record ?sum_tag ~tag app =
  let sum_tag = Option.value sum_tag ~default:tag in
  let sum = Digest.to_hex (Digest.string (sum_tag ^ "\x00" ^ app)) in
  Rtfmt.Json.to_string ~indent:false
    (Json.Obj
       [
         ("sum", Json.Str sum);
         ("engine", Json.Str tag);
         ("app", Json.Str app);
       ])
  ^ "\n"

(* A v1 journal from the days of two what-if engines: one text under
   both tags, then a second text.  Each record is checked against its
   own tag, and the two tags of one text are one instance. *)
let journal_v1_both_tags () =
  let path = temp_path ".journal" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let other =
    Rtfmt.Appfile.to_string
      (Workload.Gen.layered_frames ~seed:5 ~frames:1 ~tasks_per_frame:12 ())
  in
  let oc = open_out_bin path in
  output_string oc
    ("rtlb-journal v1\n"
    ^ v1_record ~tag:"record" paper_text
    ^ v1_record ~tag:"soa" paper_text
    ^ v1_record ~tag:"record" other);
  close_out oc;
  let journal = Journal.open_ ~capacity:4 path in
  check_int "opens clean" 0 (Journal.dropped_tail journal);
  check_int "two instances" 2 (Journal.length journal);
  check_bool "most recent first" true
    (List.map (fun e -> e.Journal.je_app) (Journal.entries journal)
    = [ other; paper_text ]);
  let tracer = Tracer.make () in
  let t =
    Server.create
      ~config:
        {
          Server.default_config with
          Server.workers = 0;
          jobs = 1;
          tracer;
          journal = Some journal;
        }
      ()
  in
  Server.run_pending t;
  Server.shutdown t;
  Journal.close journal;
  check_int "two replays" 2 (Tracer.counter tracer Tracer.Journal_replays);
  (* a "soa" record whose sum was taken over the other tag is corrupt *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc (v1_record ~sum_tag:"record" ~tag:"soa" "forged");
  close_out oc;
  let j = Journal.open_ ~capacity:4 path in
  check_int "checked against its own tag" 1 (Journal.dropped_tail j);
  check_int "the two instances stay" 2 (Journal.length j);
  Journal.close j

(* New records keep the bytes a v1 reader checks: tag "record" and a
   sum over "record", NUL, text. *)
let journal_writes_v1 () =
  let path = temp_path ".journal" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let app = "task A compute=1 release=0 deadline=4 proc=P1" in
  let j = Journal.open_ ~capacity:4 path in
  Journal.record j ~app;
  Journal.close j;
  let ic = open_in_bin path in
  let content = really_input_string ic (in_channel_length ic) in
  close_in ic;
  check_string "header and one v1 record"
    (Printf.sprintf
       "rtlb-journal v1\n\
        {\"sum\": \"%s\",\"engine\": \"record\",\"app\": \"%s\"}\n"
       (Digest.to_hex (Digest.string ("record\x00" ^ app)))
       app)
    content

(* chaos: the journalcorrupt directive garbles the tail exactly once,
   and the next open drops it — never trusts it *)
let journal_chaos_corrupt () =
  let path = temp_path ".journal" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let plan =
    match Chaos.parse "journalcorrupt@1" with
    | Ok p -> p
    | Error e -> Alcotest.failf "parse failed: %s" e
  in
  with_chaos plan (fun () ->
      let j = Journal.open_ ~capacity:4 path in
      Journal.record j ~app:"first";
      Journal.record j ~app:"second";
      (* append #1: garbled after the record *)
      Journal.record j ~app:"third";
      Journal.close j;
      check_int "the corruption fired once" 1 (Chaos.fired_journal_corrupts ()));
  let j2 = Journal.open_ ~capacity:4 path in
  check_bool "the garbled tail was dropped, not trusted" true
    (Journal.dropped_tail j2 >= 1);
  (* "second"'s record line itself is intact (the garbage follows its
     newline), so only the debris and anything after it are lost *)
  check_bool "the trusted prefix survives" true (Journal.length j2 >= 2);
  Journal.close j2

let resilience_dsl () =
  (match Chaos.parse "killserver@3,journalcorrupt@2" with
  | Ok plan ->
      check_bool "killserver round-trips" true
        (string_contains ~needle:"killserver@3" (Chaos.to_string plan));
      check_bool "journalcorrupt round-trips" true
        (string_contains ~needle:"journalcorrupt@2" (Chaos.to_string plan));
      with_chaos plan (fun () ->
          check_bool "wrong index: no fire" true (not (Chaos.server_kill 2));
          check_bool "right index fires" true (Chaos.server_kill 3);
          check_bool "budget is one-shot" true (not (Chaos.server_kill 3));
          check_int "fired counter" 1 (Chaos.fired_server_kills ()))
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match Chaos.parse "killserver@x" with
  | Ok _ -> Alcotest.fail "malformed killserver accepted"
  | Error _ -> ());
  match Chaos.parse "journalcorrupt@0x3" with
  | Ok _ -> Alcotest.fail "non-decimal payload accepted"
  | Error _ -> ()

(* the health op, the health file protocol, and the extended stats
   fields (uptime_ms / cache_entries / journal_entries) *)
let health_and_stats () =
  let health_path = temp_path ".health" in
  let journal_path = temp_path ".journal" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ health_path; journal_path ])
  @@ fun () ->
  Health.write ~path:health_path Health.Ready;
  check_bool "health file round-trips" true
    (Health.read ~path:health_path = Some Health.Ready);
  Health.write ~path:health_path Health.Degraded;
  check_bool "degraded round-trips" true
    (Health.read ~path:health_path = Some Health.Degraded);
  check_bool "unknown words are not a state" true
    (Health.state_of_name "sideways" = None);
  let journal = Journal.open_ ~capacity:4 journal_path in
  let config =
    {
      (quick_config ()) with
      Server.journal = Some journal;
      health_file = Some health_path;
      generation = 2;
    }
  in
  let t = Server.create ~config () in
  Fun.protect ~finally:(fun () ->
      Server.shutdown t;
      Journal.close journal)
  @@ fun () ->
  let reply = request t (frame [ ("op", Json.Str "health") ]) in
  check_bool "health op answers ok" true (is_ok reply);
  let result = Json.member "result" reply in
  check_bool "status is ready" true
    (Json.member "status" result = Json.Str "ready");
  check_bool "generation reported" true
    (Json.member "generation" result = Json.Int 2);
  (match Json.member "uptime_ms" result with
  | Json.Int ms -> check_bool "uptime sane" true (ms >= 0)
  | _ -> Alcotest.fail "uptime_ms missing from health");
  check_bool "an analyze lands in the journal" true
    (is_ok
       (request t
          (frame [ ("op", Json.Str "analyze"); ("app", Json.Str paper_text) ])));
  let stats = request t (frame [ ("op", Json.Str "stats") ]) in
  let sresult = Json.member "result" stats in
  (match Json.member "uptime_ms" sresult with
  | Json.Int ms -> check_bool "stats uptime sane" true (ms >= 0)
  | _ -> Alcotest.fail "uptime_ms missing from stats");
  check_bool "cache_entries pinned" true
    (Json.member "cache_entries" sresult = Json.Int 1);
  check_bool "journal_entries pinned" true
    (Json.member "journal_entries" sresult = Json.Int 1);
  (* server restarts surface as the generation-seeded counter *)
  (match Json.member "server_restarts" sresult with
  | Json.Int n -> check_int "generation seeds server_restarts" 2 n
  | _ -> Alcotest.fail "server_restarts missing from stats");
  Server.drain t;
  check_bool "drain writes the health file" true
    (Health.read ~path:health_path = Some Health.Draining)

(* satellite: qcheck the cache's checkout/checkin discipline against a
   reference LRU model — eviction racing a checked-out handle must
   never hand out a discarded handle, and the eviction counter must
   stay consistent *)
let cache_race_ops =
  let tiny =
    Rtfmt.Appfile.parse
      "task A compute=1 release=0 deadline=4 proc=P1\n\
       task B compute=1 release=0 deadline=4 proc=P1\n"
  in
  let tiny_app = tiny.Rtfmt.Appfile.app in
  let tiny_sys =
    match tiny.Rtfmt.Appfile.system with
    | Some s -> s
    | None -> uniform tiny_app
  in
  let keys = [| "k0"; "k1"; "k2"; "k3" |] in
  let interp ops =
    let tracer = Tracer.make () in
    let cache = Cache.create ~tracer ~capacity:2 () in
    (* model state: LRU order (most recent first) and checked-out
       handles, both tagged with physical identity; the checked-out
       keys are exactly the keys the cache holds claims on *)
    let resident = ref [] (* (key, handle) *) in
    let out = ref [] in
    let discarded = ref [] in
    let evictions = ref 0 in
    let ok = ref true in
    let assert_ cond = if not cond then ok := false in
    List.iter
      (fun (op, ki) ->
        let k = keys.(ki mod Array.length keys) in
        (match op mod 3 with
        | 0 -> (
            (* acquire: checkout, cold-build on miss *)
            if not (List.mem_assoc k !out) then
              match Cache.checkout cache k ~text:k with
              | Some h ->
                  assert_ (List.mem_assoc k !resident);
                  assert_ (not (List.exists (fun d -> d == h) !discarded));
                  assert_ (
                    match List.assoc_opt k !resident with
                    | Some m -> m == h
                    | None -> false);
                  resident := List.remove_assoc k !resident;
                  out := (k, h) :: !out
              | None ->
                  assert_ (not (List.mem_assoc k !resident));
                  let h = Rtlb.Incremental.create tiny_sys tiny_app in
                  out := (k, h) :: !out)
        | 1 -> (
            (* release: checkin; model the capacity eviction *)
            match List.assoc_opt k !out with
            | Some h ->
                out := List.remove_assoc k !out;
                Cache.checkin cache k ~text:k h;
                resident := (k, h) :: List.remove_assoc k !resident;
                let rec split n = function
                  | [] -> ([], [])
                  | l when n = 0 -> ([], l)
                  | x :: rest ->
                      let keep, drop = split (n - 1) rest in
                      (x :: keep, drop)
                in
                let keep, drop = split 2 !resident in
                resident := keep;
                List.iter
                  (fun (_, h) ->
                    discarded := h :: !discarded;
                    incr evictions)
                  drop
            | None -> ())
        | _ -> (
            (* crash: a checked-out handle is never checked back in *)
            match List.assoc_opt k !out with
            | Some h ->
                out := List.remove_assoc k !out;
                Cache.discard cache k;
                discarded := h :: !discarded;
                incr evictions
            | None -> ()));
        (* a key is a member while resident or held *)
        Array.iter
          (fun k ->
            assert_
              (Cache.mem cache k
              = (List.mem_assoc k !resident || List.mem_assoc k !out)))
          keys)
      ops;
    assert_ (Cache.length cache = List.length !resident);
    assert_ (Tracer.counter tracer Tracer.Evictions = !evictions);
    (* every still-resident key must hand back exactly the modelled
       handle, never a discarded one *)
    List.iter
      (fun (k, h) ->
        match Cache.checkout cache k ~text:k with
        | Some got -> assert_ (got == h)
        | None -> assert_ false)
      !resident;
    !ok
  in
  qtest ~count:60 "cache: eviction vs checkout discipline (model-based)"
    QCheck.(
      list_of_size Gen.(int_range 1 40) (pair (int_bound 2) (int_bound 3)))
    interp

(* ------------------------------------------------------------------ *)
(* Claims: a handle per text, one cold build per text                  *)
(* ------------------------------------------------------------------ *)

(* An entry is a hit only for its own text, a claim makes a second
   checkout of the key wait, and ending the claim wakes it. *)
let cache_text_and_claims () =
  let tracer = Tracer.make () in
  let cache = Cache.create ~tracer ~capacity:2 () in
  let handle = Rtlb.Incremental.create (uniform paper) paper in
  Cache.checkin cache "k" ~text:"text A" handle;
  check_bool "another text under the same key is a miss" true
    (Cache.checkout cache "k" ~text:"text B" = None);
  check_bool "a claimed key is a member" true (Cache.mem cache "k");
  Cache.release cache "k";
  check_bool "the stored text still hits" true
    (match Cache.checkout cache "k" ~text:"text A" with
    | Some h -> h == handle
    | None -> false);
  check_int "a checked-out handle is not resident" 0 (Cache.length cache);
  check_bool "a checked-out key is a member" true (Cache.mem cache "k");
  (* a second checkout of the held key waits for the checkin *)
  let got = Atomic.make None in
  let waiter =
    Thread.create
      (fun () -> Atomic.set got (Some (Cache.checkout cache "k" ~text:"text A")))
      ()
  in
  Thread.delay 0.05;
  check_bool "a checkout of a held key waits" true (Atomic.get got = None);
  Cache.checkin cache "k" ~text:"text A" handle;
  Thread.join waiter;
  check_bool "the checkin wakes it with the handle" true
    (match Atomic.get got with Some (Some h) -> h == handle | _ -> false);
  (* a discard ends the claim too, and the next checkout misses *)
  Cache.discard cache "k";
  check_int "the discard counts an eviction" 1
    (Tracer.counter tracer Tracer.Evictions);
  check_bool "nothing is resident after a discard" true
    (Cache.checkout cache "k" ~text:"text A" = None);
  Cache.release cache "k";
  check_bool "no claim, no entry: not a member" false (Cache.mem cache "k");
  (* a checkin under the key replaces the other text's entry *)
  Cache.checkin cache "k" ~text:"text A" handle;
  Cache.checkin cache "k" ~text:"text B" handle;
  check_int "one entry per key" 1 (Cache.length cache);
  check_bool "the replaced text misses" true
    (Cache.checkout cache "k" ~text:"text A" = None);
  Cache.release cache "k"

(* A 300-task frame instance and its text, system included. *)
let frames_text seed =
  let app = Workload.Gen.layered_frames ~seed ~frames:3 () in
  let system = Workload.Gen.frame_system () in
  (system, app, Rtfmt.Appfile.to_string ~system app)

let edit_json = function
  | Rtlb.Incremental.Set_deadline { task; deadline } ->
      Json.Obj [ ("task", Json.Int task); ("deadline", Json.Int deadline) ]
  | Rtlb.Incremental.Set_release { task; release } ->
      Json.Obj [ ("task", Json.Int task); ("release", Json.Int release) ]
  | Rtlb.Incremental.Set_compute { task; compute } ->
      Json.Obj [ ("task", Json.Int task); ("compute", Json.Int compute) ]

let whatif_frame ~id text edits =
  frame
    [
      ("id", Json.Int id);
      ("op", Json.Str "whatif");
      ("app", Json.Str text);
      ("edits", Json.List (List.map edit_json edits));
    ]

(* The reply a what-if must get: a cold analysis of the base and of the
   edited instance, through the daemon's encoders. *)
let whatif_reference ~id system app edits =
  Protocol.to_line
    (Protocol.ok_reply ~id:(Json.Int id) ~op:Protocol.Whatif
       (Json.of_whatif
          ~base:(Rtlb.Analysis.run system app)
          ~edited:(Rtlb.Analysis.run system (Rtlb.Incremental.apply app edits))))

let submit_async t line =
  let slot = Atomic.make None in
  Server.submit t line (fun r -> Atomic.set slot (Some r));
  slot

(* Poll [cond] every millisecond for up to [timeout_s]. *)
let poll ~timeout_s cond =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    cond ()
    || (Unix.gettimeofday () -. t0 <= timeout_s && (Thread.delay 0.001; go ()))
  in
  go ()

(* Fail rather than hang: a claim that never ends blocks its waiters
   for good. *)
let wait_until what cond =
  if not (poll ~timeout_s:30.0 cond) then Alcotest.failf "%s: not after 30 s" what

let await what slot =
  wait_until what (fun () -> Atomic.get slot <> None);
  Option.get (Atomic.get slot)

let queue_empty t () =
  Json.member "queue_depth" (Server.stats_snapshot t) = Json.Int 0

(* With two workers, the first what-if of a new text is held inside its
   cold build until the other worker has taken a second what-if of the
   same text.  The second must wait for the handle: a daemon that
   cold-builds on every miss builds the text twice here. *)
let race_one_cold_build () =
  let system, app, text = frames_text 21 in
  let d0 = (Rtlb.App.task app 0).Rtlb.Task.deadline in
  let edits k = [ Rtlb.Incremental.Set_deadline { task = 0; deadline = d0 + k } ] in
  let tracer = Tracer.make () in
  let config =
    { Server.default_config with Server.workers = 2; jobs = 1; tracer }
  in
  (* the first thread to run a work item is held there; any other
     thread's item while it is held is a duplicate build *)
  let m = Mutex.create () and c = Condition.create () in
  let holder = ref None and released = ref false and duplicate = ref false in
  let locked f =
    Mutex.lock m;
    Fun.protect ~finally:(fun () -> Mutex.unlock m) f
  in
  Rtlb_par.Pool.For_testing.inject :=
    Some
      (fun _ ->
        let self = Thread.id (Thread.self ()) in
        locked (fun () ->
            match !holder with
            | None ->
                holder := Some self;
                while not !released do
                  Condition.wait c m
                done
            | Some h when h = self -> ()
            | Some _ -> if not !released then duplicate := true));
  let release () =
    locked (fun () ->
        released := true;
        Condition.broadcast c)
  in
  Fun.protect
    ~finally:(fun () ->
      release ();
      Rtlb_par.Pool.For_testing.reset ())
  @@ fun () ->
  let t = Server.create ~config () in
  let r1 = submit_async t (whatif_frame ~id:1 text (edits 1)) in
  wait_until "request 1 is inside its cold build" (fun () ->
      locked (fun () -> !holder <> None));
  let r2 = submit_async t (whatif_frame ~id:2 text (edits 2)) in
  wait_until "the other worker took request 2" (queue_empty t);
  (* time to reach the checkout; a duplicate build shows at once *)
  ignore (poll ~timeout_s:0.3 (fun () -> locked (fun () -> !duplicate)) : bool);
  release ();
  let l1 = await "reply 1" r1 and l2 = await "reply 2" r2 in
  Server.shutdown t;
  check_int "one cold build for the text" 1
    (Tracer.counter tracer Tracer.Cold_builds);
  check_bool "no duplicate build ran while the first was held" false !duplicate;
  check_string "reply 1 = cold reference" (whatif_reference ~id:1 system app (edits 1)) l1;
  check_string "reply 2 = cold reference" (whatif_reference ~id:2 system app (edits 2)) l2

(* The test thread holds a text's claim while two workers take one
   frame each for that text, then releases it with nothing checked in.
   The workers claim in turn; whichever holds the key second must be
   woken when the first ends its claim.  Returns both replies. *)
let behind_claim t text f1 f2 =
  let key = Digest.string text in
  ignore (Cache.checkout (Server.cache t) key ~text : Rtlb.Incremental.t option);
  let r1 = submit_async t f1 and r2 = submit_async t f2 in
  wait_until "both workers took a frame" (queue_empty t);
  Thread.delay 0.05;
  check_bool "no reply while the claim is held" true
    (Atomic.get r1 = None && Atomic.get r2 = None);
  Cache.release (Server.cache t) key;
  (await "reply 1" r1, await "reply 2" r2)

let race_holder_fails () =
  let tracer = Tracer.make () in
  let config =
    { Server.default_config with Server.workers = 2; jobs = 1; tracer }
  in
  let t = Server.create ~config () in
  let text = "task T1 oops\n" in
  let analyze id =
    frame [ ("id", Json.Int id); ("op", Json.Str "analyze"); ("app", Json.Str text) ]
  in
  let l1, l2 = behind_claim t text (analyze 1) (analyze 2) in
  Server.shutdown t;
  check_string "holder answered S302" "S302" (error_code (Json.parse l1));
  check_string "waiter answered S302" "S302" (error_code (Json.parse l2));
  check_int "nothing was built" 0 (Tracer.counter tracer Tracer.Cold_builds);
  check_int "nothing was cached" 0 (Cache.length (Server.cache t))

let race_holder_budget_cut () =
  let system, app, text = frames_text 22 in
  let tracer = Tracer.make () in
  let config =
    { Server.default_config with Server.workers = 2; jobs = 1; tracer }
  in
  let t = Server.create ~config () in
  let analyze ?deadline_ms id =
    frame
      ([ ("id", Json.Int id); ("op", Json.Str "analyze"); ("app", Json.Str text) ]
      @ List.map (fun ms -> ("deadline_ms", Json.Int ms)) (Option.to_list deadline_ms))
  in
  let reference id analysis =
    Protocol.to_line
      (Protocol.ok_reply ~id:(Json.Int id) ~op:Protocol.Analyze
         (Json.of_analysis analysis))
  in
  (* an expired budget scans nothing: the partial base is deterministic *)
  let cut = Rtlb.Incremental.base (Rtlb.Incremental.create ~deadline_ns:0L system app) in
  check_bool "the reference is partial" true (Rtlb.Analysis.is_partial cut);
  let l1, l2 =
    behind_claim t text (analyze ~deadline_ms:0 1) (analyze ~deadline_ms:0 2)
  in
  check_string "holder: budget-cut reply" (reference 1 cut) l1;
  check_string "waiter: woken, its own budget-cut reply" (reference 2 cut) l2;
  check_int "each built (partial handles are never checked in)" 2
    (Tracer.counter tracer Tracer.Cold_builds);
  check_int "nothing was cached" 0 (Cache.length (Server.cache t));
  let full = request_line t (analyze 3) in
  Server.shutdown t;
  check_string "a full request then builds and answers in full"
    (reference 3 (Rtlb.Analysis.run system app)) full;
  check_int "with a third build" 3 (Tracer.counter tracer Tracer.Cold_builds)

(* raise@0 crashes the first work item anywhere.  In a cold
   build it crashes the attempt that holds the text's claim; in a warm
   edit, the attempt that checked the handle out.  Each supervised
   retry must claim the key again, not wait on its own claim. *)
let race_retry_holds_key () =
  let system, app, text = frames_text 23 in
  let d0 = (Rtlb.App.task app 0).Rtlb.Task.deadline in
  let edits k = [ Rtlb.Incremental.Set_deadline { task = 0; deadline = d0 + k } ] in
  let tracer = Tracer.make () in
  let config =
    { Server.default_config with Server.workers = 2; jobs = 1; tracer }
  in
  let t = Server.create ~config () in
  let raise_once f =
    match Chaos.parse "raise@0" with
    | Ok plan -> with_chaos plan f
    | Error m -> Alcotest.fail m
  in
  let cold =
    raise_once (fun () -> await "cold reply" (submit_async t (whatif_frame ~id:1 text (edits 1))))
  in
  check_string "cold what-if retried to the reference"
    (whatif_reference ~id:1 system app (edits 1)) cold;
  check_int "the crashed build and its retry" 2
    (Tracer.counter tracer Tracer.Cold_builds);
  (* a smaller compute rescans a block, so the warm edit runs an item *)
  let shrink =
    [
      Rtlb.Incremental.Set_compute
        { task = 0; compute = (Rtlb.App.task app 0).Rtlb.Task.compute - 1 };
    ]
  in
  let warm =
    raise_once (fun () -> await "warm reply" (submit_async t (whatif_frame ~id:2 text shrink)))
  in
  Server.shutdown t;
  check_string "warm what-if retried to the reference"
    (whatif_reference ~id:2 system app shrink) warm;
  check_int "two retries" 2 (Tracer.counter tracer Tracer.Retries);
  check_int "the crashed warm handle was discarded" 1
    (Tracer.counter tracer Tracer.Evictions);
  check_int "and rebuilt by the retry" 3
    (Tracer.counter tracer Tracer.Cold_builds)

(* Two texts of one instance (one with a comment line and CRLF line
   ends) get a handle each; their what-ifs, interleaved over two
   workers, all answer exactly the cold reference. *)
let text_keys_answers =
  qtest ~count:25 "text keys: two texts of one instance, answers unchanged"
    QCheck.(
      pair (arb_instance ~max_tasks:10 ())
        (list_of_size Gen.(int_range 2 8) (pair small_nat (int_range 1 6))))
    (fun (i, raw) ->
      let app = i.Helpers.app in
      let system = uniform app in
      let n = Rtlb.App.n_tasks app in
      let text_a = Rtfmt.Appfile.to_string app in
      let text_b =
        "# the same instance\r\n"
        ^ String.concat "\r\n" (String.split_on_char '\n' text_a)
      in
      let edits (k, delta) =
        let task = Rtlb.App.task app (k mod n) in
        let id = task.Rtlb.Task.id in
        if delta mod 2 = 1 then
          [ Rtlb.Incremental.Set_deadline { task = id; deadline = task.Rtlb.Task.deadline + delta } ]
        else
          [
            Rtlb.Incremental.Set_compute
              { task = id; compute = max 0 (task.Rtlb.Task.compute - 1) };
            Rtlb.Incremental.Set_deadline { task = id; deadline = task.Rtlb.Task.deadline + delta };
          ]
      in
      let tracer = Tracer.make () in
      let config =
        { Server.default_config with Server.workers = 2; jobs = 1; tracer }
      in
      let t = Server.create ~config () in
      let text id = if id mod 2 = 0 then text_a else text_b in
      let slots =
        List.mapi
          (fun id r -> (id, edits r, submit_async t (whatif_frame ~id (text id) (edits r))))
          raw
      in
      let replies = List.map (fun (id, e, slot) -> (id, e, await "reply" slot)) slots in
      Server.shutdown t;
      List.iter
        (fun (id, e, line) ->
          check_string
            (Printf.sprintf "reply %d = cold reference" id)
            (whatif_reference ~id system app e) line)
        replies;
      check_int "one cold build per text"
        (List.length (List.sort_uniq compare (List.mapi (fun id _ -> text id) raw)))
        (Tracer.counter tracer Tracer.Cold_builds);
      true)

(* Allocation pin for one warm what-if.  One request per
   [run_pending], so nothing coalesces.  On a warm 300-task handle a
   what-if of task 10's deadline has a small cone, so the fixed
   per-request work weighs: 23.5 K minor words, and a parse and a
   fingerprint of the text would add 15 K, so its 35 K bound fails if a
   warm hit parses.  Tasks 0, 99, 100 and 199 begin and end frames;
   their deadline moves a window that rescans blocks: 31–35 K, under a
   50 K bound. *)
let warm_whatif_alloc () =
  let _, app, text = frames_text 5 in
  let tracer = Tracer.make () in
  let config =
    { Server.default_config with Server.workers = 0; jobs = 1; tracer }
  in
  let t = Server.create ~config () in
  let sink = ref "" in
  Server.submit t
    (frame [ ("id", Json.Int 0); ("op", Json.Str "analyze"); ("app", Json.Str text) ])
    (fun r -> sink := r);
  Server.run_pending t;
  let words id =
    let task = Rtlb.App.task app id in
    List.map
      (fun k ->
        let line =
          whatif_frame ~id:k text
            [
              Rtlb.Incremental.Set_deadline
                { task = task.Rtlb.Task.id; deadline = task.Rtlb.Task.deadline + k };
            ]
        in
        let before = Gc.minor_words () in
        Server.submit t line (fun r -> sink := r);
        Server.run_pending t;
        let w = Gc.minor_words () -. before in
        check_bool "the what-if answered" true (is_ok (Json.parse !sink));
        (id, w))
      [ 1; 2; 3; 4 ]
  in
  let words = List.concat_map words [ 10; 0; 99; 100; 199 ] in
  Server.shutdown t;
  check_int "only the analyze built" 1 (Tracer.counter tracer Tracer.Cold_builds);
  List.iter
    (fun (id, w) ->
      let bound = if id = 10 then 35_000.0 else 50_000.0 in
      if w > bound then
        Alcotest.failf "a warm what-if of task %d allocated %.0f minor words (bound %.0f)"
          id w bound)
    words

(* A what-if the daemon rejects (S301: task 5000 of 300) is the
   request's fault: its edit is validated before the handle changes, so
   the warm handle goes back to the cache and the next what-if of the
   text answers from it. *)
let rejected_edit_keeps_handle () =
  let system, app, text = frames_text 5 in
  let tracer = Tracer.make () in
  let config =
    { Server.default_config with Server.workers = 0; jobs = 1; tracer }
  in
  let t = Server.create ~config () in
  let reply line =
    let sink = ref "" in
    Server.submit t line (fun r -> sink := r);
    Server.run_pending t;
    !sink
  in
  ignore
    (reply
       (frame [ ("id", Json.Int 0); ("op", Json.Str "analyze"); ("app", Json.Str text) ])
      : string);
  let bad = [ Rtlb.Incremental.Set_deadline { task = 5000; deadline = 1 } ] in
  check_string "out-of-range edit -> S301" "S301"
    (error_code (Json.parse (reply (whatif_frame ~id:1 text bad))));
  let d0 = (Rtlb.App.task app 5).Rtlb.Task.deadline in
  let good = [ Rtlb.Incremental.Set_deadline { task = 5; deadline = d0 + 2 } ] in
  let l2 = reply (whatif_frame ~id:2 text good) in
  Server.shutdown t;
  check_string "the next what-if = cold reference"
    (whatif_reference ~id:2 system app good) l2;
  check_int "no eviction" 0 (Tracer.counter tracer Tracer.Evictions);
  check_int "one cold build" 1 (Tracer.counter tracer Tracer.Cold_builds)

let suite =
  [
    ( "serve",
      [
        Alcotest.test_case "protocol rejects malformed requests" `Quick
          protocol_strict;
        Alcotest.test_case "LRU cache: capacity, eviction, checkout" `Quick
          cache_lru;
        Alcotest.test_case "admission: overload -> S303 + retry hint" `Quick
          overload_rejected;
        Alcotest.test_case "drain: in-flight finish, new refused (S306)"
          `Quick drain_refuses;
        Alcotest.test_case "deadline budget: partial reply, never cached"
          `Quick deadline_budget_partial;
        Alcotest.test_case "isolation: bad frames/apps/edits never kill it"
          `Quick isolation;
        Alcotest.test_case "storm: 8 clients, kills + raises + bad frames"
          `Quick
          (storm_with ~seed:11 ~kills:1 ~delays:0);
        Alcotest.test_case "storm: 8 clients, slow clients + kill + bad frame"
          `Quick
          (storm_with ~seed:1 ~kills:1 ~delays:2);
        Alcotest.test_case "line reader: no-newline flood caps buffered bytes"
          `Quick flood_capped;
        Alcotest.test_case "flood over a socket -> S300 + connection dropped"
          `Quick flood_rejected_end_to_end;
        Alcotest.test_case
          "locked_writer: EAGAIN/short writes never tear frames" `Quick
          writer_no_tearing;
        Alcotest.test_case "retry_after_ms: clamped, depth-aware, never <= 0"
          `Quick retry_hint_bounds;
        Alcotest.test_case "quota: exhaustion and refill on a fake clock"
          `Quick quota_schedule;
        Alcotest.test_case "quota: over-quota tenant -> S307, others flow"
          `Quick quota_s307;
        coalesce_identity;
        Alcotest.test_case "priority: warm/cheap never stuck behind cold"
          `Quick priority_orders_queue;
        Alcotest.test_case "transports: Unix socket and TCP simultaneously"
          `Quick tcp_and_unix;
        Alcotest.test_case "chaos: tenantflood directive parses and fires"
          `Quick tenantflood_dsl;
        Alcotest.test_case "chaos: tenant flood throttled without starvation"
          `Quick tenantflood_quota_storm;
        Alcotest.test_case "client: connect backoff surfaces attempt count"
          `Quick connect_backoff;
        Alcotest.test_case "client: unknown S3xx decodes forward-compatibly"
          `Quick decode_forward_compat;
        Alcotest.test_case "breaker: state machine on a fake clock" `Quick
          breaker_machine;
        Alcotest.test_case "breaker: S308 fast-fail end to end" `Quick
          breaker_s308;
        Alcotest.test_case "journal: round-trip, recency, compaction" `Quick
          journal_roundtrip;
        Alcotest.test_case "journal: corrupt tails dropped, never trusted"
          `Quick journal_corrupt_tail;
        Alcotest.test_case "chaos: journalcorrupt garbles exactly once" `Quick
          journal_chaos_corrupt;
        Alcotest.test_case "chaos: killserver/journalcorrupt DSL" `Quick
          resilience_dsl;
        Alcotest.test_case "health: op, file protocol, extended stats" `Quick
          health_and_stats;
        cache_race_ops;
        Alcotest.test_case "engine field: accepted, ignored, one instance"
          `Quick engine_field_ignored;
        Alcotest.test_case "journal: v1 file with both engine tags loads"
          `Quick journal_v1_both_tags;
        Alcotest.test_case "journal: new records keep the v1 bytes" `Quick
          journal_writes_v1;
        Alcotest.test_case "cache: a hit needs the text; claims wait" `Quick
          cache_text_and_claims;
        Alcotest.test_case "race: one cold build per text" `Quick
          race_one_cold_build;
        Alcotest.test_case "race: holder's build fails (S302), waiter answered"
          `Quick race_holder_fails;
        Alcotest.test_case "race: holder's build budget-cut, waiter answered"
          `Quick race_holder_budget_cut;
        Alcotest.test_case "race: supervised retry never waits on its claim"
          `Quick race_retry_holds_key;
        text_keys_answers;
        Alcotest.test_case "alloc: one warm what-if skips parse and fingerprint"
          `Quick warm_whatif_alloc;
        Alcotest.test_case "a rejected edit (S301) keeps the warm handle"
          `Quick rejected_edit_keeps_handle;
      ] );
  ]
