(* The bound-query daemon: admission control, per-tenant quotas,
   two-level priority queues, what-if coalescing, worker threads, warm
   handle cache, supervised execution, graceful drain.

   Life of a request (docs/ROBUSTNESS.md, "The serve daemon"):

     frame -> parse (S300/S301, inline)
           -> quota (tenant bucket empty -> S307 + retry_after_ms)
           -> admission (draining -> S306; queue full -> S303+retry
              hint; warm/cheap -> high queue, cold -> low queue)
           -> worker thread: compatible queued what-ifs are batched
              onto one pass over the shared warm handle (coalescing);
              checkout of the text's handle (waits while another
              worker holds it); on a miss, app parse (S302)
           -> Supervisor.supervise over the request body (retry with
              backoff; worker death heals through the full -> reduced ->
              sequential ladder; survivors are bit-identical answers,
              marked "degraded": true)
           -> reply (one line, request id echoed)

   Isolation invariants: a request failure of any kind becomes a
   structured error reply on its own connection — it never unwinds a
   worker thread (run_job catches everything) and never leaves a
   half-mutated handle in the cache (checkout/checkin discipline,
   lib/serve/cache.ml).  Coalesced jobs keep exactly the solo execution
   path (same checkout/checkin, same supervision) — they only run
   back-to-back on one worker and share a parse if one misses, so their
   replies are byte-identical to sequential one-shot execution. *)

module Json = Rtfmt.Json
module Tracer = Rtlb_obs.Tracer
module Pool = Rtlb_par.Pool
module Supervisor = Rtlb_par.Supervisor
module Chaos = Rtlb_par.Chaos

(* A frame larger than this is rejected as S300 before parsing — a
   runaway client must not balloon the daemon's heap.  Enforced both on
   complete lines (submit) and on buffered newline-free bytes
   (Line_reader). *)
let max_frame_bytes = 8 * 1024 * 1024

type config = {
  cache_capacity : int;
  queue_capacity : int;
  workers : int;
  jobs : int;
  policy : Supervisor.policy;
  tracer : Tracer.t;
  quota : Quota.t option;
  coalesce : bool;
  max_frame_bytes : int;
  journal : Journal.t option;
  breaker : Breaker.t option;
  health_file : string option;
  generation : int;
  die : unit -> unit;
}

let default_config =
  {
    cache_capacity = 8;
    queue_capacity = 64;
    workers = 2;
    jobs = 1;
    policy = Supervisor.default_policy;
    tracer = Tracer.null;
    quota = None;
    coalesce = true;
    max_frame_bytes;
    journal = None;
    breaker = None;
    health_file = None;
    generation = 0;
    die = (fun () -> Unix._exit 70);
  }

type job = {
  j_req : Protocol.request;
  j_deadline_ns : int64 option;  (* absolute; fixed at admission *)
  j_seq : int;  (* admitted-request sequence number (chaos replay key) *)
  j_digest : string;
      (* app text digest: the key of coalescing, the handle cache and
         the breakers *)
  j_high : bool;  (* which queue admitted it (stats bookkeeping) *)
  mutable j_taken : bool;
      (* claimed into an earlier batch; still physically queued (a
         tombstone — pops skip it), so extraction never rebuilds the
         queues: O(1) amortized however deep the pipeline *)
  j_replay : bool;
      (* journal rehydration, not client traffic: counted as a replay,
         never re-journaled, reply discarded *)
  j_reply : string -> unit;
}

type t = {
  cfg : config;
  cache : Cache.t;
  q_high : job Queue.t;
  q_low : job Queue.t;
  by_key : (string, job list ref) Hashtbl.t;
      (* op+digest -> queued jobs (reverse push order), the coalescing
         index; entries leave wholesale when a batch claims the key *)
  mutable n_high : int;  (* live (untaken) jobs per queue *)
  mutable n_low : int;
  mutex : Mutex.t;
  cond : Condition.t;
  mutable draining : bool;
  mutable seq : int;
  mutable threads : Thread.t list;
  started_ns : int64;
}

let job_digest (req : Protocol.request) = Digest.string req.Protocol.app

(* ---- request execution (worker side) ----------------------------- *)

(* Analyze and what-if run on a warm handle: they claim their key in
   the handle cache, coalesce, and are journaled. *)
let uses_handle = function
  | Protocol.Analyze | Protocol.Whatif -> true
  | Protocol.Sensitivity | Protocol.Check | Protocol.Ping | Protocol.Stats
  | Protocol.Health ->
      false

(* The instance an analysis op runs on.  The system comes from the text
   alone (the uniform shared model when it declares none), so the text
   fixes the whole instance — which is why the handle cache can key by
   the text. *)
let parse_instance text =
  try
    let { Rtfmt.Appfile.app; system } = Rtfmt.Appfile.parse text in
    let system =
      match system with
      | Some s -> s
      | None ->
          Rtlb.System.shared_uniform ~resources:(Rtlb.App.resource_set app)
    in
    Ok (system, app)
  with Rtfmt.Appfile.Parse_error (l, m) ->
    Error
      (Protocol.Invalid_app, if l > 0 then Printf.sprintf "line %d: %s" l m else m)

(* Run [use] on the job's handle: the hit [checkout ()] returns, or a
   cold build of [instance ()] on a miss.  [checkout] claims the key; the
   claim ends here in exactly one checkin, release or discard — on
   success, on a partial (budget-cut) build and on any exception — so a
   supervised retry never waits on its own claim.  A partial base
   analysis is never checked in.  An edit validates before it changes
   its handle and restores the handle when it raises, so a request
   rejected by [use] ([Protocol.Reject], S301) keeps the handle; any
   other exception discards a hit. *)
let with_handle t ?pool ?deadline_ns ~checkout job instance use =
  let key = job.j_digest and text = job.j_req.Protocol.app in
  let keep handle =
    if Rtlb.Analysis.is_partial (Rtlb.Incremental.base handle) then
      Cache.release t.cache key
    else Cache.checkin t.cache key ~text handle
  in
  let run handle ~drop =
    match use handle with
    | result ->
        keep handle;
        result
    | exception (Protocol.Reject _ as e) ->
        keep handle;
        raise e
    | exception e ->
        drop key;
        raise e
  in
  match checkout () with
  | Some handle -> run handle ~drop:(Cache.discard t.cache)
  | None -> (
      match
        let system, app = instance () in
        Tracer.add t.cfg.tracer Tracer.Cold_builds 1;
        Rtlb.Incremental.create ?pool ?deadline_ns ~tracer:t.cfg.tracer system
          app
      with
      | handle -> run handle ~drop:(Cache.release t.cache)
      | exception e ->
          Cache.release t.cache key;
          raise e)

let exec t ?pool ~checkout job instance =
  let req = job.j_req in
  let deadline_ns = job.j_deadline_ns in
  (* A miss forces [instance] in run_job, which answers a parse error
     before supervision; only a retry after a crashed hit parses here. *)
  let instance () =
    match Lazy.force instance with
    | Ok i -> i
    | Error (code, msg) -> raise (Protocol.Reject (code, msg))
  in
  match req.Protocol.op with
  | Protocol.Check ->
      let diags = Rtfmt.Appfile.check req.Protocol.app in
      Json.Obj
        [
          ("diags", Json.List (List.map Protocol.json_of_diag diags));
          ("errors", Json.Int (List.length (Rtlb.Validate.errors diags)));
        ]
  | Protocol.Analyze ->
      with_handle t ?pool ?deadline_ns ~checkout job instance (fun handle ->
          Json.of_analysis (Rtlb.Incremental.base handle))
  | Protocol.Whatif ->
      with_handle t ?pool ?deadline_ns ~checkout job instance (fun handle ->
          let edited =
            try
              Rtlb.Incremental.edit ?pool ?deadline_ns ~tracer:t.cfg.tracer
                handle req.Protocol.edits
            with Invalid_argument m ->
              (* bad task id / constraint-breaking edit: the request
                 is at fault, not the application *)
              raise (Protocol.Reject (Protocol.Bad_request, m))
          in
          Json.of_whatif ~base:(Rtlb.Incremental.base handle) ~edited)
  | Protocol.Sensitivity ->
      let system, app = instance () in
      let samples =
        Rtlb.Sensitivity.deadline_sweep ?pool ?deadline_ns ~tracer:t.cfg.tracer
          system app ~factors:req.Protocol.factors
      in
      Json.Obj
        [
          ("samples", Json.List (List.map Protocol.json_of_sample samples));
          ( "partial",
            Json.Bool
              (List.exists (fun s -> s.Rtlb.Sensitivity.s_partial) samples) );
        ]
  | Protocol.Ping | Protocol.Stats | Protocol.Health ->
      (* answered inline at admission, never queued *)
      assert false

let breaker_applies op =
  match op with
  | Protocol.Analyze | Protocol.Whatif | Protocol.Sensitivity -> true
  | Protocol.Check | Protocol.Ping | Protocol.Stats | Protocol.Health -> false

(* Report the job's fate to its fingerprint's circuit breaker.  Only
   instance-level failures (S302 invalid_app, S305 internal) extend a
   streak: a bad edit (S301) blames the request, not the instance. *)
let note_breaker t job verdict =
  match t.cfg.breaker with
  | Some b when breaker_applies job.j_req.Protocol.op -> (
      match verdict with
      | `Success -> Breaker.success b job.j_digest
      | `Failure (Protocol.Invalid_app | Protocol.Internal) ->
          Breaker.failure b job.j_digest
      | `Failure _ -> ())
  | _ -> ()

let run_job t ?pool ?instance job =
  (* killserver@I: an armed crash directive takes the whole process
     down right here — abruptly, like the SIGKILL it stands in for.
     The watchdog (holding the listening sockets) restarts a fresh
     child; failover clients resend whatever was never answered. *)
  if Chaos.server_kill job.j_seq then t.cfg.die ();
  let req = job.j_req in
  let id = req.Protocol.id in
  let reply json = job.j_reply (Protocol.to_line json) in
  let instance =
    match instance with
    | Some i -> i
    | None -> lazy (parse_instance req.Protocol.app)
  in
  let outcome_reply () =
    (* Claim the key before anything else: a request whose instance is
       in use waits here for its handle, and a hit needs no parse.  The
       first supervised attempt takes this checkout over, later attempts
       check out afresh, and a checkout that no attempt took ends in
       [unclaimed]. *)
    let first =
      ref
        (if uses_handle req.Protocol.op then
           Some (Cache.checkout t.cache job.j_digest ~text:req.Protocol.app)
         else None)
    in
    let checkout () =
      match !first with
      | Some found ->
          first := None;
          found
      | None -> Cache.checkout t.cache job.j_digest ~text:req.Protocol.app
    in
    let unclaimed () =
      Option.iter
        (fun found ->
          first := None;
          match found with
          | Some handle ->
              Cache.checkin t.cache job.j_digest ~text:req.Protocol.app handle
          | None -> Cache.release t.cache job.j_digest)
        !first
    in
    Fun.protect ~finally:unclaimed @@ fun () ->
    (* a miss or a sensitivity sweep parses here, outside supervision *)
    let parsed =
      match (req.Protocol.op, !first) with
      | Protocol.Check, _ | _, Some (Some _) -> Ok ()
      | _ -> Result.map ignore (Lazy.force instance)
    in
    match parsed with
    | Error (code, msg) ->
        note_breaker t job (`Failure code);
        Protocol.error_reply ~id code msg
    | Ok () -> (
        (* The supervised body returns request-level faults as values so
           the supervisor only retries genuine crashes (and worker
           deaths, which walk the heal/degrade ladder). *)
        let body () =
          Chaos.on_request job.j_seq;
          try Ok (exec t ?pool ~checkout job instance) with
          | Protocol.Reject (code, msg) -> Error (code, msg)
          | Invalid_argument msg -> Error (Protocol.Invalid_app, msg)
        in
        let results, outcome =
          Supervisor.supervise ~policy:t.cfg.policy ?pool
            ~tracer:t.cfg.tracer body [| () |]
        in
        match results.(0) with
        | Some (Ok result) ->
            let degraded =
              outcome.Supervisor.o_status <> `Complete
              || outcome.Supervisor.o_level <> Supervisor.Full
            in
            if degraded then Tracer.add t.cfg.tracer Tracer.Degraded_replies 1;
            if uses_handle req.Protocol.op then
              if job.j_replay then
                Tracer.add t.cfg.tracer Tracer.Journal_replays 1
              else
                Option.iter
                  (fun journal -> Journal.record journal ~app:req.Protocol.app)
                  t.cfg.journal;
            note_breaker t job `Success;
            Protocol.ok_reply ~id ~op:req.Protocol.op ~degraded result
        | Some (Error (code, msg)) ->
            note_breaker t job (`Failure code);
            Protocol.error_reply ~id code msg
        | None ->
            let detail =
              match outcome.Supervisor.o_errors with
              | (_, m) :: _ -> m
              | [] -> "request dropped"
            in
            note_breaker t job (`Failure Protocol.Internal);
            Protocol.error_reply ~id Protocol.Internal
              ("request failed after supervised retries: " ^ detail))
  in
  let json =
    try outcome_reply ()
    with e ->
      (* Nothing may unwind a worker thread: even a bug in the executor
         becomes a structured reply and the daemon keeps serving. *)
      Protocol.error_reply ~id Protocol.Internal (Printexc.to_string e)
  in
  try reply json
  with _ -> () (* client hung up; the reply has nowhere to go *)

(* A coalesced batch runs back-to-back on this worker, each job on the
   unchanged solo path (own claim, own supervision), so every reply is
   byte-identical to sequential one-shot execution.  The jobs share one
   parse of the common text, made only if a job misses the cache: the
   first job's cold build warms the handle for the rest. *)
let run_batch t ?pool = function
  | [] -> ()
  | [ job ] -> run_job t ?pool job
  | first :: _ as jobs ->
      Tracer.add t.cfg.tracer Tracer.Coalesced_queries (List.length jobs - 1);
      let instance = lazy (parse_instance first.j_req.Protocol.app) in
      List.iter (fun job -> run_job t ?pool ~instance job) jobs

(* ---- worker threads ---------------------------------------------- *)

let batch_key (req : Protocol.request) digest =
  Protocol.op_name req.Protocol.op ^ ":" ^ digest

let note_taken t job =
  if job.j_high then t.n_high <- t.n_high - 1 else t.n_low <- t.n_low - 1

(* Callers hold [t.mutex].  High-priority first; a dequeued what-if (or
   analyze) pulls every compatible (same op, same text digest)
   queued request into its batch, from both queues, via the [by_key]
   index — mates become tombstones where they sit. *)
let pop_batch t =
  let rec pop_skip q =
    match Queue.take_opt q with
    | None -> None
    | Some j when j.j_taken -> pop_skip q
    | Some j -> Some j
  in
  let job =
    match pop_skip t.q_high with Some j -> Some j | None -> pop_skip t.q_low
  in
  match job with
  | None -> None
  | Some job ->
      job.j_taken <- true;
      note_taken t job;
      let key = batch_key job.j_req job.j_digest in
      let mates =
        match Hashtbl.find_opt t.by_key key with
        | None -> []
        | Some l ->
            Hashtbl.remove t.by_key key;
            let mates =
              List.rev (List.filter (fun j -> not j.j_taken) !l)
            in
            List.iter
              (fun j ->
                j.j_taken <- true;
                note_taken t j)
              mates;
            mates
      in
      Some (job :: mates)

let rec worker_loop t ?pool () =
  Mutex.lock t.mutex;
  let rec next () =
    match pop_batch t with
    | Some batch -> Some batch
    | None ->
        if t.draining then None
        else (
          Condition.wait t.cond t.mutex;
          next ())
  in
  let batch = next () in
  Mutex.unlock t.mutex;
  match batch with
  | None -> ()
  | Some batch ->
      run_batch t ?pool batch;
      worker_loop t ?pool ()

let worker t () =
  if t.cfg.jobs > 1 then
    Pool.with_pool ~jobs:t.cfg.jobs (fun pool -> worker_loop t ~pool ())
  else worker_loop t ()

(* Queue every journaled instance as a low-priority internal analyze:
   rehydration rides the normal worker machinery, so client traffic
   (high queue, or simply ahead in line) naturally outranks it, and a
   concurrent real query for the same instance coalesces with its
   replay instead of double-building.  Replies go nowhere; successful
   replays count as [journal_replays]. *)
let rehydrate t =
  match t.cfg.journal with
  | None -> ()
  | Some journal ->
      let rec keep n = function
        | [] -> []
        | _ when n = 0 -> []
        | e :: rest -> e :: keep (n - 1) rest
      in
      let entries =
        keep (max 0 t.cfg.cache_capacity) (Journal.entries journal)
      in
      Mutex.lock t.mutex;
      List.iter
        (fun (e : Journal.entry) ->
          let req =
            {
              Protocol.id = Json.Null;
              op = Protocol.Analyze;
              app = e.Journal.je_app;
              deadline_ms = None;
              tenant = None;
              priority = Some Protocol.Low;
              edits = [];
              factors = [];
            }
          in
          let j_seq = t.seq in
          t.seq <- j_seq + 1;
          let job =
            {
              j_req = req;
              j_deadline_ns = None;
              j_seq;
              j_digest = job_digest req;
              j_high = false;
              j_taken = false;
              j_replay = true;
              j_reply = ignore;
            }
          in
          Queue.push job t.q_low;
          t.n_low <- t.n_low + 1;
          if t.cfg.coalesce then begin
            let key = batch_key req job.j_digest in
            match Hashtbl.find_opt t.by_key key with
            | Some l -> l := job :: !l
            | None -> Hashtbl.replace t.by_key key (ref [ job ])
          end)
        entries;
      Condition.broadcast t.cond;
      Mutex.unlock t.mutex

let create ?(config = default_config) () =
  let t =
    {
      cfg = config;
      cache =
        Cache.create ~tracer:config.tracer ~capacity:config.cache_capacity ();
      q_high = Queue.create ();
      q_low = Queue.create ();
      by_key = Hashtbl.create 64;
      n_high = 0;
      n_low = 0;
      mutex = Mutex.create ();
      cond = Condition.create ();
      draining = false;
      seq = 0;
      threads = [];
      started_ns = Pool.now_ns ();
    }
  in
  (* a watchdog-restarted child reports its own generation, so [stats]
     reflects restarts even though the watchdog is another process *)
  Tracer.add config.tracer Tracer.Server_restarts (max 0 config.generation);
  rehydrate t;
  t.threads <-
    List.init (max 0 config.workers) (fun _ -> Thread.create (worker t) ());
  t

let cache t = t.cache

let run_pending t =
  let rec go () =
    Mutex.lock t.mutex;
    let batch = pop_batch t in
    Mutex.unlock t.mutex;
    match batch with
    | None -> ()
    | Some batch ->
        run_batch t batch;
        go ()
  in
  go ()

(* ---- admission (connection side) --------------------------------- *)

let queue_depth t = t.n_high + t.n_low

let uptime_ms t =
  Int64.to_int (Int64.div (Int64.sub (Pool.now_ns ()) t.started_ns) 1_000_000L)

let health_status t =
  if t.draining then Health.Draining
  else if
    match t.cfg.breaker with Some b -> Breaker.open_count b > 0 | None -> false
  then Health.Degraded
  else Health.Ready

let stats_snapshot t =
  Json.Obj
    (List.map
       (fun c ->
         (Tracer.counter_name c, Json.Int (Tracer.counter t.cfg.tracer c)))
       Tracer.all_counters
    @ [
        ("uptime_ms", Json.Int (uptime_ms t));
        ("cache_entries", Json.Int (Cache.length t.cache));
        ( "journal_entries",
          match t.cfg.journal with
          | Some j -> Json.Int (Journal.length j)
          | None -> Json.Null );
        ( "breaker_open",
          match t.cfg.breaker with
          | Some b -> Json.Int (Breaker.open_count b)
          | None -> Json.Null );
        ("queue_depth", Json.Int (queue_depth t));
        ("queue_high", Json.Int t.n_high);
        ("queue_low", Json.Int t.n_low);
        ( "quota_tenants",
          match t.cfg.quota with
          | Some q -> Json.Int (Quota.tenants q)
          | None -> Json.Null );
        ("draining", Json.Bool t.draining);
      ])

let health_snapshot t =
  Json.Obj
    [
      ("status", Json.Str (Health.state_name (health_status t)));
      ("uptime_ms", Json.Int (uptime_ms t));
      ("generation", Json.Int t.cfg.generation);
      ( "journal_entries",
        match t.cfg.journal with
        | Some j -> Json.Int (Journal.length j)
        | None -> Json.Null );
      ( "breaker_open",
        match t.cfg.breaker with
        | Some b -> Json.Int (Breaker.open_count b)
        | None -> Json.Null );
    ]

(* Hint for S303: clients should back off for roughly the time the
   standing (not the worst-case) queue needs to drain one slot per
   worker.  Clamped so a drained queue still hints at least 1 ms and a
   pathological configuration never hints more than 30 s. *)
let retry_hint_ms ~workers ~depth =
  let ms = 25 * (1 + (max 0 depth / max 1 workers)) in
  if ms < 1 then 1 else if ms > 30_000 then 30_000 else ms

let retry_hint t = retry_hint_ms ~workers:t.cfg.workers ~depth:(queue_depth t)

let submit t line reply_line =
  let tracer = t.cfg.tracer in
  let reject ~id code ?retry_after_ms msg =
    Tracer.add tracer Tracer.Requests_rejected 1;
    reply_line (Protocol.to_line (Protocol.error_reply ~id code ?retry_after_ms msg))
  in
  if String.length line > t.cfg.max_frame_bytes then
    reject ~id:Json.Null Protocol.Bad_frame
      (Printf.sprintf "frame exceeds %d bytes" t.cfg.max_frame_bytes)
  else
    match Json.parse line with
    | exception Json.Parse_error m ->
        reject ~id:Json.Null Protocol.Bad_frame ("invalid JSON frame: " ^ m)
    | frame -> (
        let id =
          match frame with
          | Json.Obj fields ->
              Option.value ~default:Json.Null (List.assoc_opt "id" fields)
          | _ -> Json.Null
        in
        match Protocol.request_of_json frame with
        | Error m -> reject ~id Protocol.Bad_request m
        | Ok req -> (
            match req.Protocol.op with
            | Protocol.Ping ->
                reply_line
                  (Protocol.to_line
                     (Protocol.ok_reply ~id ~op:Protocol.Ping
                        (Json.Obj [ ("pong", Json.Bool true) ])))
            | Protocol.Stats ->
                reply_line
                  (Protocol.to_line
                     (Protocol.ok_reply ~id ~op:Protocol.Stats
                        (stats_snapshot t)))
            | Protocol.Health ->
                reply_line
                  (Protocol.to_line
                     (Protocol.ok_reply ~id ~op:Protocol.Health
                        (health_snapshot t)))
            | _ -> (
                let tenant = Option.value ~default:"" req.Protocol.tenant in
                match
                  match t.cfg.quota with
                  | None -> Quota.Admit
                  | Some q -> Quota.take q tenant
                with
                | Quota.Reject { retry_after_ms } ->
                    Tracer.add tracer Tracer.Quota_rejections 1;
                    reject ~id Protocol.Quota_exceeded ~retry_after_ms
                      (if tenant = "" then "anonymous tenant is over quota"
                       else Printf.sprintf "tenant %S is over quota" tenant)
                | Quota.Admit -> (
                    let j_deadline_ns =
                      Option.map
                        (fun ms ->
                          Int64.add (Pool.now_ns ())
                            (Int64.mul (Int64.of_int ms) 1_000_000L))
                        req.Protocol.deadline_ms
                    in
                    let j_digest = job_digest req in
                    (* fast-fail a tripped instance before it costs a
                       queue slot or a worker pass *)
                    match
                      match t.cfg.breaker with
                      | Some b when breaker_applies req.Protocol.op ->
                          Breaker.check b j_digest
                      | _ -> Breaker.Proceed
                    with
                    | Breaker.Fast_fail { retry_after_ms } ->
                        reject ~id Protocol.Circuit_open ~retry_after_ms
                          "instance circuit breaker is open after repeated \
                           analysis failures"
                    | Breaker.Proceed | Breaker.Probe ->
                    Mutex.lock t.mutex;
                    if t.draining then (
                      Mutex.unlock t.mutex;
                      reject ~id Protocol.Draining
                        "daemon is draining; retry against a fresh instance")
                    else if queue_depth t >= t.cfg.queue_capacity then begin
                      let hint = retry_hint t in
                      Mutex.unlock t.mutex;
                      reject ~id Protocol.Overloaded ~retry_after_ms:hint
                        "request queue is full"
                    end
                    else begin
                      let j_seq = t.seq in
                      t.seq <- j_seq + 1;
                      let high =
                        match req.Protocol.priority with
                        | Some Protocol.High -> true
                        | Some Protocol.Low -> false
                        | None ->
                            (* cheap or warm goes first: check never
                               analyzes, and a text whose handle is
                               resident or in use needs no cold build
                               (the cache never takes [t.mutex], so
                               asking it here cannot deadlock) *)
                            req.Protocol.op = Protocol.Check
                            || Cache.mem t.cache j_digest
                      in
                      let job =
                        {
                          j_req = req;
                          j_deadline_ns;
                          j_seq;
                          j_digest;
                          j_high = high;
                          j_taken = false;
                          j_replay = false;
                          j_reply = reply_line;
                        }
                      in
                      if high then begin
                        Queue.push job t.q_high;
                        t.n_high <- t.n_high + 1
                      end
                      else begin
                        Queue.push job t.q_low;
                        t.n_low <- t.n_low + 1
                      end;
                      if t.cfg.coalesce && uses_handle req.Protocol.op then begin
                        let key = batch_key req j_digest in
                        match Hashtbl.find_opt t.by_key key with
                        | Some l -> l := job :: !l
                        | None -> Hashtbl.replace t.by_key key (ref [ job ])
                      end;
                      Tracer.add tracer Tracer.Requests_admitted 1;
                      Condition.signal t.cond;
                      Mutex.unlock t.mutex
                    end))))

(* ---- drain -------------------------------------------------------- *)

let drain t =
  Mutex.lock t.mutex;
  t.draining <- true;
  Condition.broadcast t.cond;
  Mutex.unlock t.mutex;
  Option.iter
    (fun path -> Health.write ~path Health.Draining)
    t.cfg.health_file

let join t =
  let threads = t.threads in
  t.threads <- [];
  List.iter Thread.join threads

let shutdown t =
  drain t;
  join t

(* ---- front ends --------------------------------------------------- *)

let locked_writer fd =
  let m = Mutex.create () in
  fun line ->
    Mutex.lock m;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock m)
      (fun () ->
        let payload = Bytes.of_string (line ^ "\n") in
        let len = Bytes.length payload in
        let rec push off =
          if off < len then
            match Unix.write fd payload off (len - off) with
            | n -> push (off + n)
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> push off
            | exception
                Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                (* Non-blocking or slow peer: wait for writability and
                   resume at the same offset — a short write must never
                   truncate a frame or tear it across another thread's
                   write. *)
                (match Unix.select [] [ fd ] [] 0.2 with
                | _ -> ()
                | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
                push off
        in
        try push 0 with Unix.Unix_error _ -> ())

let overflow_line t =
  Protocol.to_line
    (Protocol.error_reply ~id:Json.Null Protocol.Bad_frame
       (Printf.sprintf "frame exceeds %d bytes" t.cfg.max_frame_bytes))

let note_ready t =
  Option.iter
    (fun path -> Health.write ~path Health.Ready)
    t.cfg.health_file

let serve_stdio t ~stop =
  note_ready t;
  let reply = locked_writer Unix.stdout in
  let lr = Line_reader.create ~max_bytes:t.cfg.max_frame_bytes Unix.stdin in
  let rec loop () =
    match Line_reader.read lr ~stop with
    | Line_reader.Line line ->
        if String.trim line <> "" then submit t line reply;
        loop ()
    | Line_reader.Eof -> ()
    | Line_reader.Overflow ->
        Tracer.add t.cfg.tracer Tracer.Requests_rejected 1;
        reply (overflow_line t)
  in
  loop ();
  shutdown t

let handle_connection t fd () =
  (* a deep outbound kernel buffer keeps slow reply consumers from
     stalling the worker threads mid-pipeline (best effort) *)
  (try Unix.setsockopt_int fd Unix.SO_SNDBUF (4 * 1024 * 1024)
   with Unix.Unix_error _ | Invalid_argument _ -> ());
  let reply = locked_writer fd in
  let lr = Line_reader.create ~max_bytes:t.cfg.max_frame_bytes fd in
  let rec loop () =
    match Line_reader.read lr ~stop:(fun () -> false) with
    | Line_reader.Line line ->
        if String.trim line <> "" then submit t line reply;
        loop ()
    | Line_reader.Eof -> ()
    | Line_reader.Overflow ->
        (* runaway frame: structured refusal, then drop the connection —
           the peer is either broken or hostile *)
        Tracer.add t.cfg.tracer Tracer.Requests_rejected 1;
        reply (overflow_line t)
  in
  (try loop () with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

type endpoint = Unix_path of string | Tcp of string * int

let bind_endpoint = function
  | Unix_path path ->
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try
         Unix.bind sock (Unix.ADDR_UNIX path);
         Unix.listen sock 64
       with e ->
         (try Unix.close sock with Unix.Unix_error _ -> ());
         raise e);
      (sock, Some path)
  | Tcp (host, port) ->
      let addr =
        match Unix.inet_addr_of_string host with
        | a -> a
        | exception Failure _ -> (
            match Unix.gethostbyname host with
            | h when Array.length h.Unix.h_addr_list > 0 ->
                h.Unix.h_addr_list.(0)
            | _ | (exception Not_found) ->
                invalid_arg
                  (Printf.sprintf "serve: cannot resolve host %S" host))
      in
      let sockaddr = Unix.ADDR_INET (addr, port) in
      let sock = Unix.socket (Unix.domain_of_sockaddr sockaddr) Unix.SOCK_STREAM 0 in
      (try
         Unix.setsockopt sock Unix.SO_REUSEADDR true;
         Unix.bind sock sockaddr;
         Unix.listen sock 64
       with e ->
         (try Unix.close sock with Unix.Unix_error _ -> ());
         raise e);
      (sock, None)

let accept_loop t sock ~stop =
  let rec go () =
    if not (stop ()) then (
      (match Unix.select [ sock ] [] [] 0.2 with
      | [], _, _ -> ()
      | _ -> (
          match Unix.accept sock with
          | fd, _ -> ignore (Thread.create (handle_connection t fd) ())
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      go ())
  in
  go ()

let bind_endpoints endpoints =
  if endpoints = [] then invalid_arg "serve: no endpoints";
  List.map bind_endpoint endpoints

(* Serve on sockets that are already bound and listening.  [cleanup]
   false leaves closing and unlinking to the true owner — the watchdog
   parent, which holds the same descriptors across child restarts so
   the endpoint never disappears. *)
let serve_bound t ?on_ready ?(cleanup = true) ~sockets ~stop () =
  if sockets = [] then invalid_arg "serve: no endpoints";
  let body () =
    (match on_ready with
    | Some f ->
        f
          (List.map
             (fun (sock, _) ->
               try Unix.getsockname sock
               with Unix.Unix_error _ -> Unix.ADDR_UNIX "?")
             sockets)
    | None -> ());
    note_ready t;
    let acceptors =
      List.map
        (fun (sock, _) -> Thread.create (fun () -> accept_loop t sock ~stop) ())
        sockets
    in
    List.iter Thread.join acceptors;
    (* stop requested: connections still open keep their replies, new
       frames are refused with S306 while the queue drains *)
    shutdown t
  in
  if cleanup then
    Fun.protect
      ~finally:(fun () ->
        List.iter
          (fun (sock, path) ->
            (try Unix.close sock with Unix.Unix_error _ -> ());
            match path with
            | Some path -> (
                try Unix.unlink path with Unix.Unix_error _ -> ())
            | None -> ())
          sockets)
      body
  else body ()

let serve t ?on_ready ~endpoints ~stop () =
  serve_bound t ?on_ready ~cleanup:true ~sockets:(bind_endpoints endpoints)
    ~stop ()

let serve_socket t ~path ~stop = serve t ~endpoints:[ Unix_path path ] ~stop ()
