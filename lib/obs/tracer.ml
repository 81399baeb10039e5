type counter =
  | Tasks_scanned
  | Candidate_intervals
  | Theta_evals
  | Chunks_claimed
  | Deadline_cancels
  | Cache_hits
  | Cone_tasks
  | Worker_errors
  | Retries
  | Worker_restarts
  | Checkpoints_written
  | Resumes
  | Requests_admitted
  | Requests_rejected
  | Evictions
  | Degraded_replies
  | Coalesced_queries
  | Quota_rejections
  | Server_restarts
  | Journal_replays
  | Breaker_opens
  | Breaker_probes
  | Failovers
  | Cold_builds

let n_counters = 24

let counter_index = function
  | Tasks_scanned -> 0
  | Candidate_intervals -> 1
  | Theta_evals -> 2
  | Chunks_claimed -> 3
  | Deadline_cancels -> 4
  | Cache_hits -> 5
  | Cone_tasks -> 6
  | Worker_errors -> 7
  | Retries -> 8
  | Worker_restarts -> 9
  | Checkpoints_written -> 10
  | Resumes -> 11
  | Requests_admitted -> 12
  | Requests_rejected -> 13
  | Evictions -> 14
  | Degraded_replies -> 15
  | Coalesced_queries -> 16
  | Quota_rejections -> 17
  | Server_restarts -> 18
  | Journal_replays -> 19
  | Breaker_opens -> 20
  | Breaker_probes -> 21
  | Failovers -> 22
  | Cold_builds -> 23

let counter_name = function
  | Tasks_scanned -> "tasks_scanned"
  | Candidate_intervals -> "candidate_intervals"
  | Theta_evals -> "theta_evals"
  | Chunks_claimed -> "chunks_claimed"
  | Deadline_cancels -> "deadline_cancellations"
  | Cache_hits -> "cache_hits"
  | Cone_tasks -> "cone_tasks"
  | Worker_errors -> "worker_errors"
  | Retries -> "retries"
  | Worker_restarts -> "worker_restarts"
  | Checkpoints_written -> "checkpoints_written"
  | Resumes -> "resumes"
  | Requests_admitted -> "requests_admitted"
  | Requests_rejected -> "requests_rejected"
  | Evictions -> "evictions"
  | Degraded_replies -> "degraded_replies"
  | Coalesced_queries -> "coalesced_queries"
  | Quota_rejections -> "quota_rejections"
  | Server_restarts -> "server_restarts"
  | Journal_replays -> "journal_replays"
  | Breaker_opens -> "breaker_opens"
  | Breaker_probes -> "breaker_probes"
  | Failovers -> "failovers"
  | Cold_builds -> "cold_builds"

let all_counters =
  [
    Tasks_scanned; Candidate_intervals; Theta_evals; Chunks_claimed;
    Deadline_cancels; Cache_hits; Cone_tasks; Worker_errors; Retries;
    Worker_restarts; Checkpoints_written; Resumes; Requests_admitted;
    Requests_rejected; Evictions; Degraded_replies; Coalesced_queries;
    Quota_rejections; Server_restarts; Journal_replays; Breaker_opens;
    Breaker_probes; Failovers; Cold_builds;
  ]

type event = {
  ev_name : string;
  ev_tid : int;
  ev_ts_ns : int64;
  ev_dur_ns : int64;
}

type worker_stat = { mutable ws_chunks : int; mutable ws_items : int }

type t = {
  enabled : bool;
  spans : bool;  (* whether [with_span] records events *)
  t_clock : Clock.t;
  lock : Mutex.t;
  mutable events_rev : event list;
  counters : int Atomic.t array;
  workers : (int, worker_stat) Hashtbl.t;
}

(* The single disabled tracer.  Its arrays are empty: every accessor
   below branches on [enabled] before touching them. *)
let null =
  {
    enabled = false;
    spans = false;
    t_clock = Clock.monotonic;
    lock = Mutex.create ();
    events_rev = [];
    counters = [||];
    workers = Hashtbl.create 1;
  }

let make ?(clock = Clock.monotonic) ?(spans = true) () =
  {
    enabled = true;
    spans;
    t_clock = clock;
    lock = Mutex.create ();
    events_rev = [];
    counters = Array.init n_counters (fun _ -> Atomic.make 0);
    workers = Hashtbl.create 8;
  }

let enabled t = t.enabled
let clock t = t.t_clock
let tid () = (Domain.self () :> int)

let add t c n =
  if t.enabled && n <> 0 then
    ignore (Atomic.fetch_and_add t.counters.(counter_index c) n)

let counter t c =
  if t.enabled then Atomic.get t.counters.(counter_index c) else 0

let record_chunk t ~items =
  if t.enabled then begin
    ignore (Atomic.fetch_and_add t.counters.(counter_index Chunks_claimed) 1);
    let id = tid () in
    Mutex.lock t.lock;
    let ws =
      match Hashtbl.find_opt t.workers id with
      | Some ws -> ws
      | None ->
          let ws = { ws_chunks = 0; ws_items = 0 } in
          Hashtbl.add t.workers id ws;
          ws
    in
    ws.ws_chunks <- ws.ws_chunks + 1;
    ws.ws_items <- ws.ws_items + items;
    Mutex.unlock t.lock
  end

let with_span t name f =
  if not t.spans then f ()
  else begin
    let id = tid () in
    let t0 = Clock.now_ns t.t_clock in
    let finish () =
      let t1 = Clock.now_ns t.t_clock in
      let ev =
        { ev_name = name; ev_tid = id; ev_ts_ns = t0;
          ev_dur_ns = Int64.sub t1 t0 }
      in
      Mutex.lock t.lock;
      t.events_rev <- ev :: t.events_rev;
      Mutex.unlock t.lock
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let events t =
  Mutex.lock t.lock;
  let evs = List.rev t.events_rev in
  Mutex.unlock t.lock;
  evs

let worker_stats t =
  Mutex.lock t.lock;
  let rows =
    Hashtbl.fold
      (fun id ws acc -> (id, ws.ws_chunks, ws.ws_items) :: acc)
      t.workers []
  in
  Mutex.unlock t.lock;
  List.sort compare rows
