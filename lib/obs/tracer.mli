(** Span-based tracer and analysis counters.

    A [Tracer.t] collects two kinds of telemetry from an analysis run:

    - {e spans} — named, timed intervals opened with {!with_span},
      keyed by the domain ([tid]) they ran on.  Spans on one domain are
      well-nested by construction ([with_span] is lexically scoped and
      exception-safe), so a trace renders as a flame graph; and

    - {e counters} — monotonic integers ({!counter} lists the glossary)
      bumped with {!add}, plus a per-worker table of chunk claims fed by
      the domain pool ({!record_chunk}).

    Instrumented code receives the tracer as an optional argument
    defaulting to {!null}, whose operations reduce to a single branch
    and allocate nothing — the hot path is unchanged when tracing is
    off, and a traced run produces bit-identical analysis results
    (counters and spans are write-only telemetry).

    Thread-safety: counters are atomics; the event list and the
    per-worker table are mutex-protected; a single tracer may be shared
    by every domain of a pool run. *)

(** Counter glossary (see docs/OBSERVABILITY.md for the invariants):

    - [Tasks_scanned]: sum over executed candidate-interval scans of the
      number of tasks in the scanned partition block.
    - [Candidate_intervals]: number of [(t1, t2)] candidate interval
      pairs the scan plan contains, counted when the plan is built.
    - [Theta_evals]: number of Theta-kernel evaluations actually
      executed — equals [Candidate_intervals] exactly when no deadline
      cut the scan short.
    - [Chunks_claimed]: work-queue chunks claimed (pool workers and the
      inline path alike).
    - [Deadline_cancels]: jobs abandoned because a [?deadline_ns]
      budget expired.
    - [Cache_hits]: partition-block scan results served from an
      incremental-analysis cache instead of being rescanned (blocks of
      wholesale-reused resources included) — see [Rtlb.Incremental].
    - [Cone_tasks]: per-direction EST/LCT recomputations an incremental
      query performed (a task recomputed in both directions counts
      twice); [0] on cold runs.
    - [Worker_errors]: work-item bodies that raised inside the domain
      pool — the first failure of a job plus every suppressed one (see
      [Rtlb_par.Pool.Worker_failures]).
    - [Retries]: work items re-executed by the supervisor after a
      transient failure ([Rtlb_par.Supervisor]); at least the number of
      transient faults that fired when the run completed.
    - [Worker_restarts]: worker domains respawned after a mid-run death
      ([Rtlb_par.Pool.heal]).
    - [Checkpoints_written]: checkpoint files written (atomically) by a
      resumable sweep or benchmark.
    - [Resumes]: samples served from a validated checkpoint instead of
      being recomputed.
    - [Requests_admitted]: serve-daemon requests accepted into the
      bounded work queue ([Rtlb_serve.Server]).
    - [Requests_rejected]: serve-daemon frames refused with a
      structured error before any analysis ran — malformed frames,
      protocol errors, overload shedding, drain refusals.
    - [Evictions]: warm incremental handles evicted from the
      serve-daemon's fingerprint-keyed LRU cache (capacity pressure or
      crash-isolation drops).
    - [Degraded_replies]: successful serve-daemon replies whose
      supervised execution was less than a clean full-parallel run
      (retries exhausted into the degradation ladder).
    - [Coalesced_queries]: serve-daemon what-if queries that rode on
      another compatible query's batch (same engine and application
      text) instead of dequeuing separately — a batch of [n] bumps this
      by [n - 1].
    - [Quota_rejections]: serve-daemon frames refused with
      [S307 quota_exceeded] because the requesting tenant's token
      bucket was empty (also counted in [Requests_rejected]).
    - [Server_restarts]: serve-daemon child processes respawned by the
      watchdog after an abnormal exit ([Rtlb_serve.Watchdog]); a
      restarted child also reports its own generation number here.
    - [Journal_replays]: warm handles rebuilt from the warm-state
      journal after a (re)start ([Rtlb_serve.Journal]) — background
      rehydration, not client traffic.
    - [Breaker_opens]: circuit-breaker transitions to the open state
      (an instance fingerprint repeatedly failing analysis;
      [Rtlb_serve.Breaker]).
    - [Breaker_probes]: half-open probe requests a breaker let through
      to test whether the instance recovered.
    - [Failovers]: client-side reconnects after a lost connection
      ([Rtlb_serve.Client.Failover]) — each one resends only the
      requests whose replies were never received.
    - [Cold_builds]: serve-daemon requests that had to build a fresh
      incremental handle because the warm cache had no entry for the
      instance fingerprint (journal rehydration counts too — measure
      warmth with deltas). *)
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

val counter_name : counter -> string
(** Stable snake_case name, used by stats tables and JSON output. *)

val all_counters : counter list
(** Every counter, in glossary order. *)

(** One recorded span: a Chrome trace_event "complete" event. *)
type event = {
  ev_name : string;
  ev_tid : int;  (** Domain id the span ran on. *)
  ev_ts_ns : int64;  (** Start, {!Clock} time base. *)
  ev_dur_ns : int64;
}

type t

val null : t
(** The disabled tracer: every operation is a no-op costing one branch,
    and [with_span null name f] is exactly [f ()].  This is the default
    everywhere a [?tracer] is accepted. *)

val make : ?clock:Clock.t -> ?spans:bool -> unit -> t
(** A live tracer.  [clock] defaults to {!Clock.monotonic}; golden
    tests pass {!Clock.fake}.  With [~spans:false] it keeps counters and
    the per-worker table but records no span: {!with_span} is then
    exactly [f ()] and {!events} stays empty.  A long-lived process that
    reads only counters uses it, since recorded spans are kept until the
    tracer is dropped. *)

val enabled : t -> bool
(** [false] exactly for {!null}.  Instrumentation uses this to skip
    computing counter increments when tracing is off. *)

val clock : t -> Clock.t

val with_span : t -> string -> (unit -> 'a) -> 'a
(** [with_span t name f] runs [f] inside a span.  The span is recorded
    when [f] returns {e or raises} (the exception is re-raised), so
    span trees are always well-nested per domain. *)

val add : t -> counter -> int -> unit
(** Bump a counter.  No-op on {!null} or when the increment is 0. *)

val record_chunk : t -> items:int -> unit
(** Called by the domain pool after executing one claimed chunk:
    increments [Chunks_claimed] and credits the calling domain with
    [items] executed work-item bodies in the per-worker table.  [items]
    counts bodies that ran to completion, so per-worker totals stay
    consistent under fault injection and deadline cancellation. *)

val tid : unit -> int
(** The calling domain's id, as used for [ev_tid]. *)

val events : t -> event list
(** Recorded spans, in completion order.  Empty for {!null}. *)

val counter : t -> counter -> int

val worker_stats : t -> (int * int * int) list
(** Per-worker [(tid, chunks_claimed, items_executed)], sorted by tid. *)
