(** Incremental analysis for sweeps and what-if queries.

    A handle built from one full analysis answers perturbed queries by
    recomputing only what the perturbation can reach:

    - EST values depend only on releases, computes, messages and
      predecessors; LCT values only on deadlines, computes, messages and
      successors.  A deadline edit therefore dirties the edited tasks and
      their ancestors in the LCT pass {e only} — the cached EST arrays and
      merge traces are reused verbatim — while a release edit dirties the
      descendant cone of the EST pass, and a compute edit both.
    - Partitions and candidate points are rebuilt only for resources
      whose member windows moved; a resource whose members' (EST, LCT,
      compute, preemptive) tuples are all unchanged reuses its base
      bound, witness and partition wholesale.
    - Within a rebuilt resource, blocks whose member tuples are unchanged
      reuse their cached [(lb, witness)] via a {!Lower_bound.merge_scans}
      fold, which is associative with an earlier-wins tie-break — so
      query results are bit-identical to a cold run of the record
      composition ({!Est_lct.compute}, {!Lower_bound.all_within},
      {!Cost.compute}) on the perturbed application, merge traces
      included, and value-identical to {!Analysis.run}
      (property-tested across random instances and edit sequences).

    Queries on applications that differ in anything beyond the
    release/compute/deadline triples (names, processors, demands,
    preemptability, graph shape) fall back to a cold run transparently.

    With a [?tracer], queries report [Cache_hits] (block results served
    from the cache, wholesale-reused resources counted block by block)
    and [Cone_tasks] (per-direction EST/LCT recomputations; a
    deadline-only edit reports no EST work).  A [?deadline_ns] budget is
    honoured exactly as in {!Analysis.run}; results computed under an
    expired budget are never cached, so the cache holds only exhaustive
    block scans. *)

type t
(** A handle.  Queries add to its block cache, so a handle must be used
    by one thread at a time; distinct handles are independent. *)

val create :
  ?pool:Rtlb_par.Pool.t ->
  ?deadline_ns:int64 ->
  ?tracer:Rtlb_obs.Tracer.t ->
  System.t -> App.t -> t
(** One full analysis on the record engine ({!Est_lct.compute}, then
    the plan, work order, spans and counters of the exhaustive scan of
    {!Lower_bound.all_within} — the {!base} result is bit-identical to
    that composition, merge traces included), capturing per-block scan
    results for later reuse.
    @raise Invalid_argument when the system cannot host some task. *)

val base : t -> Analysis.t
(** The analysis of the unperturbed application. *)

val cached_blocks : t -> int
(** Number of block scan results currently held: the base run's, which
    stay for the handle's life, plus those of recent queries.  The
    latter are dropped together whenever they reach [max 64 b], [b]
    being the base run's count, so a handle answering any number of
    distinct queries holds at most [b + max 64 b]. *)

val instance_fingerprint : System.t -> App.t -> string
(** Stable hex digest of the full instance — every per-task field
    (including names, processor types, demands and preemptability), the
    weighted graph, and the system model.  Equal fingerprints mean the
    analysis inputs are identical, so persisted intermediate results
    (checkpoint files, see {!Rtfmt.Checkpoint}) keyed by it can be
    reused; anything else is stale by construction. *)

val query :
  ?pool:Rtlb_par.Pool.t ->
  ?deadline_ns:int64 ->
  ?tracer:Rtlb_obs.Tracer.t ->
  t -> App.t -> Analysis.t
(** Analysis of a perturbed application, reusing everything outside the
    edit's cone.  Bit-identical to the {!base} of a fresh handle on
    [app], and value-identical to [Analysis.run system app], whenever no
    budget expires (and still a valid partial result when one does —
    cached items count as executed in the coverage fraction). *)

type edit =
  | Set_release of { task : int; release : int }
  | Set_deadline of { task : int; deadline : int }
  | Set_compute of { task : int; compute : int }
      (** Single-field what-if edits, addressed by task id. *)

val apply : App.t -> edit list -> App.t
(** The application with the edits applied left to right.
    @raise Invalid_argument when a task id is out of range or an edit
      breaks [release + compute <= deadline] (see {!Task.with_deadline}
      and friends). *)

val edit :
  ?pool:Rtlb_par.Pool.t ->
  ?deadline_ns:int64 ->
  ?tracer:Rtlb_obs.Tracer.t ->
  t -> edit list -> Analysis.t
(** [query] on [apply (base t).app edits] — the one-call what-if. *)
