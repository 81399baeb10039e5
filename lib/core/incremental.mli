(** Incremental analysis for sweeps and what-if queries.

    A handle built from one full analysis answers perturbed queries by
    recomputing only what the perturbation can reach.  It keeps the
    packed instance of its base ({!Soa}), and an edit changes that
    instance in place and restores it before returning or raising:

    - EST values depend only on releases, computes, messages and
      predecessors; LCT values only on deadlines, computes, messages and
      successors.  A deadline edit therefore re-sweeps the edited tasks
      and their ancestors in the LCT pass {e only}, a release edit the
      descendant cone of the EST pass, and a compute edit both.
    - Partitions and candidate points are rebuilt only for resources
      some member of which moved its (EST, LCT, compute) tuple; any
      other resource reuses its base bound, witness and partition
      whole.
    - Within a rebuilt resource, blocks whose member tuples are
      unchanged reuse their cached [(lb, witness)] via a
      {!Lower_bound.merge_scans} fold, which is associative with an
      earlier-wins tie-break; the other blocks are scanned with
      {!Soa}'s pruning, which keeps each block's own result.  So query
      results are value-identical to {!Analysis.run} on the perturbed
      application (property-tested across random instances and edit
      sequences, against it and the record oracle).  As in
      {!Analysis.run}, merge sets and traces are left empty.

    Queries on applications that differ in anything beyond the
    release/compute/deadline triples (names, processors, demands,
    preemptability, graph shape) fall back to a cold run transparently.

    With a [?tracer], queries report [Cache_hits] (block results served
    from the cache, wholesale-reused resources counted block by block),
    [Cone_tasks] (per-direction EST/LCT re-sweeps; a deadline-only edit
    reports no EST work) and the {!Soa.bounds} counters of the blocks
    they scan, pruned work excluded.  A [?deadline_ns] budget is
    honoured exactly as in {!Analysis.run}; results computed under an
    expired budget are never cached, so the cache holds only complete
    block scans. *)

type t
(** A handle.  Queries edit its packed instance and add to its block
    cache, so a handle must be used by one thread at a time; distinct
    handles are independent. *)

val create :
  ?pool:Rtlb_par.Pool.t ->
  ?deadline_ns:int64 ->
  ?tracer:Rtlb_obs.Tracer.t ->
  System.t -> App.t -> t
(** One full analysis on the packed engine, as {!Analysis.run} runs it
    (the {!base} result is value-identical to it), capturing per-block
    scan results for later reuse.
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
    edit's cone.  Value-identical to [Analysis.run system app] whenever
    no budget expires (and still a valid partial result when one does —
    cached items count as executed in the coverage fraction).  The
    tasks whose release, deadline or compute differ from the base are
    edited; any other difference builds a cold handle. *)

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
(** [query] on [apply (base t).app edits] — the one-call what-if.  It
    validates through {!apply} before it changes anything, so a rejected
    edit leaves the handle as it was.
    @raise Invalid_argument as {!apply} does. *)
