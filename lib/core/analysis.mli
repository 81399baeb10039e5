(** End-to-end lower-bound analysis: the paper's four steps in one call. *)

type t = {
  app : App.t;
  system : System.t;
  windows : Windows.t;
      (** Step 1: EST/LCT values, the arrays the packed sweep filled.
          Run {!Est_lct.compute} for the merge sets and traces. *)
  bounds : Lower_bound.bound list;
      (** Steps 2 and 3: per-resource partitions and bounds, in [RES]
          order. *)
  cost : Cost.outcome;  (** Step 4. *)
  completeness : Lower_bound.completeness;
      (** [`Complete] unless a [?deadline_ns] budget expired mid-scan, in
          which case the bounds (and the cost derived from them) are
          best-so-far: still valid lower bounds, possibly below the
          exhaustive values. *)
}

val run :
  ?prune:bool ->
  ?pool:Rtlb_par.Pool.t ->
  ?deadline_ns:int64 ->
  ?tracer:Rtlb_obs.Tracer.t ->
  System.t -> App.t -> t
(** Runs all four steps on the packed engine ({!Soa}): the instance is
    packed once, then the EST/LCT sweep, the Section 5 partition, the
    dominance-pruned interval scan ({!Soa.bounds}) and {!Cost.compute}.
    Windows, bounds, witnesses, partitions and cost are bit-identical to
    the record composition ({!Est_lct.compute}, {!Lower_bound.all_within},
    {!Cost.compute}).  [prune] defaults to {!Soa.default_prune}; pruning
    never changes the result, only the number of Theta evaluations.

    With [?pool], the Step 3 scans are distributed across the pool's
    domains; the result is bit-identical to the sequential run.  With
    [?deadline_ns] ({!Rtlb_par.Pool.now_ns} base) the Step 3 scans stop
    claiming work at the deadline and the result is tagged [`Partial]
    with its coverage fraction — bit-identical to the full result
    whenever the budget is not hit.

    With [?tracer] ({!Rtlb_obs.Tracer}) the run is instrumented: an
    ["analyze"] root span with ["pack"] / ["est_lct"] / ["lower_bounds"]
    (["plan"], ["reduce"]) / ["cost"] phase children, the
    [Tasks_scanned] / [Candidate_intervals] / [Theta_evals] counters of
    {!Soa.bounds} (pruned intervals are counted as candidates but not as
    evaluations), and per-worker chunk accounting from the pool.  The
    default is the zero-cost no-op tracer, and a traced run returns
    bit-identical results — tracing is observation only.

    [run] is safe to call concurrently, from several domains or from
    several systhreads of one domain: each call packs its own instance
    and takes its scratch space for itself (see {!Soa}), so each returns
    exactly what it would return alone.
    @raise Invalid_argument when {!check_input} fails; run
      {!Validate.check} first to get diagnostics instead of an
      exception. *)

val windows : System.t -> App.t -> Windows.t
(** Step 1 alone: the windows {!run} returns, from the packed sweep,
    without the bounds.  Unlike {!run} it does not run {!check_input};
    callers that may hold an out-of-range instance run it first. *)

val check_input : System.t -> App.t -> (unit, string) result
(** What {!run} and {!Incremental.create} require of an instance: a
    system model that can host every task ({!System.validate_for}) and
    quantities the analysis can sum without leaving integer range
    ({!App.check_range}). *)

val is_partial : t -> bool
val coverage : t -> float
(** Fraction of interval scans that ran ([1.0] when complete). *)

val bound_for : t -> string -> int
(** [LB_r] by resource name.  @raise Not_found for a resource outside
    [RES]. *)

val total_processors : t -> int
(** Sum of [LB_p] over the processor types that occur in the application —
    a quick headline number for benchmarks. *)

val is_infeasible : t -> bool
(** True when the analysis already proves no system of this model can meet
    the constraints (some task window is smaller than its computation
    time). *)

val pp : Format.formatter -> t -> unit
(** Multi-line report: windows, partitions, bounds and cost; partial
    results are flagged. *)
