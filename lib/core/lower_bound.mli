(** Resource lower bounds (paper, Section 6).

    For a resource [r], the demand of the application on an interval is
    [Theta(r, t1, t2) = sum over ST_r of Psi(i, t1, t2)]; no [LB_r]-unit
    system can be feasible unless
    [LB_r >= ceil(Theta(r, t1, t2) / (t2 - t1))] for every interval, so

    {[ LB_r = max over intervals ceil(Theta / length) ]}

    evaluated over the intervals spanned by the candidate points (the ESTs
    and LCTs of the tasks in [ST_r], as the paper suggests), block by
    block of the Section 5 partition. *)

type witness = {
  w_t1 : int;
  w_t2 : int;
  w_theta : int;  (** Demand over [\[w_t1, w_t2\]]. *)
}

type bound = {
  resource : string;
  lb : int;  (** [LB_r]. *)
  witness : witness option;  (** An interval attaining the maximum;
                                 [None] when [ST_r] is empty. *)
  partition : Partition.t;  (** The Section 5 partition of [ST_r]. *)
}

type point_policy =
  [ `Endpoints  (** Task ESTs and LCTs — the paper's suggestion. *)
  | `Enriched
    (** Additionally each task's earliest finish [E_i + C_i] and latest
        start [L_i - C_i], the natural breakpoints of the overlap
        function.  More points can only raise the evaluated bound
        (closer to the exact [LB_r]) at quadratic extra scan cost. *) ]

val theta :
  ?resource:string ->
  est:int array -> lct:int array -> App.t -> int list -> t1:int -> t2:int -> int
(** [theta ~est ~lct app tasks ~t1 ~t2]: total mandatory demand of [tasks]
    on the interval.  With [?resource], each task's overlap is weighted by
    the units of that resource it holds (multi-unit demands); without it,
    every task weighs one unit (correct for processor types).

    This is the naive O(tasks) summation — the reference the prefix-sum
    kernel below is tested against, and what one-off queries (witness
    checks, demand profiles at a single window) should keep using. *)

(** Prefix-sum evaluation of [Theta(r, t1, .)] for a fixed left endpoint.

    For fixed [t1], each task's Theorem 3/4 overlap is a clamped ramp in
    [t2] (0, then slope [w], then a plateau at [w * K]); {!Theta_kernel.make}
    accumulates the breakpoints of all tasks into prefix-summed
    (slope, intercept) arrays once, after which {!Theta_kernel.eval}
    answers any [t2] in O(log tasks).  The candidate-interval scan thus
    costs O(p^2 log n) per block instead of O(p^2 n), with values {e
    bit-identical} to {!theta} (the tests cross-check, including
    infeasible windows, where the overlap gate cuts the ramp short). *)
module Theta_kernel : sig
  type t

  val make :
    ?resource:string ->
    est:int array -> lct:int array -> App.t -> int list -> t1:int -> t

  val eval : t -> t2:int -> int
  (** Equals [theta ?resource ~est ~lct app tasks ~t1 ~t2] for every
      [t2 > t1]. *)
end

val candidate_points :
  ?policy:point_policy ->
  est:int array -> lct:int array -> ?compute:int array -> int list -> lo:int -> hi:int -> int list
(** Sorted, deduplicated candidate points of the tasks, clipped to
    [\[lo, hi\]], with [lo] and [hi] included.  [policy] defaults to
    [`Endpoints]; [`Enriched] requires [compute]. *)

(** {2 Scan toolkit}

    The three primitives below are the unit operations of the
    candidate-interval scan, exposed so the {!Incremental} engine can
    rebuild exactly the per-block slices of the plan that an edit
    dirtied while folding cached results for the rest.  Folding
    {!scan_from} results for every left endpoint of every block with
    {!merge_scans}, block by block in partition order, reproduces
    {!all} bit-identically. *)

val merge_scans :
  int * witness option -> int * witness option -> int * witness option
(** Keep the better of two scan results; ties keep the {e first}
    argument, exactly like the sequential loops.  Associative, so
    per-interval results may be folded per block and then per resource
    without changing the winning witness. *)

val block_points :
  ?policy:point_policy ->
  est:int array -> lct:int array -> App.t -> int list -> lo:int -> hi:int ->
  int array
(** The candidate points of one partition block, as the sorted scan
    array ({!candidate_points} with compute times read from the task
    records).  Costs [O(p log p)] in the block's own points [p],
    independent of the application's size. *)

val scan_from :
  ?resource:string ->
  est:int array -> lct:int array -> App.t -> int list -> int array -> int ->
  int * witness option
(** [scan_from ~est ~lct app block pts a]: the densest interval starting
    at [pts.(a)] — one {!Theta_kernel} for the fixed left endpoint, one
    O(log n) evaluation per right endpoint.  This is the unit of
    parallel work in {!all_within}. *)

val for_resource :
  ?policy:point_policy ->
  est:int array -> lct:int array -> App.t -> string -> bound
(** [LB_r] for one resource, using the partition-and-scan scheme. *)

val for_resource_unpartitioned :
  ?policy:point_policy ->
  est:int array -> lct:int array -> App.t -> string -> bound
(** Same bound computed with a single scan over all candidate-point
    intervals ([O(N^2)] of them) and a trivial one-block partition —
    Theorem 5 guarantees the same value; kept for testing and for the
    partitioning-payoff benchmark. *)

val all :
  ?policy:point_policy ->
  ?pool:Rtlb_par.Pool.t ->
  ?tracer:Rtlb_obs.Tracer.t ->
  est:int array -> lct:int array -> App.t -> bound list
(** One bound per element of the application's [RES], in [RES] order.
    With [?pool], every (resource, partition block) scan is fanned out
    across the pool's domains and the per-resource results are merged in
    partition order — the output (bounds, witnesses and partitions) is
    bit-identical to the sequential path.

    With [?tracer], the scan is instrumented: ["plan"] and ["reduce"]
    spans, per-chunk worker spans via the pool, and the
    [Tasks_scanned] / [Candidate_intervals] / [Theta_evals] counters
    (see {!Rtlb_obs.Tracer}).  Tracing does not change the result. *)

type completeness =
  [ `Complete
  | `Partial of float
    (** Fraction of candidate-interval scans that ran before the budget
        expired, in [\[0, 1)]. *) ]

val all_within :
  ?policy:point_policy ->
  ?pool:Rtlb_par.Pool.t ->
  ?deadline_ns:int64 ->
  ?tracer:Rtlb_obs.Tracer.t ->
  est:int array -> lct:int array -> App.t -> bound list * completeness
(** Anytime variant of {!all}: the candidate-interval scans stop
    claiming work once [deadline_ns] ({!Rtlb_par.Pool.now_ns} base)
    passes, and the bounds reflect the best interval found so far —
    each still a valid lower bound with a real witness, possibly below
    the exhaustive value.  Whenever the budget is not hit the result is
    [`Complete] and bit-identical to {!all} (which is this function
    without a deadline). *)

val pp_bound : Format.formatter -> bound -> unit
