(** Structure-of-arrays analysis engine.

    [pack] compiles an instance once into contiguous [Bigarray] int
    arrays — per-task scalars and a per-resource member table — and the
    EST/LCT merge-search sweep, the Section-5 partition and the Theta
    prefix-sum interval scan all iterate over those arrays, and over the
    CSR successor/predecessor rows of the instance's {!Dag} (read in
    place, not copied), with no per-task allocation.  This is the engine
    behind {!Analysis.run}.  Results (windows, bounds, witnesses,
    partitions) are bit-identical to the record path ({!Est_lct} /
    {!Lower_bound}); the only divergence is that merge sets and
    {e traces} are left empty — {!Est_lct.compute} records them.

    The interval scan adds {e candidate-interval dominance pruning}: an
    O(n log p) precomputation bounds the kernel total for every left
    endpoint, and intervals whose ceiling density upper bound falls
    strictly below the block's incumbent are skipped.  Pruning is
    strict-inequality only and incumbents are per partition block, so
    the earliest winning witness of the exhaustive fold always survives
    — on the sequential and the {!Rtlb_par.Pool} path alike.  Set
    [RTLB_SOA_NO_PRUNE] in the environment (or pass [~prune:false]) to
    force the exhaustive scan.

    {b Threads.}  Distinct packed instances may be analysed at the same
    time from any mix of domains and systhreads: the sweep keeps its
    scratch space in its instance and the scan per call (a domain's
    spare Theta-kernel workspace is taken out for the length of one scan
    item, never shared).  One instance must not be used from two threads
    at once, since {!compute_windows} writes its window arrays. *)

type t
(** A packed instance.  The window arrays ([est]/[lct]) live inside and
    are computed in place. *)

val pack : System.t -> App.t -> t
(** Compile an instance into packed arrays.  Window arrays start
    uninitialised; call {!compute_windows}.  Dedicated systems with any
    number of node types are supported: hostability takes one mask word
    per task for up to 61 node types (on 64-bit), one more word per
    further 61. *)

val unpack : t -> App.t
(** Rebuild the application from the packed arrays alone (names, task
    scalars, demands from the resource table, edges from the CSR rows).
    [unpack (pack s app)] is structurally equal to [app]. *)

val compute_windows : t -> unit
(** Run the full EST/LCT merge-search sweep over the packed arrays, in
    place; values are bit-identical to [Est_lct.compute].  The sweep is
    first-order and reuses its instance's scratch, so it allocates no
    minor words unless a task has more neighbours than any before. *)

val windows : t -> Est_lct.t
(** The windows as the record type: values copied from the packed
    arrays, merge sets and traces empty. *)

val bounds :
  ?prune:bool ->
  ?pool:Rtlb_par.Pool.t ->
  ?deadline_ns:int64 ->
  ?tracer:Rtlb_obs.Tracer.t ->
  t ->
  Lower_bound.bound list * Lower_bound.completeness
(** The per-resource lower bounds from the current windows, via the
    packed partition + pruned interval scan.  Work items, fold order,
    [Tasks_scanned]/[Theta_evals]/[Candidate_intervals] accounting and
    the [?deadline_ns] partial semantics mirror
    [Lower_bound.all_within]; with pruning, [Theta_evals] counts only
    the evaluations actually executed.  [prune] defaults to [true]
    unless [RTLB_SOA_NO_PRUNE] is set. *)

val default_prune : unit -> bool
(** [true] unless [RTLB_SOA_NO_PRUNE] is set in the environment. *)
