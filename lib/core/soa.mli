(** Structure-of-arrays analysis engine.

    [pack] compiles an instance once into contiguous [Bigarray] int
    arrays — per-task scalars and a per-resource member table — and the
    EST/LCT merge-search sweep, the Section-5 partition and the Theta
    prefix-sum interval scan all iterate over those arrays, and over the
    CSR successor/predecessor rows of the instance's {!Dag} (read in
    place, not copied), with no per-task allocation.  This is the engine
    behind {!Analysis.run} and {!Incremental}.  Results (windows,
    bounds, witnesses, partitions) are bit-identical to the record path
    ({!Est_lct} / {!Lower_bound}); the only divergence is that merge
    sets and {e traces} are left empty — {!Est_lct.compute} records
    them.

    The interval scan adds {e candidate-interval dominance pruning}: an
    O(n + span) precomputation per block (O(n log p) on a block too wide
    to bucket) bounds the kernel total for every left endpoint, and
    intervals whose ceiling density upper bound falls strictly below the
    block's incumbent are skipped.  Each left endpoint's Theta kernel is
    built in O(n) per-slot buckets over the block's candidate points and
    read by one forward cursor, O(1) amortised per right endpoint.  Pruning is
    strict-inequality only and incumbents are per partition block, so
    the earliest winning witness of the exhaustive fold always survives
    — on the sequential and the {!Rtlb_par.Pool} path alike.  Set
    [RTLB_SOA_NO_PRUNE] in the environment (or pass [~prune:false]) to
    force the exhaustive scan.

    Pruning therefore never changes a block's own result: a pruned block
    scan returns the exhaustive block's [(lb, witness)], which is what
    lets {!scan} cache block results across edits.

    {b Threads.}  Distinct packed instances may be analysed at the same
    time from any mix of domains and systhreads: the sweep keeps its
    scratch space in its instance and the scan per call (a domain's
    spare Theta-kernel workspace is taken out for the length of one scan
    item, never shared).  One instance must not be used from two threads
    at once, since {!compute_windows} and the edits below write its
    arrays. *)

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

(** {2 In-place what-ifs}

    {!Incremental} edits one packed instance in place: {!edit_task}
    writes a task's scalars, {!sweep_cone} re-sweeps what they reach,
    {!scan} rescans what moved, and {!restore} puts the base back. *)

type known = { k_scan : int * Lower_bound.witness option; k_items : int }
(** A block's folded scan and its number of work items. *)

type resource_scan = {
  r_bound : Lower_bound.bound;
  r_items : int;  (** Work items of its scannable blocks. *)
  r_blocks : int;  (** Its scannable blocks. *)
  r_complete : bool;  (** Every item ran or was known. *)
}

type cache = {
  c_base : resource_scan array;
      (** Per resource, RES order; [[||]] reuses none. *)
  c_find : int array -> known option;
  c_keep : int array -> known -> unit;
}
(** Block results across scans, by block key: the resource index, then
    each member's id, EST, LCT and compute in partition order. *)

val scan :
  ?prune:bool ->
  ?pool:Rtlb_par.Pool.t ->
  ?deadline_ns:int64 ->
  ?tracer:Rtlb_obs.Tracer.t ->
  ?cache:cache ->
  t ->
  resource_scan array * Lower_bound.completeness
(** {!bounds} with per-resource detail.  With a [cache], a resource
    whose base scan is complete and none of whose members moved in the
    current edit is [c_base]'s entry, a block [c_find] knows is folded
    from it, and every other block is scanned and, if every item ran,
    given to [c_keep].  Known and reused items count as executed, and
    [Cache_hits] counts known blocks and the blocks of reused
    resources. *)

val edit_task : t -> int -> release:int -> deadline:int -> compute:int -> unit
(** Write task [i]'s scalars and mark it for {!sweep_cone}: the EST
    cone if its release or compute differs from the current one, the
    LCT cone if its deadline or compute does. *)

val sweep_cone : t -> int
(** Close the marks over successors (EST, topological order) and
    predecessors (LCT, reverse order) and re-sweep each marked task in
    place.  Returns the cone size: EST plus LCT re-sweeps. *)

val restore : t -> App.t -> Est_lct.t -> unit
(** Put back, for every task an edit touched, its scalars from [app]
    and its windows from the given ones, and clear the marks. *)
