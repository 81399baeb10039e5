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
    force the exhaustive scan. *)

type t
(** A packed instance.  The window arrays ([est]/[lct]) live inside and
    are computed / updated in place. *)

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

val n_tasks : t -> int

val system : t -> System.t

val app : t -> App.t
(** The application [pack] was given (not a reconstruction). *)

val compute_windows : t -> unit
(** Run the full EST/LCT merge-search sweep over the packed arrays, in
    place; values are bit-identical to [Est_lct.compute]. *)

val recompute_windows : t -> est_dirty:bool array -> lct_dirty:bool array -> unit
(** Re-run the sweep for the marked tasks only, in the same topological
    orders, against the current in-place values — the packed mirror of
    [Est_lct.recompute]; the same dirty-cone closure obligations apply. *)

val set_release : t -> int -> int -> unit
val set_deadline : t -> int -> int -> unit

val set_compute : t -> int -> int -> unit
(** In-place scalar edits (task id, new value).  No validation: callers
    are expected to hold values a [Task.t] already accepted. *)

val copy_base : t -> t
(** Snapshot the mutable arrays (scalars and windows) for later
    {!restore_from}.  Shares all immutable structure. *)

val restore_from : t -> base:t -> unit
(** Blit the snapshot's scalars and windows back, undoing in-place
    edits. *)

val est_array : t -> int array

val lct_array : t -> int array
(** Fresh copies of the current window values. *)

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

val scan_from :
  t ->
  resource:string ->
  int list ->
  int array ->
  int ->
  int * Lower_bound.witness option
(** [scan_from t ~resource tasks pts a]: one left endpoint of one block
    against the current packed windows — the packed, unpruned equivalent
    of [Lower_bound.scan_from], used by the incremental engine's live
    block scans. *)

val default_prune : unit -> bool
(** [true] unless [RTLB_SOA_NO_PRUNE] is set in the environment. *)
