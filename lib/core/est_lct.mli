(** Earliest start times and latest completion times (paper, Section 4).

    For every task [i] this computes a lower bound [E_i] on its start time
    and an upper bound [L_i] on its completion time under {e any} feasible
    assignment, taking communication into account through the merging
    argument: a task may share its processor/node with a mergeable subset
    [A] of its immediate successors (resp. predecessors), which removes the
    message latency to them but serialises their execution after (resp.
    before) [i].

    {b Note on the paper's pseudo-code.}  The boxed algorithms in Figures
    2 and 3 have two defects.  First, they initialise [L_i^0]/[E_i^0]
    from the {e non-mergeable} neighbours only, which would make the
    improvement test at [k = 1] trivially fail; the prose and the worked
    example make clear the intent is to start from the no-merge bound
    over all neighbours.  Second — and this one invalidates the stated
    Theorems 1 and 2 — stopping at the first non-improving merge is not
    optimal: with two predecessors of equal [emr], merging either alone
    gains nothing while merging both does, and the greedy then returns a
    value that is NOT a valid bound (the Case 2a step of the proofs
    assumes the blocking term is the sequential-schedule term, which need
    not hold).  This module implements a corrected, still-polynomial
    search: within every union-closed candidate pool
    ({!System.merge_pools}) the optimal merge set is a threshold prefix in
    message-bound order, so valuing all prefixes of all pools is exact.
    The property suite verifies optimality against exhaustive subset
    enumeration. *)

type decision =
  | Merged of int  (** In the optimal merge set; payload is the bound of
                       the prefix ending here. *)
  | Rejected_no_gain of int
      (** First candidate beyond the optimal prefix; payload is the bound
          with it included (not better). *)

type step = {
  candidate : int;  (** Successor/predecessor task considered. *)
  msg_bound : int;  (** Its [lms] (for LCT) or [emr] (for EST). *)
  decision : decision;
}

type trace = {
  center : int;  (** The task whose bound is being computed. *)
  no_merge_bound : int;  (** [lct_i({})] or [est_i({})]. *)
  steps : step list;  (** In the order candidates were examined. *)
  bound : int;  (** Final [L_i] or [E_i]. *)
  merged : int list;  (** Final [G_i] or [M_i], in merge order. *)
}

type t = {
  est : int array;  (** [E_i]. *)
  lct : int array;  (** [L_i]. *)
  est_merged : int list array;  (** [M_i]. *)
  lct_merged : int list array;  (** [G_i]. *)
  est_trace : trace array;
  lct_trace : trace array;
}

val lms : App.t -> lct:int array -> src:int -> dst:int -> int
(** Latest message-send time of [src] with respect to successor [dst]:
    [L_dst - C_dst - m_{src,dst}]. *)

val emr : App.t -> est:int array -> src:int -> dst:int -> int
(** Earliest message-receive time of [dst] with respect to predecessor
    [src]: [E_src + C_src + m_{src,dst}]. *)

val compute : System.t -> App.t -> t
(** Runs both recursions ([E] in topological order, [L] in reverse
    topological order). *)

val est_of_merge_set : System.t -> App.t -> est:int array -> int -> int list -> int option
(** [est_of_merge_set sys app ~est i a] — Equation 4.5: the earliest start
    time of [i] if exactly the predecessors [a] are co-located with it;
    [None] when [a] (plus [i]) is not mergeable or [a] contains a
    non-predecessor.  Exposed so tests can verify the greedy merge against
    exhaustive enumeration (Theorem 2). *)

val lct_of_merge_set : System.t -> App.t -> lct:int array -> int -> int list -> int option
(** Equation 4.1, mirror of {!est_of_merge_set} (Theorem 1). *)

val windows : t -> Windows.t
(** The EST and LCT arrays alone, shared, not copied; {!Windows.feasible}
    checks them. *)

val pp_trace : App.t -> Format.formatter -> trace -> unit
