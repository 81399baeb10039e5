(** Task windows (paper, Section 4): the earliest start time [E_i] and
    the latest completion time [L_i] of every task, as two arrays
    indexed by task id.  This is what {!Analysis.run} returns; the merge
    sets and traces that explain each value come only from
    {!Est_lct.compute}. *)

type t = { est : int array;  (** [E_i]. *) lct : int array  (** [L_i]. *) }

val feasible : App.t -> t -> (unit, string) result
(** Checks the necessary condition [E_i + C_i <= L_i] for every task; an
    [Error] lists the tasks whose windows are too small — the
    application cannot be feasible on any system of the given model. *)
