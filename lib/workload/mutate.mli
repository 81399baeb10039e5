(** Structure-preserving instance mutations, for metamorphic testing.

    Each mutation changes an application in a direction with a {e known}
    effect on the analysis: tightening a constraint can only raise lower
    bounds, relaxing one can only lower them.  The test suite applies
    random mutations and checks the predicted monotonicity — a class of
    bug that point tests rarely catch. *)

val tighten_deadline : Rtlb.App.t -> task:int -> by:int -> Rtlb.App.t option
(** Deadline reduced by [by]; [None] when the task's own window would no
    longer fit ([release + compute > deadline]). *)

val relax_deadline : Rtlb.App.t -> task:int -> by:int -> Rtlb.App.t

val delay_release : Rtlb.App.t -> task:int -> by:int -> Rtlb.App.t option
(** Release increased by [by]; [None] when the window would no longer
    fit. *)

val scale_messages : Rtlb.App.t -> percent:int -> Rtlb.App.t
(** Every message size multiplied by [percent/100] (rounded up when
    growing, down when shrinking). *)

val add_edge : Rtlb.App.t -> src:int -> dst:int -> message:int -> Rtlb.App.t option
(** [None] when the edge exists, is a self loop, or would create a
    cycle. *)

val drop_edge : Rtlb.App.t -> src:int -> dst:int -> Rtlb.App.t option
(** [None] when the edge does not exist. *)

val zero_communication : Rtlb.App.t -> Rtlb.App.t
(** All message sizes set to [0] — a pure relaxation. *)
