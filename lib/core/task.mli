(** Application tasks (paper, Section 2.1).

    A task carries every per-vertex annotation of the application DAG:
    computation time [C_i], release time [rel_i], deadline [D_i], processor
    type [phi_i], resource requirements [R_i], and preemptability.  Time is
    discrete ([int]): all quantities the analysis derives are +/-/min/max
    combinations of these inputs, so integer time is exact. *)

type t = private {
  id : int;  (** Index of the task's vertex in the application DAG. *)
  name : string;
  compute : int;  (** [C_i >= 0]; [0] marks a milestone/synchronisation task. *)
  release : int;  (** [rel_i >= 0]. *)
  deadline : int;  (** [D_i]. *)
  proc : string;  (** [phi_i], the required processor type. *)
  resources : string list;  (** [R_i], sorted and deduplicated; excludes [proc]. *)
  demands : (string * int) list;
      (** Units required per resource, sorted by name; listing a resource
          [k] times in [make]'s [resources] demands [k] units held
          simultaneously. *)
  preemptive : bool;
}

val make :
  id:int ->
  ?name:string ->
  compute:int ->
  ?release:int ->
  deadline:int ->
  proc:string ->
  ?resources:string list ->
  ?preemptive:bool ->
  unit ->
  t
(** Smart constructor; [name] defaults to ["T<id+1>"], [release] to [0],
    [resources] to [[]], [preemptive] to [false] (the common hard-real-time
    case, and the paper example's setting).  A resource listed [k] times
    demands [k] units simultaneously (e.g. a task DMA-ing through two bus
    channels lists ["bus"; "bus"]).
    @raise Invalid_argument when [compute < 0], [release < 0],
      [release + compute > deadline], or [proc = ""]. *)

val window_holds : release:int -> compute:int -> deadline:int -> bool
(** [release + compute <= deadline] for non-negative [release] and
    [compute], decided without forming the sum, which can wrap past
    [max_int]. *)

val needs : t -> string list
(** [R_i] together with [phi_i] — everything the task occupies while it
    runs.  This is the per-task slice of the paper's [RES]. *)

val uses : t -> string -> bool
(** [uses t r] is true when [r] is the processor type or a resource of [t]. *)

val units : t -> string -> int
(** Units of [r] the task holds while running: [1] for its processor
    type, the demanded count for resources, [0] otherwise. *)

val laxity : t -> int
(** [deadline - release - compute]: slack available before any graph
    constraints are considered. *)

val with_preemptive : t -> bool -> t
(** Same task with preemptability replaced (for Theorem 3/4 comparisons). *)

val with_deadline : t -> int -> t
(** Same task with the deadline replaced.
    @raise Invalid_argument when the new deadline is too tight. *)

val with_release : t -> int -> t
(** Same task with the release time replaced.
    @raise Invalid_argument when negative or [release + compute] exceeds
      the deadline. *)

val with_compute : t -> int -> t
(** Same task with the computation time replaced.
    @raise Invalid_argument when negative or the window cannot hold it. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
