(** The application model (paper, Section 2.1): a DAG of {!Task.t} whose
    edges carry message sizes [m_ji] (the communication time from a task to
    an immediate successor when the two are placed on different
    processors/nodes). *)

type t

type columns = {
  names : string array;
  compute : int array;  (** [C_i]. *)
  release : int array;  (** [rel_i]. *)
  deadline : int array;  (** [D_i]. *)
  proc : string array;  (** [phi_i]. *)
  demands : (string * int) list array;
      (** [R_i] with units, as {!Task.t}'s [demands]: names strictly
          ascending, units positive.  Tasks with equal demands may share
          one list. *)
  preemptive : bool array;
}
(** The tasks as columns: entry [i] of each array belongs to the task
    with id [i], and every array has one entry per task. *)

val make : tasks:Task.t list -> edges:(int * int * int) list -> t
(** [make ~tasks ~edges] builds an application.  Task ids must be exactly
    [0 .. n-1]; edges are [(pred, succ, message_size)].
    @raise Invalid_argument on duplicate/missing ids, negative message
      sizes, or malformed edges.
    @raise Dag.Cycle when the precedence relation is cyclic. *)

val of_arrays :
  tasks:Task.t array -> src:int array -> dst:int array -> msg:int array -> t
(** {!make} with the edges as three parallel arrays, edge [k] being
    [(src.(k), dst.(k), msg.(k))]; the arrays are read, not kept.  Same
    checks, in the same order, with the same messages. *)

val of_columns :
  columns -> src:int array -> dst:int array -> msg:int array -> t
(** {!of_arrays} with the tasks given as columns, which are kept, not
    copied: the caller must not write to them afterwards.  Each task
    passes {!Task.check} with its id, in id order; then the edges are
    checked as {!of_arrays} checks them.
    @raise Invalid_argument when the columns differ in length, as
      {!Task.check} does, or as {!of_arrays} does for the edges.
    @raise Dag.Cycle as {!make} does. *)

val n_tasks : t -> int

val columns : t -> columns
(** The task columns.  Shared, not copied: callers must not write to
    the arrays. *)

val task : t -> int -> Task.t
(** Task [i] as the record {!Task.make} builds, made on each call from
    the columns; loops over many tasks read {!columns} instead. *)

val tasks : t -> Task.t array
(** Every task as a record, in id order; a fresh array of fresh
    records. *)

val with_times :
  t -> compute:int array -> release:int array -> deadline:int array -> t
(** The application with its compute, release and deadline columns
    replaced by the given arrays, which are kept, not copied; names,
    processors, demands, preemptability and the graph are shared.
    @raise Invalid_argument as {!of_columns} does for the tasks. *)

val graph : t -> Dag.t

val preds : t -> int -> int list
(** [Pred_i]: immediate predecessors. *)

val succs : t -> int -> int list
(** [Succ_i]: immediate successors. *)

val message : t -> src:int -> dst:int -> int
(** [m_{src,dst}].  @raise Not_found if the edge does not exist. *)

val resource_set : t -> string list
(** The paper's [RES]: every resource and processor type any task uses,
    sorted. *)

val tasks_using : t -> string -> int list
(** [ST_r]: ids of tasks that occupy resource (or processor type) [r],
    in increasing id order. *)

val units : t -> int -> string -> int
(** [Task.units] of task [i], read from the columns. *)

val total_work : t -> string -> int
(** Total computation time of [tasks_using]. *)

val horizon : t -> int
(** The latest deadline in the application. *)

val check_range : t -> (unit, string) result
(** [Error] when the analysis could leave integer range: when
    [4 T + W] exceeds [max_int], [T] being the horizon plus every
    compute and every message, and [W] the sum over tasks of [C] times
    the units the task holds (its processor and every resource unit),
    which bounds every resource's sum of [units * C].  Every time the
    analysis forms is then within [4 T] of zero and every demand within
    [W].  Run where an
    analysis or a what-if edit starts ({!Analysis.check_input},
    {!Incremental.apply}, {!Validate.check_windows}). *)

val critical_time : t -> int
(** Longest chain of computation times ignoring communication — the
    classical critical time [omega] used by the Fernandez–Bussell setting. *)

val map_tasks : t -> f:(Task.t -> Task.t) -> t
(** Rebuilds the application with each task transformed; [f] must preserve
    ids.  Used e.g. to flip preemptability for the Theorem 3/4 comparison. *)

val to_dot : t -> string
val pp : Format.formatter -> t -> unit
