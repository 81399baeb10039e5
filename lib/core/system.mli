(** Distributed-system models (paper, Section 2.2).

    Two architectures:
    - {b shared}: every resource is reachable from every processor; a task
      may run on any processor of its type.  Costs are per resource/
      processor unit.
    - {b dedicated}: the system is assembled from node types, each a
      processor type plus a fixed bag of resources; a task runs only on a
      node that provides its processor type and all its resources.  Costs
      are per node.

    The model determines {e mergeability} (Definitions 1 and 2): whether a
    set of tasks could execute on one processor/node, which drives the
    EST/LCT merging analysis. *)

type node_type = {
  nt_name : string;
  nt_proc : string;  (** Processor type of the node. *)
  nt_provides : (string * int) list;
      (** Resource units on the node, sorted by name, counts [>= 1];
          does not include the processor itself. *)
  nt_cost : int;  (** [CostN(n)]. *)
}

type t = private
  | Shared of (string * int) list
      (** Unit cost [CostR(r)] per resource/processor type, sorted. *)
  | Dedicated of node_type list

val shared : costs:(string * int) list -> t
(** @raise Invalid_argument on duplicate names or negative costs. *)

val shared_uniform : resources:string list -> t
(** Shared model with unit costs of [1] — convenient when only the
    resource-count bounds matter. *)

val node_type :
  name:string ->
  proc:string ->
  ?provides:(string * int) list ->
  ?cost:int ->
  unit ->
  node_type

val dedicated : node_type list -> t
(** @raise Invalid_argument on duplicate node-type names or an empty
    catalogue. *)

val resource_cost : t -> string -> int
(** Unit cost of a resource in the shared model.
    @raise Invalid_argument on a dedicated system or unknown resource. *)

val node_types : t -> node_type list
(** Catalogue [Lambda] ([] for a shared system). *)

val node_provides : node_type -> string -> int
(** Units of resource [r] on the node; counts the processor type itself as
    one unit (the paper's [gamma_nr]). *)

val node_can_host : node_type -> Task.t -> bool
(** The node has the task's processor type and every resource it needs. *)

val can_host : node_type -> proc:string -> demands:(string * int) list -> bool
(** {!node_can_host} on a task's processor type and demands. *)

val eligible_nodes : t -> Task.t -> node_type list
(** [eta_i]: node types on which the task can execute (dedicated model). *)

val merge_pools : t -> App.t -> center:int -> int list -> int list list
(** [merge_pools system app ~center candidates] splits the candidates that
    are individually mergeable with [center] into {e pools} such that (a)
    every subset of a pool (together with [center]) is mergeable, and (b)
    every set mergeable with [center] is contained in some pool.  For the
    shared model there is one pool (the same-processor candidates); for
    the dedicated model, one pool per node type that can host [center].
    The EST/LCT analysis only needs to search prefix merges inside each
    pool (see {!Est_lct}). *)

val mergeable : t -> App.t -> int list -> bool
(** [mergeable system app ids] — Definitions 1/2: the tasks can all be
    placed on one processor (shared: identical processor types) or on one
    node (dedicated: additionally some node type covers the union of their
    resource needs).  Vacuously true for fewer than two tasks. *)

val validate_for : t -> App.t -> (unit, string) result
(** Checks the paper's standing assumption: every task has at least one
    processor/node of the appropriate kind in the model (for the shared
    model this is trivially true; for the dedicated model each task needs
    an eligible node type). *)

val pp : Format.formatter -> t -> unit
