(** Directed-acyclic-graph substrate.

    Vertices are the integers [0 .. n-1]; every edge carries an integer
    weight (used by the application model for message sizes).  The
    structure is immutable after construction.

    Provides the graph services the analysis layers need: cycle detection,
    topological orders, predecessor/successor access, reachability and
    weighted longest paths.

    Adjacency is stored as compressed sparse rows, built by counting
    sorts in [O(n + m)]; {!succ_csr} and {!pred_csr} hand the rows out
    for sweeps that read every edge. *)

type t

type csr = { off : int array; adj : int array; weight : int array }
(** Compressed sparse rows: the neighbours of vertex [v] are [adj.(p)],
    ascending, for [p] from [off.(v)] to [off.(v + 1) - 1], and
    [weight.(p)] is the weight of the edge to [adj.(p)].  [off] has
    [n + 1] entries. *)

exception Cycle of int list
(** Raised by {!create} when the edge set contains a cycle; the payload is
    one offending cycle as a vertex list. *)

val create : n:int -> edges:(int * int * int) list -> t
(** [create ~n ~edges] builds a DAG with vertices [0..n-1] and edges
    [(src, dst, weight)].
    @raise Invalid_argument on an out-of-range endpoint or a self loop
      (the first in list order), else on a duplicated edge (the one with
      the smallest [(src, dst)]).
    @raise Cycle if the edges are cyclic. *)

val of_arrays :
  n:int -> src:int array -> dst:int array -> weight:int array -> t
(** [of_arrays ~n ~src ~dst ~weight] is {!create} with the edge list given
    as three parallel arrays, edge [k] being
    [(src.(k), dst.(k), weight.(k))]; it reads them and keeps none.
    @raise Invalid_argument as {!create} does, or when the arrays differ
      in length.
    @raise Cycle as {!create} does. *)

val n_vertices : t -> int
val n_edges : t -> int

val succ_csr : t -> csr
(** The successor rows: [(dst, weight)] of every edge, grouped by
    [src].  Shared, not copied: callers must not write to the arrays. *)

val pred_csr : t -> csr
(** The predecessor rows: [(src, weight)] of every edge, grouped by
    [dst].  Shared, not copied, like {!succ_csr}. *)

val succs : t -> int -> (int * int) list
(** [(dst, weight)] pairs, in increasing [dst] order.  This and the
    three functions below build a fresh list on each call. *)

val preds : t -> int -> (int * int) list
(** [(src, weight)] pairs, in increasing [src] order. *)

val succ_ids : t -> int -> int list
val pred_ids : t -> int -> int list
val edge_weight : t -> src:int -> dst:int -> int option
(** A binary search in the successor row of [src]. *)

val sources : t -> int list
(** Vertices without predecessors. *)

val sinks : t -> int list
(** Vertices without successors. *)

val topological_order : t -> int array
(** A topological order (sources first); stable across calls. *)

val reverse_topological_order : t -> int array

val reachable : t -> int -> bool array
(** [reachable g v] marks every vertex reachable from [v] (including [v]). *)

val transitive_closure : t -> bool array array
(** [closure.(i).(j)] iff there is a path from [i] to [j] ([i <> j]). *)

val longest_path_lengths : t -> vertex_weight:(int -> int) -> int array
(** [longest_path_lengths g ~vertex_weight] gives, for each vertex [v], the
    maximum total vertex weight of a path ending at (and including) [v].
    Edge weights are not counted; see {!longest_path_with_edges}. *)

val longest_path_with_edges : t -> vertex_weight:(int -> int) -> int array
(** Same, but each traversed edge also contributes its weight — the
    communication-aware critical path. *)

val critical_path_length : t -> vertex_weight:(int -> int) -> int
(** Maximum over sinks of {!longest_path_lengths}. *)

val map_weights : t -> f:(src:int -> dst:int -> int -> int) -> t

val fold_edges : t -> init:'a -> f:('a -> src:int -> dst:int -> int -> 'a) -> 'a

val to_dot : ?name:string -> ?label:(int -> string) -> t -> string
(** Graphviz rendering (vertex labels default to indices; edge labels are
    weights). *)
