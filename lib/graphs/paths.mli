(** Path and ordering algorithms on {!Digraph.t}.

    The temporal dependency graph machinery of the cΣ-Model needs DAG
    checks, reachability closures and maximal (longest) weighted distances;
    the paper computes the latter with Floyd–Warshall on negated weights,
    which {!max_distances} mirrors. *)

val bfs_distances : Digraph.t -> int -> int array
(** Hop distances from a source; [-1] marks unreachable nodes. *)

val reachability : Digraph.t -> bool array array
(** [reachability g] is the transitive closure: [(closure.(u)).(v)] is true
    iff there is a (possibly empty) path u→v.  Diagonal entries are true. *)

val topological_sort : Digraph.t -> int list option
(** [Some order] (sources first) when the graph is acyclic, [None]
    otherwise. *)

val is_acyclic : Digraph.t -> bool

val floyd_warshall : Digraph.t -> weight:(Digraph.edge -> float) -> float array array
(** All-pairs shortest path weights; [infinity] marks unreachable pairs and
    the diagonal is 0.  Negative cycles produce negative diagonal entries
    (callers must check when weights can be negative). *)

val max_distances : Digraph.t -> weight:(Digraph.edge -> float) -> float array array
(** All-pairs {e longest} path weights on an acyclic graph, computed — as
    in the paper — by Floyd–Warshall on negated weights.  Unreachable pairs
    are 0 (the paper's convention for [dist_max]); the diagonal is 0.
    @raise Invalid_argument when the graph has a cycle. *)

val shortest_path : Digraph.t -> src:int -> dst:int -> int list option
(** Minimum-hop path as a node list (inclusive), [None] if unreachable. *)

(** {2 Weighted shortest paths and k-shortest simple paths}

    The column-generation flow layer prices substrate paths per virtual
    link; everything below is deterministic — ties on distance resolve to
    the smallest node id inside Dijkstra, and candidate paths order by
    (cost, then edge-id sequence lexicographically) — so generated
    columns are a pure function of the graph and the weights, whatever
    the parallel schedule.

    All three searches run one Dijkstra kernel: a binary heap keyed by
    (distance, node) over {!Digraph.csr}, with stamped per-domain
    scratch, that stops once the destination is settled.  Because of
    that early exit, each entry point checks {e every} edge's weight
    before it searches: one negative weight anywhere in the graph raises
    [Invalid_argument "Paths: negative arc weight"], even on an edge no
    path to the destination uses. *)

type weighted_path = {
  edges : int list;  (** edge ids in path order; [[]] iff src = dst *)
  cost : float;
}

val path_nodes : Digraph.t -> weighted_path -> src:int -> int list
(** The node sequence of a path (inclusive of both endpoints). *)

val compare_paths : weighted_path -> weighted_path -> int
(** Total order: cost, then edge ids lexicographically. *)

val shortest_weighted_path :
  Digraph.t ->
  weight:(Digraph.edge -> float) ->
  src:int ->
  dst:int ->
  weighted_path option
(** Cheapest path under nonnegative arc weights; [None] if unreachable.
    [src = dst] yields the empty path of cost 0.  [weight] is called once
    per edge, in id order.
    @raise Invalid_argument on a bad endpoint or a negative weight on any
    edge. *)

val k_shortest_paths :
  Digraph.t ->
  weight:(Digraph.edge -> float) ->
  src:int ->
  dst:int ->
  k:int ->
  weighted_path list
(** Yen's algorithm: up to [k] {e simple} paths in ascending
    [compare_paths] order (fewer when the graph runs out).  Deterministic
    by the same tie-breaks.  [src = dst] yields just the empty path.
    @raise Invalid_argument on a bad endpoint or, when [k > 0] and
    [src <> dst], a negative weight on any edge. *)

(** Reduced-cost shortest-path pricing for the restricted master of the
    path-form flow layer: a commodity is one virtual link with
    dual-adjusted arc costs and the dual of its convexity row as the
    price threshold. *)
module Pricer : sig
  type commodity = {
    src : int;
    dst : int;
    arc_cost : float array;
        (** dual-adjusted cost per edge id, >= 0; at least
            [Digraph.num_edges] long.  Only read during {!price}, so one
            buffer can serve every commodity in turn. *)
    threshold : float;
        (** a path prices in when [cost(p) - threshold < -eps] *)
  }

  type verdict = {
    path : weighted_path option;
    reduced_cost : float;
        (** [cost(path) - threshold]; [infinity] when the destination is
            unreachable *)
  }

  val price : Digraph.t -> commodity -> verdict
  (** The cheapest path under [arc_cost] and its reduced cost.
      @raise Invalid_argument on a bad endpoint, a short [arc_cost] or a
      negative entry among its first [Digraph.num_edges]. *)

  val improves : eps:float -> verdict -> bool
  (** Whether the verdict's column strictly prices in ([reduced_cost <
      -eps]). *)
end
