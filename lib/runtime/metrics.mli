(** Named solve metrics: counters, gauges and histograms.

    A registry is a bag of named instruments that instrumented layers
    update as they run and that merges across domains the same way
    {!Stats.merge} does — the branch-and-bound's per-node registries are
    folded back into the solve's registry in deterministic merge order,
    so the aggregated values are identical at every [jobs] level.

    Three instrument kinds, in disjoint namespaces:

    - {b counters}: monotonic integers; merge adds them;
    - {b gauges}: last-written floats; merge keeps the {e maximum} (the
      only order-free combination, which keeps merge associative and
      commutative — use gauges for high-water marks);
    - {b histograms}: every observed sample is kept, so percentiles are
      exact; merge concatenates sample lists ([into]'s samples first),
      which is associative.

    Registries are not domain-safe: one domain writes a registry at a
    time, and cross-domain aggregation goes through {!merge} on the
    merging domain (exactly like {!Stats}). *)

type t

val create : unit -> t
(** An empty registry. *)

val incr : ?by:int -> t -> string -> unit
(** Bump a counter (created at 0 on first use).  [by] defaults to 1. *)

val set_gauge : t -> string -> float -> unit
(** Write a gauge.  {!merge} keeps the maximum, so a gauge read after a
    cross-domain merge is the high-water mark over all writers. *)

val observe : t -> string -> float -> unit
(** Append one sample to a histogram (created empty on first use). *)

val counter : t -> string -> int
(** Current counter value; 0 when the counter was never bumped. *)

val gauge : t -> string -> float option
(** Current gauge value; [None] when never written. *)

val samples : t -> string -> float list
(** A histogram's samples in observation/merge order; [[]] when absent. *)

val quantile : t -> string -> float -> float
(** [quantile t name p] is the nearest-rank [p]-quantile ([0 <= p <= 1])
    of the histogram's samples; [nan] when the histogram is empty or
    absent.  [p = 0.5] is the median. *)

val merge : into:t -> t -> unit
(** Fold one registry into another: counters add, gauges keep the max,
    histograms concatenate ([into]'s samples first).  Associative in the
    usual left-fold sense: merging [b] then [c] into [a] equals merging
    [(b merged c)] into [a]. *)

val to_string : t -> string
(** Human-readable rendering, one instrument per line, sorted by name.
    Histograms print count/min/max and the p50/p95/p99 quantiles. *)

val to_json : t -> Statsutil.Json.t
(** Deterministic JSON object with ["counters"], ["gauges"] and
    ["histograms"] members, each sorted by name.  Histograms are
    summarized (count, min, max, mean, p50, p95, p99) rather than dumped
    sample by sample. *)
