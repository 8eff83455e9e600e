(** Branch-and-bound mixed-integer optimizer over the {!Lp} stack.

    Search is best-bound-first (min-heap on the parent LP relaxation
    value) with depth used as a tie-breaker, most-fractional branching and
    a nearest-integer rounding heuristic probed at every node.  The solver
    reports Gurobi-style incumbent / best-bound / relative-gap statistics,
    which is what the paper's evaluation (Figures 4 and 6) plots.

    The search runs in {e synchronous rounds}: each round pops up to
    [batch_size] nodes (plunge stack first, then best-bound heap), solves
    their node LPs concurrently on [jobs] worker domains, and merges the
    results sequentially in node-index order.  Because node selection and
    every search decision (incumbent updates, pruning, branching, stop
    conditions) happen on the calling domain, and each node LP warm-starts
    from its own parent basis on a private budget fork, the entire search
    — status, objective, best bound, node count, work-clock ticks — is
    identical at every [jobs] level (see DESIGN.md §7).  So are the
    search counters ([bb_nodes], [incumbents], [bound_updates] in
    {!Runtime.Stats}): the calling domain updates them in merge order. *)

type status =
  | Optimal        (** search exhausted; incumbent proved optimal *)
  | Infeasible     (** no integer-feasible point exists *)
  | Unbounded
  | Time_limit     (** stopped at the time limit *)
  | Node_limit
  | Numerical_failure

val status_to_string : status -> string

type params = {
  time_limit : float;
      (** budget-clock seconds, [infinity] = none; ignored when an
          explicit budget is passed to {!solve} / {!solve_form} *)
  node_limit : int;
  lp_params : Lp.Simplex.params;
  log_every : int;       (** nodes between progress log lines; 0 = quiet *)
  propagate : bool;      (** node-level domain propagation (default on) *)
  warm_sessions : bool;
      (** warm dual-simplex node re-solves from the parent's basis
          (default on); off = every node LP solved from scratch *)
  jobs : int;
      (** worker domains for node-LP evaluation (default 1 = in the
          calling domain; [<= 0] autodetects).  Any value yields the same
          result — [jobs] trades wall-clock time only. *)
  batch_size : int;
      (** {e initial} nodes selected per synchronous round (default 8).
          Rounds that fill completely grow the next round geometrically,
          up to [8 × batch_size], so per-round overhead (fork/merge,
          worker wake-up) amortizes on deep trees.  Both the seed and the
          growth rule are deliberately independent of [jobs]: the
          selection — and hence the search — must not change with the
          worker count.  Larger batches expose more parallelism but may
          explore more nodes than strictly best-bound order would. *)
}

val default_params : params
(** No time limit, 10⁶ nodes, propagation and warm sessions on, one job,
    batches of 8.  Fixed for every search: it stops as optimal once the
    relative gap is at most 1e-6, and an LP value within 1e-6 of an
    integer counts as integral. *)

type result = {
  status : status;
  incumbent : float array option;
      (** best integer-feasible structural point found *)
  objective : float option;  (** incumbent objective in the model's sense *)
  best_bound : float;        (** proved bound in the model's sense *)
  gap : float;               (** relative gap; [infinity] with no incumbent, 0 at optimality *)
  nodes : int;
  lp_iterations : int;
  stats : Runtime.Stats.t;
      (** the structured counters this search accumulated into — the
          caller's record when [?stats] was passed, a fresh one otherwise *)
}

val gap_of : incumbent:float option -> bound:float -> float
(** [|bound - incumbent| / max(1e-10, |incumbent|)]; [infinity] when there
    is no incumbent yet. *)

val solve_form :
  ?params:params ->
  ?initial:float array ->
  ?budget:Runtime.Budget.t ->
  ?stats:Runtime.Stats.t ->
  ?prof:Runtime.Span.recorder ->
  Lp.Std_form.t ->
  result
(** [?initial] seeds the search with a known integer-feasible structural
    point (it is verified against bounds, rows and integrality and
    silently dropped when invalid) — e.g. a heuristic solution, as the
    paper suggests combining the greedy with the exact models.

    [?budget] is the shared solve budget; its deadline and node/iteration
    caps govern the whole search {e including} every node LP (which bill
    pivots against the same clock).  Without it a private budget is
    derived from [params.time_limit]/[params.node_limit].  [?stats]
    accumulates node/incumbent/bound-update/LP counters into the caller's
    record.

    [?prof] records per-round ["select"]/["eval"]/["merge"] spans.  Each
    node is evaluated under its own child recorder (spans tagged with the
    evaluating worker's domain id) grafted back in node-index order at
    the shared budget's pre-join tick count — so every exported tick
    stamp and total is identical at every [jobs] level; only the
    worker-domain tags vary. *)

val solve :
  ?params:params ->
  ?initial:float array ->
  ?budget:Runtime.Budget.t ->
  ?stats:Runtime.Stats.t ->
  ?prof:Runtime.Span.recorder ->
  Lp.Model.t ->
  result
(** Compiles the model and optimizes. *)
