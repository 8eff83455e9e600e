(** Unified one-call solver interface.

    [run] is the single entry point for every solve method — exact MIP
    (Δ / Σ / cΣ branch-and-bound), the greedy heuristic cΣ_A^G, the
    heavy-hitter hybrid, or the root LP relaxation — selected by
    {!Options.t.method_}.  It returns one {!outcome} shape for all of
    them, with a unified {!status} that distinguishes "proved optimal"
    from "feasible but budget ran out" from "budget exhausted with
    nothing to show", which is what the online admission service's
    degradation chain keys on.

    Options are built with the {!Options.make} smart constructor (the
    record is private), so adding a knob is not a breaking change for
    callers.

    Every LP-based method composes over one relaxation of the model,
    selected by {!Options.t.flow_form}: the arc-flow formulation or the
    path-form restricted master.  Each method therefore has one code
    path per relaxation, and each phase is timed one way — as a
    {!Runtime.Span} when a recorder is attached ([build], [greedy],
    [search], ...; read through {!Runtime.Span.tree_of}).  The whole
    solve is {!outcome.runtime}, one elapsed delta on the solve budget. *)

type model_kind = Delta | Sigma | Csigma

val model_kind_to_string : model_kind -> string

type method_ =
  | Exact    (** build the chosen formulation, branch-and-bound *)
  | Greedy   (** the polynomial heuristic cΣ_A^G (fixed mappings only) *)
  | Hybrid   (** exact on the heavy hitters, greedy around them *)
  | Lp_only  (** root LP relaxation of the chosen formulation *)
  | Rounded
      (** randomized rounding ({!Rounding}): solve the LP relaxation,
          decompose it into a convex combination of integral
          (accept, start) candidates, round with bounded
          validator-checked repair, fall through to greedy on
          exhaustion.  Fixed mappings only. *)

val method_to_string : method_ -> string
val method_of_string : string -> method_ option

(** How the link flows enter the model. *)
type flow_form =
  | Arc   (** one flow variable per (virtual link, substrate arc) — the
              paper's formulation *)
  | Path  (** column generation: a path-based restricted master grown by
              shortest-path pricing ({!Colgen_model}).  Requires the cΣ
              model and fixed node mappings; applies to [Exact],
              [Lp_only] and [Rounded] (and the hybrid's exact pass).
              [Greedy] ignores it. *)

val flow_form_to_string : flow_form -> string
val flow_form_of_string : string -> flow_form option

(** Unified result classification across all methods.  For [Exact] it
    refines {!Mip.Branch_bound.status} (the raw MIP status is kept in
    [outcome.mip_status]): a limit status becomes [Feasible] when an
    incumbent exists and [Budget_exhausted] when the search stopped with
    nothing.  [Greedy] and [Hybrid] complete as [Feasible] (they prove no
    bound) unless their budget died first. *)
type status =
  | Optimal           (** proved optimal (exact methods only) *)
  | Feasible          (** a feasible solution, no optimality proof *)
  | Infeasible
  | Unbounded
  | Budget_exhausted  (** deadline/node/iteration budget ran out before
                          any solution was found *)
  | Failed            (** numerical failure *)

val status_to_string : status -> string
val status_of_string : string -> status option

module Options : sig
  type t = private {
    method_ : method_;
    kind : model_kind;
    objective : Objective.t;
    use_cuts : bool;       (** cΣ only: dependency ranges + state presolve *)
    pairwise_cuts : bool;  (** cΣ only: Constraint (20) *)
    seed_with_greedy : bool;
        (** [Exact] only: seed branch-and-bound with the lifted greedy
            solution (access control + fixed mappings only) — the
            greedy/exact combination suggested in the paper's
            conclusion *)
    heavy_fraction : float;
        (** [Hybrid] only: revenue share of requests solved exactly *)
    pinned : (int * float) list;
        (** (request index, start time) pairs forced into the solution at
            exactly that schedule — the admission service pins its
            committed requests this way.  [Exact]/[Lp_only] fix the
            acceptance and start variables; [Greedy] pre-places them.
            Not supported by [Hybrid]. *)
    forced : int list;
        (** request indices forced to be accepted ([x_R = 1]) while their
            start time stays a decision variable — the pinned-start
            relaxation used by the service's reconfiguration rung to let
            committed requests move inside their windows.  [Exact] and
            [Lp_only] only; disjoint from [pinned]. *)
    flow_form : flow_form;
        (** link-flow formulation; [Path] solves over {!Colgen_model}'s
            restricted master instead of the arc form *)
    colgen : Colgen_model.params;
        (** column-generation knobs, used when [flow_form = Path] *)
    rounding : Rounding.params;
        (** rounding knobs (RNG seed, repair bound, mass cutoff), used
            when [method_ = Rounded] *)
    mip : Mip.Branch_bound.params;
    budget : Runtime.Budget.t option;
        (** shared solve budget; when [None] a private one is derived
            from [mip.time_limit] / [mip.node_limit].  Build, greedy
            seeding and branch-and-bound (node LPs included) all run
            against this single clock, so time limits compose.  A budget
            that is {e already exhausted} yields a clean
            [Budget_exhausted] outcome without building the model. *)
    prof : Runtime.Span.recorder option;
        (** optional span recorder: the solve records a root ["solve"]
            span (width exactly [outcome.ticks]) with
            ["build"]/["greedy"]/["search"] children, B&B round and
            per-node spans below that, and per-LP category leaves at the
            bottom.  Profiling reads the work clock and never advances
            it, so a profiled solve is byte-identical to an unprofiled
            one. *)
  }

  val make :
    ?method_:method_ ->
    ?kind:model_kind ->
    ?objective:Objective.t ->
    ?use_cuts:bool ->
    ?pairwise_cuts:bool ->
    ?seed_with_greedy:bool ->
    ?heavy_fraction:float ->
    ?pinned:(int * float) list ->
    ?forced:int list ->
    ?flow_form:flow_form ->
    ?colgen:Colgen_model.params ->
    ?rounding:Rounding.params ->
    ?mip:Mip.Branch_bound.params ->
    ?budget:Runtime.Budget.t ->
    ?prof:Runtime.Span.recorder ->
    unit ->
    t
  (** Defaults: [Exact] cΣ, access control, all cuts, no seeding,
      [heavy_fraction = 0.3], nothing pinned, [Arc] flow form with
      {!Colgen_model.default_params}, {!Rounding.default_params},
      default MIP parameters, a private budget, no profiling.
      @raise Invalid_argument for a [heavy_fraction] outside [0, 1] or
      rounding parameters rejected by {!Rounding.check_params}. *)

  val default : t
  (** [make ()]. *)

  val with_budget : Runtime.Budget.t option -> t -> t
  (** The same options solving against a different budget — the admission
      service re-uses one options value across per-request budget
      slices. *)

  val with_pinned : (int * float) list -> t -> t
  (** The same options with a different pinned set. *)

  val with_forced : int list -> t -> t
  (** The same options with a different forced set. *)
end

(** Column-generation counters, reported when [flow_form = Path]. *)
type colgen_stats = {
  columns_generated : int;  (** path columns priced in (seeds excluded) *)
  pricing_rounds : int;
  master_flow_columns : int;
      (** flow-carrying master columns: paths + per-(request, link)
          aggregates *)
  arc_flow_columns : int;
      (** what the arc form would have carried, for comparison *)
  colgen_converged : bool;
      (** pricing proved no column can enter — the master LP value equals
          the full arc-form LP relaxation *)
}

type outcome = {
  status : status;
  method_used : method_;
  mip_status : Mip.Branch_bound.status option;
      (** the raw branch-and-bound status, for [Exact] (and the hybrid's
          exact pass via [hybrid.heavy_outcome]) *)
  solution : Solution.t option;  (** best solution found, when any *)
  objective : float option;      (** its objective value *)
  bound : float;
      (** proved dual bound; [nan] when the method proves none (greedy,
          hybrid, degenerate outcomes) *)
  gap : float;                   (** relative gap as defined in [Mip] *)
  runtime : float;
      (** budget-clock seconds for the {e whole} solve — model build plus
          greedy seeding plus branch-and-bound — measured as one elapsed
          delta on the solve budget *)
  ticks : int;
      (** work ticks recorded on the solve budget during this run *)
  nodes : int;
  lp_iterations : int;
  model_vars : int;
  model_rows : int;
  hybrid : hybrid_detail option;  (** [Hybrid] runs only *)
  colgen : colgen_stats option;
      (** [flow_form = Path] runs only (for [Hybrid], mirrors the heavy
          pass); [None] for arc-form solves and pre-colgen JSON
          documents *)
  stats : Runtime.Stats.t;
      (** structured counters for this solve: simplex pivots and
          refactorizations, LP solves, B&B nodes/incumbents/bound updates,
          greedy probe counts.  Counters only: per-phase times come from
          the span tree *)
}

and hybrid_detail = {
  heavy : int list;          (** request indices solved exactly *)
  heavy_outcome : outcome;   (** the exact pass on the heavy subset *)
}

val run : Instance.t -> Options.t -> outcome
(** Solve [inst] with the configured method.

    @raise Invalid_argument when [pinned] entries are out of range,
    scheduled outside their request's window, duplicated, or combined
    with [Hybrid]; when [forced] entries are out of range, duplicated,
    also pinned, or combined with [Greedy]/[Hybrid]/[Rounded]; when
    [Greedy]/[Hybrid]/[Rounded] run without fixed node mappings; when
    [flow_form = Path] is combined with a non-cΣ model or an instance
    without fixed node mappings.

    [Rounded] runs four phases, visible as [lp_relax] / [decompose] /
    [round] / [repair] spans and counted by the [rounding_*] stats: the
    LP relaxation (arc form, or the path-form restricted master under
    [flow_form = Path]), the {!Rounding.decompose} convex-combination
    read-off, one rounding draw realized by the greedy with the drawn
    starts pre-placed, and bounded re-draws ([rounding.max_repairs])
    after infeasible draws.  Repair exhaustion falls through to plain
    greedy ([rounding_fallbacks]).  An [Infeasible] LP relaxation is a
    {e proven} denial and is reported as [Infeasible]; otherwise the
    outcome is [Feasible] with [bound] set to the LP optimum (a valid
    dual bound in arc form or under converged path pricing, [nan]
    otherwise), so rounded outcomes carry a genuine [gap] — unlike
    [Greedy], which proves nothing.

    With [flow_form = Path], [Exact] runs root column generation on the
    LP relaxation and then branch-and-bound over the enlarged form (every
    node inherits the root's columns); the reported [bound] is exact for
    the MIP over the generated columns.  [Lp_only] reports [Optimal] only
    when pricing converged — a round-cap exit yields the restricted
    master's value, reported as [Feasible].  Greedy seeding
    ([seed_with_greedy]) is skipped in path form: the heuristic's
    per-arc flows are not expressible in the column space. *)

val build :
  ?budget:Runtime.Budget.t ->
  Instance.t ->
  Options.t ->
  Formulation.t * Objective.extras
(** The assembled arc-form MIP without solving it (for inspection/tests),
    built exactly as [run] builds it: objective applied, [pinned]
    requests' acceptance and start variables fixed, [forced] requests'
    acceptance fixed.  [?budget] only timestamps the build spans when the
    options carry a profiler.  The model stays with the caller: [run]
    hands the model of its own arc-form relaxation to
    {!Lp.Model.release} once its outcome is extracted, never one built
    here. *)

(** {2 Versioned JSON encoding}

    [outcome_to_json] renders an outcome as a {!Statsutil.Json.t}
    document carrying ["schema_version"] — the encoding used by
    [tvnep_solve --json] and the bench result files.  Non-finite numbers
    are encoded as strings (["inf"], ["nan"]) so decoding round-trips
    exactly. *)

val schema_version : int

val outcome_to_json : outcome -> Statsutil.Json.t
val outcome_of_json : Statsutil.Json.t -> (outcome, string) result
val solution_to_json : Solution.t -> Statsutil.Json.t
val solution_of_json : Statsutil.Json.t -> (Solution.t, string) result
