(** Online embedding service: a time-ordered event stream served with
    deadline budgets and a graceful degradation chain.

    The engine consumes a typed {!Event} stream — arrivals and departures
    in total order — maintains the committed substrate state across
    solves, and decides each arrival with a per-request slice of a global
    {!Runtime.Budget}:

    + {b exact}: a cΣ branch-and-bound on the committed requests (pinned
      at their committed schedules) plus the arrival, on
      [exact_fraction × slice] of the request's deadline;
    + {b reconfigure} (optional): when the pinned solve {e proves} the
      denial, re-optimize a bounded set of committed requests that have
      not started yet — their acceptance forced, their start times free
      again, a move-cost term charging every unit of schedule
      displacement — so an admission enabled by migrations must pay for
      them in-model;
    + {b rounded} (optional): when the exact rung was skipped or
      inconclusive, solve the cΣ LP relaxation of the pinned instance,
      decompose the fractional solution into a convex combination of
      start-time candidates ({!Tvnep.Rounding}) and round it with
      validator-checked repair — a middle rung that keeps the LP's
      global view at a fraction of the branch-and-bound's cost.  An
      infeasible relaxation is a {e proven} denial, recorded at this
      rung; repair exhaustion falls through to greedy;
    + {b greedy}: on budget exhaustion or an inconclusive exact outcome,
      the polynomial heuristic tries to admit the arrival around the
      committed schedule, on whatever remains of the slice;
    + {b priced} (optional): any admission candidate that survives the
      validator is priced against the committed utilization
      ({!Pricing}); an arrival whose revenue does not cover the priced
      cost of its assignment is denied;
    + {b deny}: a proven-infeasible exact outcome, a greedy rejection, or
      an exhausted budget denies admission.

    {b Departures} release committed capacity: every commit schedules an
    endogenous departure at its [t_end], and explicit [Departure] events
    cancel earlier.  Each release is gated by
    {!Tvnep.Validator.check_release} — the post-release state must equal
    the committed one minus exactly the departed assignment and still be
    feasible — before it becomes visible to later decisions.

    Every admission is re-checked by {!Tvnep.Validator} against the full
    committed state before it commits; a solution that fails validation
    falls down the chain instead of corrupting the substrate state.

    Events are processed {b once each, in event order}: departures due by
    an event's time are released first, then the event applies.  An
    arrival is decided by a single evaluation against the live committed
    state and prices, on a {!Runtime.Budget.sub} of the global budget
    limited to its slice, and is committed or denied before the next
    event is looked at — the paper's online setting, where each request
    is decided against the capacity already committed.  Every deadline
    check reads the shared work clock, so under a deterministic budget
    the whole summary (decisions, embeddings, migrations, prices,
    revenue, tick counts) is a function of the instance, the event
    stream and the configuration alone, byte-identical run to run. *)

(** Which rung of the degradation chain decided an event. *)
type rung =
  | Exact    (** the exact solve concluded (admit, or proven denial) *)
  | Rounded
      (** the LP-rounding rung concluded (admit, or proven denial from an
          infeasible relaxation) *)
  | Greedy   (** fell back to the greedy heuristic *)
  | Budget   (** the global budget or the request's slice was exhausted *)
  | Priced   (** denied: revenue below the priced cost of the assignment *)
  | Migrated
      (** admitted by the reconfiguration rung — committed requests were
          re-scheduled (see [record.moved]) to make room *)

val rung_to_string : rung -> string
val rung_of_string : string -> rung option

(** Per-event structured decision record, in event order.  Arrival
    records carry the admission decision; departure records carry the
    released interval, with [rung] echoing the rung that admitted the
    departing request. *)
type record = {
  request : int;          (** request index in the instance *)
  name : string;
  time : float;           (** event time on the instance clock *)
  event : Event.kind;
  admitted : bool;        (** arrivals only; [false] on departures *)
  rung : rung;
  exact_status : Tvnep.Solver.status option;
      (** outcome of the exact rung, when it ran *)
  greedy_status : Tvnep.Solver.status option;
      (** outcome of the greedy rung, when it ran *)
  revenue : float;        (** d·Σc when admitted, 0 otherwise *)
  priced_cost : float;
      (** priced cost of the decided assignment when the pricing policy
          ran on this decision; [nan] otherwise *)
  t_start : float;        (** committed schedule ([nan] when denied);
                              the released interval on departures *)
  t_end : float;
  ticks : int;            (** work ticks billed to this request's slice *)
  moved : int list;
      (** committed requests this admission migrated (reconfiguration
          rung only; empty otherwise) *)
}

type summary = {
  records : record array;        (** one per event, in event order *)
  solution : Tvnep.Solution.t;   (** final committed state on the instance *)
  events : int;                  (** records emitted (arrivals + departures) *)
  accepted : int;                (** arrivals admitted *)
  denied : int;                  (** arrivals denied *)
  departed : int;                (** committed requests whose capacity was
                                     released back to the substrate *)
  migrations : int;              (** committed requests re-scheduled by the
                                     reconfiguration rung *)
  acceptance_ratio : float;      (** over arrivals *)
  revenue : float;               (** Σ admitted d·Σc *)
  admitted_exact : int;
  admitted_rounded : int;
  admitted_greedy : int;
  admitted_migrated : int;
  denied_exact : int;
  denied_rounded : int;
  denied_greedy : int;
  denied_budget : int;
  denied_priced : int;
  ticks_p50 : int;               (** per-arrival tick percentiles *)
  ticks_p99 : int;
  total_ticks : int;
  runtime : float;               (** budget-clock seconds, whole stream *)
  node_prices : float array;     (** final price vectors ([[||]] when the
                                     pricing policy is off) *)
  link_prices : float array;
  stats : Runtime.Stats.t;
}

val default_work_rate : float
(** Ticks per deterministic "second" (2e9, the bench harness's rate). *)

(** Engine configuration behind a smart constructor (the
    {!Tvnep.Solver.Options.make} pattern): the record is private, so
    every configuration in the program went through {!Config.make}'s
    validation. *)
module Config : sig
  type t = private {
    kind : Tvnep.Solver.model_kind;   (** formulation of the exact rung *)
    use_cuts : bool;
    pairwise_cuts : bool;
    mip : Mip.Branch_bound.params;
        (** inner search parameters; [jobs] is forced to 1 and
            [time_limit] is ignored in favour of the slice *)
    slice : float;                    (** per-request deadline, budget s *)
    exact_fraction : float;           (** share of the slice the exact rung
                                          may spend before falling back *)
    time_limit : float;               (** global deadline ([infinity] =
                                          none); arrivals past it are
                                          denied at the [Budget] rung
                                          without solving *)
    deterministic : float option;
        (** deterministic work-clock rate ([Some default_work_rate] by
            default — required for byte-identical output run to run);
            [None] uses the wall clock *)
    departures : bool;
        (** process departures: endogenous releases at each committed
            [t_end] plus explicit [Departure] events.  [false] reproduces
            the historical monotone arrival-only service (departure
            events are ignored). *)
    reconfigure : bool;               (** enable the reconfiguration rung *)
    reconfigure_limit : int;
        (** most committed requests re-opened per reconfiguration attempt
            (the not-yet-started ones, earliest-start first) *)
    move_cost : float;
        (** objective weight per unit of schedule displacement in the
            reconfiguration solve
            ({!Tvnep.Objective.Access_with_move_cost}) *)
    rounding : bool;
        (** enable the LP-rounding rung between exact and greedy; the
            rung runs on half of the slice's remaining budget with a
            per-request deterministic seed *)
    pricing : bool;                   (** enable the pricing policy *)
    price : Pricing.params;
    prof : Runtime.Span.recorder option;
        (** optional span recorder: each arrival records an ["arrival"]
            span (its width is exactly the record's [ticks]) with
            ["exact"]/["reconfigure"]/["rounded"]/["greedy"]/["validate"]
            children and the full solver span tree below them, directly
            on the global timeline, in event order.  Admission counts
            live in the run's {!Runtime.Stats}, per-rung counts and
            arrival-tick percentiles in its {!summary}. *)
  }

  val make :
    ?kind:Tvnep.Solver.model_kind ->
    ?use_cuts:bool ->
    ?pairwise_cuts:bool ->
    ?mip:Mip.Branch_bound.params ->
    ?slice:float ->
    ?exact_fraction:float ->
    ?time_limit:float ->
    ?deterministic:float option ->
    ?jobs:int ->
    ?departures:bool ->
    ?reconfigure:bool ->
    ?reconfigure_limit:int ->
    ?move_cost:float ->
    ?rounding:bool ->
    ?pricing:bool ->
    ?price:Pricing.params ->
    ?prof:Runtime.Span.recorder ->
    unit ->
    t
  (** Defaults: cΣ with all cuts, 0.5 s slices (70% exact), no global
      limit, deterministic clock, departures {e on}, reconfiguration off
      ([reconfigure_limit = 2], [move_cost = 0.1] when enabled), rounding
      off, pricing off ({!Pricing.default_params} when enabled).

      [jobs] is accepted for compatibility with existing callers and
      validated, but otherwise ignored: the engine decides arrivals one
      at a time, in event order, on the calling domain.

      @raise Invalid_argument for a non-positive or non-finite [slice],
      an [exact_fraction] outside [0, 1], a [jobs] below 1, a
      non-positive [time_limit], a negative [reconfigure_limit], or a
      negative/non-finite [move_cost]. *)

  val default : t
  (** [make ()]. *)
end

val serve :
  ?config:Config.t ->
  ?on_commit:(int -> Tvnep.Solution.t -> unit) ->
  ?events:Event.t list ->
  Tvnep.Instance.t ->
  summary
(** Serve an event stream against the instance.  [events] defaults to
    {!Event.arrivals} (one arrival per request at its window opening) and
    is {!Event.normalize}d; [on_commit] is called after each admission
    (in commit order) with the request index and
    the full committed solution so far — the validator-gating property
    test hooks in here.

    The stream ends at its last event: endogenous departures due later
    are not processed (the final [solution] still holds their
    capacity).

    @raise Invalid_argument without fixed node mappings, for an event
    whose request index is out of range or time is not finite, or when a
    request arrives twice.
    @raise Failure when a validator-gated release fails — an engine
    invariant violation, not an input error. *)

(** {2 Versioned JSON encoding} (["schema_version"] = 2)

    Decoders accept version-1 documents: their ["arrival"] field becomes
    [time], the event kind defaults to [Arrival], and the lifecycle
    fields ([priced_cost], [moved]) default to [nan] / [[]].  The
    ["reevaluated"] flag older documents carry is ignored. *)

val record_to_json : record -> Statsutil.Json.t
val record_of_json : Statsutil.Json.t -> (record, string) result
val summary_to_json : summary -> Statsutil.Json.t
(** Carries ["schema": "tvnep-service/2"], the aggregates (incl.
    departures, migrations, priced denials and final price vectors) and
    the full per-event record list. *)
