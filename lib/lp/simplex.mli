(** Bounded-variable two-phase revised simplex.

    Solves the computational form produced by {!Std_form}:
    [min cᵀx  s.t.  A·x = 0,  lb <= x <= ub].  The basis is kept as
    sparse LU factors updated in place by a Forrest–Tomlin update per
    pivot ({!Basis}), so FTRAN/BTRAN stay O(nnz(factors)).
    Refactorization is driven by measured representation growth — the
    fill ratio exceeding [fill_limit] — plus the periodic residual check
    (every [refactor_every] pivots) for drift, and immediately when an
    update is rejected (singular spike).  Phase 1 minimizes the sum of
    artificial variables introduced only on rows whose logical variable
    cannot start feasibly.

    Pivots walk the support the basis solves report
    ({!Basis.support_len}) instead of scanning all [m] rows: the primal
    ratio test and step, the nonzero counts, the devex dual update and
    pivot-row scatter, and the dual simplex's dual, row-weight and primal
    updates.  The support is ascending, so ties and floating-point sums
    resolve exactly as a full scan would.  The column loops read the
    standard form's CSC arrays directly and box nothing per entry, per
    priced column or per pivot.

    Pricing: devex reference-framework scoring — d²/γ_j in the primal
    entering choice, violation²/δ_i in the dual leaving choice, weights
    restarted from the unit framework each solve — over a candidate list
    refreshed by periodic full sweeps ([partial_pricing], on by default;
    optimality is only ever declared by a full sweep), with an automatic
    switch to Bland's full-scan rule after a run of degenerate pivots.
    A full sweep is hypersparse: it scatters the duals over the cached
    Aᵀ and visits only the columns meeting a nonzero dual and the
    columns of nonzero cost (every other reduced cost is zero), with
    values bitwise equal to the column dots and the decisions of a scan
    in index order.  It bills one tick per column of the form all the
    same, the list re-pricing one per candidate. *)

type status =
  | Optimal
  | Infeasible
  | Unbounded
  | Iter_limit
  | Time_limit
  | Numerical_failure

val status_to_string : status -> string

type vstat = Basic | At_lower | At_upper | Free_nb
(** Nonbasic/basic status of a column; part of a warm-start basis. *)

type basis = { basic : int array; stat : vstat array }
(** [basic.(i)] is the column basic in row [i]; [stat] has one entry per
    column of the (logical-extended) matrix. *)

type params = {
  time_limit : float;       (** seconds of wall-clock; [infinity] = none *)
  refactor_every : int;     (** pivots between residual/drift checks *)
  fill_limit : float;       (** factor-size growth ratio before a forced
                                refactorization (fresh factorization
                                = 1.0) *)
  partial_pricing : bool;   (** candidate-list pricing (default on) *)
}

val default_params : params
(** [time_limit = infinity], [refactor_every = 100], [fill_limit = 3.0],
    partial pricing on.  Fixed for every solve: at most 200 000 pivots
    ([Iter_limit] beyond), reduced-cost tolerance 1e-7, bound-violation
    tolerance {!Lina.Tol.feas}. *)

type result = {
  status : status;
  x : float array;              (** structural values, length [n_struct] *)
  objective : float;            (** user-facing objective (sense/offset applied) *)
  internal_objective : float;   (** minimization objective on the internal form *)
  duals : float array;          (** row duals, length [n_rows] *)
  reduced_costs : float array Lazy.t;
      (** structural reduced costs (internal sense); priced on first force —
          the branch-and-bound hot path never pays for them *)
  iterations : int;
  final_basis : basis option;   (** present when the run ended cleanly *)
}

val solve :
  ?params:params ->
  ?budget:Runtime.Budget.t ->
  ?stats:Runtime.Stats.t ->
  ?prof:Runtime.Span.recorder ->
  ?lb:float array ->
  ?ub:float array ->
  Std_form.t ->
  result
(** [solve sf] optimizes the compiled form from a cold two-phase start: a
    one-shot cold session, [session_cold_solve (create_session ~params
    sf)], released ({!session_release}) on return.  On a domain that
    has already solved the LP, it allocates only its result; after
    another LP at least as large, also the factors' [U] lists that are
    too short for the new bases.  [?lb]/[?ub] override the
    column bounds of the {e full} column space (structurals followed by
    logicals); arrays must then have length [Std_form.n_total sf].  A
    warm start needs a session ({!session_solve}).

    [?budget] threads the caller's solve budget through the iteration
    loops: the deadline and iteration cap are checked there, and every
    pivot ticks the budget clock (deterministic time advances per pivot).
    Without it a private budget is derived from [params.time_limit].
    [?stats] accumulates pivots, refactorizations and LP-solve counts into
    the caller's counters.

    [?prof] records one ["lp"] span per solve with a
    factorize/ftran/btran/pricing leaf breakdown of the ticks the solve
    billed (accumulated per category as the solve runs, attributed as leaf
    spans when it ends — exact tick totals, bounded span count). *)

val solve_model :
  ?params:params ->
  ?budget:Runtime.Budget.t ->
  ?stats:Runtime.Stats.t ->
  ?prof:Runtime.Span.recorder ->
  Model.t ->
  result
(** Convenience wrapper: compiles the model's continuous relaxation
    (integrality dropped) and solves it. *)

(** {2 Persistent sessions}

    A branch-and-bound search solves thousands of LPs that differ only in
    variable bounds.  A [session] keeps the factorized basis and solution
    state alive between solves: after a bound change the previous optimal
    basis stays {e dual} feasible, so each re-solve is a handful of dual
    simplex pivots — no O(m³) refactorization, no phase 1.

    A session owns exactly one solver state, set up on its first solve:
    the bound, value and status arrays, the basis representation
    (factors plus the factorization/solve scratch) and the dual pricer's
    Aᵀ, transposed on first need and rebuilt only when
    {!session_add_columns} changes the columns.  Every later solve —
    warm, carried or cold, including every cold fallback — runs in that
    state.  {!solve} is a session used once.

    {b Recycling.}  Each domain keeps one spare solver state.  A
    session's first solve takes the spare of the domain it runs on when
    the spare's buffers hold the LP, and allocates a new state
    otherwise; either way every buffer is set to what a new allocation
    holds, so results, ticks, counters and spans do not depend on which
    state a session got.  {!session_release} hands a state back.  A
    state belongs to at most one session or is the spare: results copy
    everything they keep ([x], the duals, the [y] behind
    [reduced_costs], the final basis), so nothing else refers to its
    buffers. *)

type session

val create_session : ?params:params -> Std_form.t -> session

val session_release : session -> unit
(** [session_release s] ends [s]'s claim on its solver state: the state
    becomes its domain's spare (kept when it is at least as large as the
    spare there already), and [s] holds none.  Call it once the owner
    has finished with the session — a released session that solves
    again starts from a new state, cold, without the basis it carried.
    Releasing a session that holds no state does nothing. *)

val session_std_form : session -> Std_form.t
(** The session's current standard form — the one given to
    {!create_session} until {!session_add_columns} enlarges it. *)

val session_add_columns :
  session ->
  ?budget:Runtime.Budget.t ->
  ?stats:Runtime.Stats.t ->
  Std_form.column list ->
  Std_form.t
(** Splices generated columns into the live session without rebuilding
    it: the standard form grows per {!Std_form.append_columns}, and the
    carried solver state — basis, factorization, bounds, values — is
    remapped in place.  The factored basis is {e reused} (the basis
    matrix is unchanged); entrants arrive nonbasic on their nearest
    bound, so a following [session_solve ~primal:true] resumes the
    primal simplex from the previous optimum and the next pricing sweep
    sees the new columns.  Billed on the deterministic work clock as one
    FTRAN per entrant against [?budget] (default: the budget of the last
    solve).  Returns the enlarged form.

    Bound arrays passed to later [session_solve] calls must match the
    {e new} [Std_form.n_total]. *)

val session_cold_solve :
  session ->
  ?budget:Runtime.Budget.t ->
  ?stats:Runtime.Stats.t ->
  ?prof:Runtime.Span.recorder ->
  lb:float array ->
  ub:float array ->
  unit ->
  result
(** A cold two-phase solve under full-column-space bounds in the
    session's allocated state (allocated here on the session's first
    solve), reset of everything a cold start reads: the result, ticks,
    counters and spans are a function of the parameters and these bounds
    alone, whatever the session solved before (a {!solve} is this call
    on a new session), after which the session carries the new basis.
    Branch-and-bound workers solve the root (and any node without a warm
    basis) this way, so a search builds one solver state, one Aᵀ and one
    basis representation per worker. *)

val session_solve :
  session ->
  ?time_limit:float ->
  ?budget:Runtime.Budget.t ->
  ?stats:Runtime.Stats.t ->
  ?prof:Runtime.Span.recorder ->
  ?warm:basis ->
  ?primal:bool ->
  lb:float array ->
  ub:float array ->
  unit ->
  result
(** Re-optimizes under new full-column-space bounds (length
    [Std_form.n_total]).  Falls back to a cold start internally whenever
    the carried basis is unusable; the result is always as authoritative
    as a fresh {!solve}.  [?budget] takes precedence over [?time_limit];
    [?stats]/[?prof] as in {!solve}.

    Every fallback to a cold start, including the retry after a
    numerical failure, restarts in the session's allocated state (as
    {!session_cold_solve} does) rather than building a fresh one.

    Without [?warm] the re-solve warm-starts from whatever basis the
    session's {e previous} solve left behind — fastest when consecutive
    calls are related, but the answer chosen among degenerate alternative
    optima may depend on that history.  With [?warm] the session installs
    exactly the given basis (reusing its allocated state and cached
    transpose), making the result a function of the (warm basis, bounds)
    pair alone — the reproducibility the parallel branch-and-bound needs
    when nodes land on arbitrary workers.

    [?primal:true] is the column-generation continuation: when the
    carried basis is valid and primal feasible under the new bounds —
    the state {!session_add_columns} leaves behind — the {e primal}
    simplex resumes from it directly instead of demanding dual
    feasibility (which fresh improving columns violate by design) and
    falling back to a cold start.  When the basis is not primal
    feasible the flag is ignored and the normal dual-first logic
    applies. *)
