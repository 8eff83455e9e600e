(** Path-based restricted master + shortest-path pricing for the link
    flows (column generation).

    The arc form ({!Formulation.add_embeddings}) carries one flow
    variable per (virtual link, substrate link); on large substrates the
    flow block dwarfs the rest of the model while the LP optimum uses a
    handful of paths per virtual link.  This module replaces it with a
    {e restricted master}: per commodity — a virtual link whose fixed
    endpoint mappings land on distinct substrate nodes — a convexity row
    [Σ_p y_p = x_R] over a small set of simple-path columns, seeded with
    the [seed_paths] cheapest hop-count paths (deterministic Yen) and
    grown by pricing.  An aggregate variable [f_{R,ls}] per (request,
    substrate link), coupled by [Σ_lv d_lv·Σ_{p∋ls} y_p ≤ f_{R,ls}],
    presents the {e same} [link_alloc] surface to the cΣ temporal layer
    as the arc form — the temporal machinery is untouched (plugged in
    via {!Csigma_model.build}'s [?embeddings] hook).

    Pricing solves one nonnegative-cost Dijkstra per commodity over
    dual-adjusted arc costs ({!Graphs.Paths.Pricer}); the coupling rows
    are written as [≤ 0] precisely so their internal duals are sign
    constrained and the arc costs cannot go negative.  Entering columns
    are spliced into the live simplex session
    ({!Lp.Simplex.session_add_columns}) and the master re-solved with
    the primal continuation — no rebuild, no phase 1.  At convergence
    (no column prices in) the master LP optimum equals the full
    arc-form LP optimum.

    Requires fixed node mappings and the cΣ model. *)

type params = {
  seed_paths : int;         (** initial columns per commodity (Yen k), >= 1 *)
  price_at_nodes : bool;
      (** branch-and-price-lite: after the branch-and-bound pass,
          re-price against the incumbent-fixed master LP and re-run the
          search once when new columns enter (see {!Solver.run}) *)
}

val default_params : params
(** [seed_paths = 2], no node pricing.  Fixed for every {!generate}
    call: at most 50 pricing rounds, and a stop after 4 consecutive rounds
    whose master objective moved by at most 1e-9 (relative). *)

type t

val build :
  ?options:Csigma_model.options ->
  ?params:params ->
  ?prof:Runtime.Span.recorder ->
  ?budget:Runtime.Budget.t ->
  Instance.t ->
  t
(** Builds the restricted master (seed columns included) inside a full
    cΣ formulation.  Objective application and variable pinning happen
    on {!formulation}'s model afterwards, exactly as with
    {!Csigma_model.build} — rows recorded for pricing keep their indices
    because later rows only append.
    @raise Invalid_argument without fixed node mappings, or when
    [seed_paths < 1]. *)

val formulation : t -> Formulation.t
(** The underlying cΣ formulation (path-form embeddings carry
    [x_e = [||]]). *)

type gen_result = {
  lp : Lp.Simplex.result;  (** the last master LP solve *)
  sf : Lp.Std_form.t;      (** the enlarged standard form *)
  rounds : int;            (** pricing rounds executed by this call *)
  generated : int;         (** columns added by this call *)
  converged : bool;
      (** true when pricing proved no column can enter — the master LP
          optimum then equals the full path/arc LP optimum *)
}

val generate :
  ?lp_params:Lp.Simplex.params ->
  ?stats:Runtime.Stats.t ->
  ?prof:Runtime.Span.recorder ->
  ?fixed:float array ->
  budget:Runtime.Budget.t ->
  t ->
  gen_result
(** The generation loop: solve the master LP (persistent session, primal
    continuation after column splices) → recover internal duals → price
    every commodity → splice entering columns → repeat, until no column
    prices in, the objective tails off, the round cap is hit, or the
    budget dies.

    Pricing runs one Dijkstra per commodity, in commodity order, each
    billed to [budget] at its deterministic O(n² + E) cost.  [?prof]
    records ["master"], ["price"] and ["add_col"] spans per round.

    [?fixed] pins the integer structurals to the (rounded) given point
    before solving — the reprice pass of branch-and-price-lite, where
    pricing runs against the duals of the incumbent-fixed master.

    Calling [generate] again continues on the same session and path
    registry; columns accumulate. *)

val release : t -> unit
(** Hands the master session's solver state on ({!Lp.Simplex.session_release})
    once its owner is done generating: the basis it carries is dropped,
    so a later {!generate} starts cold.  The registry, the columns and
    {!std_form} are unaffected. *)

val std_form : t -> Lp.Std_form.t
(** The current standard form — enlarged by every column generated so
    far.  Feed this to {!Mip.Branch_bound.solve_form} for the exact
    solve over the generated columns. *)

val extract_solution :
  t -> objective:float -> (int -> float) -> Solution.t
(** Like {!Formulation.extract_solution}, but reconstructs each accepted
    request's per-virtual-link flows from the path registry (summing the
    values of the columns routed over each substrate link) — path-form
    embeddings have no arc variables to read them from.  [value_of] is
    indexed by {e structural column}, which for generated columns lies
    beyond the model's variable count. *)

(** {2 Reporting} *)

val columns_generated : t -> int
(** Columns added by pricing (seeds excluded), across all calls. *)

val pricing_rounds : t -> int

val flow_columns : t -> int
(** Flow-carrying master columns: path columns (seeds + generated) plus
    the per-(request, link) aggregates. *)

val arc_flow_columns : t -> int
(** What the arc form would carry: [Σ_R |E_V(R)| · |E_S|]. *)
