(** The greedy heuristic cΣ_A^G (Section V) for the access-control
    objective, on instances with a-priori fixed node mappings (the paper's
    setting; Algorithm input [x'_V]).

    Requests are processed in order of earliest possible start.  For the
    request at hand the algorithm realizes objective (21) — "embed it if at
    all possible, and then as early as possible" — by scanning candidate
    start times in increasing order.  Because accepted requests have fixed
    intervals, resource availability is piecewise constant and every
    minimal point of a feasible start region is a breakpoint (an accepted
    start/end, an accepted start minus the new duration, or the window
    opening), so the scan is exact; each probe solves one LP that
    re-optimizes the link flows of {e all} accepted requests together with
    the candidate (the paper likewise recomputes link allocations every
    iteration).  This matches the paper's polynomial-time argument:
    O(|R|) candidates per request, one polynomial LP each. *)

type stats = {
  lp_solves : int;
      (** feasibility LPs solved; a candidate that overflows a node is
          rejected without one *)
  candidates_tried : int;
}

val flow_lp : Instance.t -> (int * float * float) list -> Lp.Std_form.t
(** [flow_lp inst participants] is the feasibility LP of one probe, for
    [participants] given as (request, start, end) with fixed times, in
    the order the probe lists them, each request at most once.  Every
    participant needs a fixed node mapping.  Its states are the gaps
    between consecutive interval endpoints, and a request is active in a
    state when its open interval overlaps it.  The layout is a contract:

    - columns: one per (participant, virtual link, substrate link), in
      participant order, then virtual link id, then substrate link id;
      each has bounds [0, 1] and cost 1 (minimize total flow);
    - rows, first: flow conservation, one equality row per (participant,
      virtual link in {!Graphs.Digraph.edges} order, substrate node),
      with +1 on the node's out-links and -1 on its in-links, and
      right-hand side 1 at the virtual link's source host, -1 at its
      target host and 0 elsewhere (0 everywhere when both share a host);
    - rows, then: per (state, substrate link) one [<= link_cap] row with
      a [link_demand] term for each virtual link of each active request.
      Demands that {!Lina.Tol.is_zero} accepts are dropped, and a state
      whose rows would all be empty emits none;
    - logicals follow, one per row, as in {!Lp.Std_form}.

    The matrix is written straight into CSC arrays: a flow column lists
    its two conservation rows ascending (none on a substrate self-loop,
    whose +1 and -1 cancel), then its capacity rows in state order.  The
    form equals [Lp.Std_form.of_model] of the same LP written as
    {!Lp.Model} term rows, bit for bit. *)

val run :
  ?lp_params:Lp.Simplex.params ->
  ?budget:Runtime.Budget.t ->
  ?stats:Runtime.Stats.t ->
  ?prof:Runtime.Span.recorder ->
  ?preplaced:(int * float) list ->
  Instance.t ->
  Solution.t * stats
(** The returned solution's [objective] is the access-control revenue.

    [?budget] is the shared solve budget: every probe LP bills its pivots
    against it, so greedy time composes with any exact search run on the
    same budget.  [?stats] accumulates [greedy_lp_solves] /
    [greedy_candidates] / [greedy_accepted] (plus the usual simplex
    counters) into the caller's record; [?prof] records one ["lp"] span
    (with its category leaves) per probe LP.  The heuristic's time is read
    from the span tree (the caller's ["greedy"] phase) or, for a whole
    solve, from {!Solver.outcome.runtime}.

    [?preplaced] pre-accepts the given (request index, start time) pairs
    before the greedy scan begins — the "heavy hitters" of the paper's
    conclusion, scheduled by a rigorous optimization, around which the
    remaining requests are admitted greedily (the [Hybrid] method of
    {!Solver.run}).  Their link flows are re-optimized together with
    every later admission.
    @raise Invalid_argument when the instance has no fixed node mappings,
    a pre-placement is out of range, repeated or outside its request's
    window, or the pre-placements are jointly infeasible. *)
