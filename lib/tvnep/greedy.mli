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
  lp_solves : int;       (** feasibility LPs attempted *)
  candidates_tried : int;
  runtime : float;       (** budget-clock seconds *)
}

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
    against it and [runtime] is measured as an elapsed delta on its clock,
    so greedy time composes with any exact search run on the same budget.
    [?stats] accumulates [greedy_lp_solves] / [greedy_candidates] /
    [greedy_accepted] / [greedy_time] (plus the usual simplex counters)
    into the caller's record; [?prof] records one ["lp"] span (with its
    category leaves) per probe LP.

    [?preplaced] pre-accepts the given (request index, start time) pairs
    before the greedy scan begins — the "heavy hitters" of the paper's
    conclusion, scheduled by a rigorous optimization, around which the
    remaining requests are admitted greedily (the [Hybrid] method of
    {!Solver.run}).  Their link flows are re-optimized together with
    every later admission.
    @raise Invalid_argument when the instance has no fixed node mappings,
    a pre-placement is out of range or outside its request's window, or
    the pre-placements are jointly infeasible. *)
