(** Discrete-time baseline formulation (ablation).

    The classic alternative the paper argues {e against} (Section III):
    chop [0, T] into slots of fixed width and decide a start slot per
    request.  Start times snap to the grid, so the model is only an
    approximation — a coarse grid loses feasible schedules (conservative:
    it never accepts a schedule the continuous problem would reject,
    because snapped requests still occupy ⌈d/w⌉ full slots), while a fine
    grid explodes in size: one activity indicator and one set of capacity
    rows per slot.  The [ablation-discrete] bench sweeps the slot width to
    expose exactly this trade-off against the cΣ-Model.

    Only the access-control objective is supported (it is the one the
    model comparison figures use). *)

type options = {
  slot_width : float;  (** grid granularity; must be positive *)
  relax_integrality : bool;
}

val default_options : options
(** Slot width 1.0 (one "hour"). *)

val num_slots : Instance.t -> options -> int

type t = {
  model : Lp.Model.t;
  inst : Instance.t;
  n_slots : int;
  embeddings : Embedding.t array;
  start_slot : (int * Lp.Model.var) array array;
      (** per request: (slot index, indicator) over its admissible slots *)
}

val build : ?options:options -> Instance.t -> t
(** @raise Invalid_argument on a non-positive slot width or when some
    request admits no start slot at this granularity. *)

val solve :
  ?options:options ->
  ?mip:Mip.Branch_bound.params ->
  ?budget:Runtime.Budget.t ->
  ?stats:Runtime.Stats.t ->
  Instance.t ->
  Solver.outcome
(** Builds, applies the access-control objective and optimizes; decodes
    starts back to continuous times (slot index × width).  [?budget] /
    [?stats] thread through to {!Mip.Branch_bound.solve}; without
    [?budget] the solve runs on a fresh one built from [mip]'s time and
    node limits.  The outcome's [runtime] and [ticks] are deltas on that
    budget, model build included. *)
