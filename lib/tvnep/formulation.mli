(** Shared machinery of the three continuous-time MIP formulations.

    All models agree on the embedding layer (one {!Embedding.t} per
    request), the temporal variables ([t_e] per event, [t⁺]/[t⁻] per
    request) and the event-mapping variables χ⁺/χ⁻; they differ in the
    number of events and in how state allocations are represented.  The
    handle type {!t} is what the objective layer and the solution
    extractor consume, uniformly for every model. *)

type t = {
  model : Lp.Model.t;
  inst : Instance.t;
  n_events : int;
  n_states : int;  (** states sit between consecutive events *)
  embeddings : Embedding.t array;
  t_start : Lp.Model.var array;  (** t⁺ per request *)
  t_end : Lp.Model.var array;    (** t⁻ per request *)
  t_event : Lp.Model.var array;  (** one time value per event *)
  chi_start : (int * Lp.Model.var) array array;
      (** per request: (event index, χ⁺ variable), restricted to the
          allowed event range *)
  chi_end : (int * Lp.Model.var) array array;
  state_node_load : Lp.Expr.t array array;
      (** [state][substrate node] — total allocation expression, used by
          the capacity rows and by the load-balancing objective *)
  state_link_load : Lp.Expr.t array array;
  lift : Solution.t -> float array;
      (** Maps a feasible TVNEP solution to a full assignment of this
          model's variables (event permutation, event times, auxiliary
          allocation variables, …).  Used to seed branch-and-bound with
          the greedy's solution; the MIP layer re-verifies feasibility, so
          an imperfect lift is dropped, never trusted. *)
}

val add_embeddings :
  Lp.Model.t -> Instance.t -> relax_integrality:bool -> Embedding.t array

val add_temporal_vars :
  Lp.Model.t ->
  Instance.t ->
  n_events:int ->
  Lp.Model.var array * Lp.Model.var array * Lp.Model.var array
(** [(t_event, t_start, t_end)] with window-derived bounds
    ([t⁺ ∈ [t^s, t^e - d]], [t⁻ ∈ [t^s + d, t^e]]), event-time
    monotonicity (Constraint (13)) and the duration equalities (18). *)

val add_chi :
  Lp.Model.t ->
  Instance.t ->
  ranges:(int * int) array ->
  relax_integrality:bool ->
  (int * Lp.Model.var) array array
(** One binary per request per allowed event index, with the
    exactly-one-event row (Constraints (10)/(11), which subsume cut (19)
    when the ranges come from {!Depgraph.csigma_event_ranges}). *)

val link_time_exact :
  Lp.Model.t ->
  horizon:float ->
  t_event:Lp.Model.var array ->
  t_var:Lp.Model.var ->
  chi:(int * Lp.Model.var) array ->
  unit
(** Big-M link "the time variable equals the time of its event"
    (Constraints (14)/(15)); used for all starts and for Σ/Δ ends. *)

val link_time_interval :
  Lp.Model.t ->
  horizon:float ->
  t_event:Lp.Model.var array ->
  t_var:Lp.Model.var ->
  chi:(int * Lp.Model.var) array ->
  unit
(** cΣ end semantics (Constraints (16)/(17)): mapping an end onto event
    [e_i] confines it to [[t_{e_{i-1}}, t_{e_i}]]. *)

type sums
(** The cumulative χ sums of one request endpoint: [Σ_{j<=i} χ_j] and
    [Σ_{j>=i} χ_j] for every event index [i], built once. *)

val sums : (int * Lp.Model.var) array -> sums
(** The sums of a χ array as {!add_chi} returns it (one variable per
    index of a contiguous range). *)

val activity_expr : start:sums -> end_:sums -> state:int -> Lp.Expr.t
(** The Σ(R, e_i) macro (Table VIII, corrected form) from the request's
    start and end sums: 1 exactly on states where the request is
    active. *)

val add_two_k_event_skeleton :
  Lp.Model.t ->
  Instance.t ->
  relax_integrality:bool ->
  int
  * (int * Lp.Model.var) array array
  * (int * Lp.Model.var) array array
  * Lp.Model.var array
  * Lp.Model.var array
  * Lp.Model.var array
(** The event structure shared by the Σ- and Δ-Models: [2·|R|] events, one
    request endpoint bijectively per event, starts {e and} ends tied
    exactly to their event's time.  Returns
    [(n_events, chi_start, chi_end, t_event, t_start, t_end)]. *)

val add_pairwise_cuts : Lp.Model.t -> Instance.t -> t -> unit
(** Posts Constraint (20) from {!Depgraph.pairwise_cuts} onto the χ
    variables of the handle (skipping vacuous index combinations). *)

val extract_solution : t -> objective:float -> (int -> float) -> Solution.t
(** Reads a MIP valuation into a {!Solution.t}: embeddings via
    {!Embedding.extract}, schedules from the t⁺/t⁻ variables. *)

(** {2 Lifting helpers} — shared by the per-model [lift] closures. *)

val alloc_values :
  Instance.t -> req:int -> Solution.assignment -> float array * float array
(** Concrete (node, link) allocation vectors of one assignment: what the
    alloc macros of Table V evaluate to on a fixed solution. *)

val set_expr_var : float array -> Lp.Expr.t -> float -> unit
(** Writes [value] into the variable underlying a single-variable
    expression; silently ignores constants and compound expressions. *)

val lift_embedding :
  Instance.t -> req:int -> Embedding.t -> Solution.assignment -> float array -> unit
(** Fills [x_R], [x_V] (when mappings are free) and [x_E] for one
    request. *)

val lift_times :
  t -> Solution.t -> float array -> unit
(** Fills the per-request [t⁺]/[t⁻] variables from the solution times. *)

val set_chi : (int * Lp.Model.var) array -> int -> float array -> bool
(** Sets the χ variable of the given event index to 1 (others stay 0);
    [false] when the index lies outside the variable's allowed range. *)

val endpoint_order :
  Solution.t -> n_events:int -> int array * int array * float array
(** Σ/Δ lifting: the bijective endpoint→event assignment
    [(start_pos, end_pos, event_times)], sorted by scheduled time with
    ends preceding equal-time starts. *)
