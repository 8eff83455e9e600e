(** Structured solve statistics: the one counter registry.

    One mutable record is created per top-level solve and threaded through
    every layer; each layer increments the counters it owns, unconditionally
    (profiling on or off).  The bench harness and the CLI consume this
    record directly instead of re-deriving per-layer numbers from scattered
    ad-hoc counters; what the span recorder adds on top are phase ticks and
    call counts ({!Span.tree_of}), not counters.

    Stats owns its encoding: {!merge}, {!to_json} and {!of_json} walk one
    field table, so each counter's name is written once.

    Every field is an integer count.  Stats keeps no times: a whole
    solve's duration is one elapsed delta on its {!Budget}
    ([Solver.outcome.runtime], [Engine.summary.runtime]), and the time of
    each phase is read from the span tree ({!Span.tree_of}). *)

type t = {
  (* lp *)
  mutable simplex_iterations : int;  (** pivots, primal + dual, all LPs *)
  mutable refactorizations : int;    (** full LU refactorizations *)
  mutable lp_solves : int;           (** LP (re-)solves started *)
  mutable ftran_nnz : int;           (** nonzeros of FTRAN results *)
  mutable btran_nnz : int;           (** nonzeros of BTRAN results *)
  mutable basis_updates : int;       (** Forrest–Tomlin updates absorbed *)
  mutable spike_fill : int;          (** factor entries added by FT updates
                                         (spike fill + row-eta multipliers) *)
  mutable refactor_fill : int;       (** refactorizations forced by fill
                                         growth (fill ratio) *)
  mutable refactor_drift : int;      (** refactorizations triggered by the
                                         periodic residual-drift check *)
  mutable refactor_forced : int;     (** refactorizations forced by a
                                         rejected (singular-spike) update *)
  mutable pricing_hits : int;        (** entering columns served by the
                                         candidate list without a sweep *)
  mutable pricing_sweeps : int;      (** full pricing sweeps *)
  (* mip *)
  mutable bb_nodes : int;            (** branch-and-bound nodes processed *)
  mutable incumbents : int;          (** incumbent improvements (any source) *)
  mutable bound_updates : int;       (** global dual bound improvements *)
  (* tvnep *)
  mutable greedy_lp_solves : int;    (** feasibility LPs the greedy solved *)
  mutable greedy_candidates : int;   (** candidate start times probed *)
  mutable greedy_accepted : int;     (** requests the greedy admitted *)
  (* randomized rounding (LP-decomposition rung) *)
  mutable rounding_attempts : int;   (** rounding draws realized (first
                                         attempt + every repair retry) *)
  mutable rounding_candidates : int; (** integral (start, weight) candidates
                                         produced by LP decomposition *)
  mutable rounding_repairs : int;    (** retries after an infeasible draw *)
  mutable rounding_fallbacks : int;  (** rounded solves that exhausted their
                                         repair budget (or lost the LP) and
                                         fell through to plain greedy *)
  (* service (online admission loop) *)
  mutable service_requests : int;    (** arrivals processed *)
  mutable service_admitted : int;    (** arrivals committed *)
  mutable service_denied : int;      (** arrivals denied admission *)
  mutable service_fallbacks : int;   (** decisions that fell past the exact
                                         rung to the greedy heuristic *)
  mutable service_reevals : int;
      (** always 0: the service decides each arrival once, in event
          order.  It counted discarded speculative evaluations when
          arrivals were evaluated in batches; the field stays so stats
          documents and the benchmark's [service.reevals] metric keep
          their shape. *)
}

val create : unit -> t
(** All counters zero. *)

val merge : into:t -> t -> unit
(** Fold one record into another (all fields summed).  Used both to
    aggregate per-solve stats in the bench harness and to fold per-worker
    records back into the caller's after a parallel batch. *)

val to_json : t -> Statsutil.Json.t
(** One integer object member per field, in declaration order.  This is
    the ["stats"] member of the versioned outcome JSON. *)

val of_json : Statsutil.Json.t -> (t, string) result
(** Inverse of {!to_json}.  A missing member decodes as zero (documents
    written before a counter existed); unknown members are ignored
    (retired counters such as [eta_entries], and the four retired
    [*_time] phase durations); a malformed value is an [Error] naming the
    member. *)

val to_string : t -> string
(** One-line human-readable rendering (used by the CLI). *)
