(** The cΣ-Model (Section IV) — the paper's main contribution.

    Compactification: only [|R|+1] event points; request starts map
    bijectively onto events [e_0 .. e_{k-1}] while ends map (many-to-one)
    onto [e_1 .. e_k], meaning "ended within [(t_{e_{i-1}}, t_{e_i}]]".
    This halves the state space of the Σ-Model and removes the [2^k]
    symmetric orderings of request ends (Section IV-D).

    With [use_cuts] the temporal dependency graph restricts each χ
    variable to its feasible event range (Constraint (19)) and — the
    induced presolve — states on which a request is {e certainly} active
    contribute their allocation directly to the capacity rows instead of
    through [a_R] variables (state-space reduction); [pairwise_cuts] adds
    Constraint (20). *)

type options = {
  use_cuts : bool;        (** event ranges (19) + state-space presolve *)
  pairwise_cuts : bool;   (** cumulative dominance cuts (20) *)
  relax_integrality : bool;
}

val default_options : options
(** Cuts on, integrality kept. *)

val build :
  ?options:options ->
  ?prof:Runtime.Span.recorder ->
  ?budget:Runtime.Budget.t ->
  ?embeddings:(Lp.Model.t -> Embedding.t array) ->
  Instance.t ->
  Formulation.t
(** Builds the formulation.  With both [?prof] and [?budget], the
    dependency-graph presolve and the pairwise cut separation record
    ["presolve"] and ["cuts"] spans (build work does not tick the work
    clock, so their tick width is ≈0 under a deterministic budget; they
    carry wall time when the recorder captures it).

    [?embeddings] swaps the per-request embedding layer: the factory is
    called once on the fresh model and must return one {!Embedding.t} per
    request.  The temporal machinery only consumes the
    [node_alloc]/[link_alloc] terms (plus [x_r]), so an alternative
    flow formulation — e.g. {!Colgen_model}'s path-based restricted
    master — plugs in here without touching the cΣ layer.  Default:
    {!Formulation.add_embeddings} (the paper's arc-flow form). *)
