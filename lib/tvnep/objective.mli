(** The four objective functions of Section IV-E, applied uniformly to any
    formulation handle.

    Access control leaves the accept/reject decision free; the other three
    objectives fix every request to be embedded (as in the paper) and
    optimize the schedule/embedding quality. *)

type t =
  | Access_control
      (** maximize provider revenue [Σ x_R · d_R · Σ_v c_R(v)] *)
  | Max_earliness
      (** maximize [Σ d_R (1 - (t⁺-t^s)/(t^e-d-t^s))]; zero-flexibility
          requests contribute their full fee [d_R] as a constant *)
  | Balance_node_load of float
      (** maximize the number of substrate nodes never loaded above the
          given fraction of their capacity (binary F per node) *)
  | Disable_links
      (** maximize the number of substrate links carrying no flow at all
          over [0, T] (binary D per link) *)
  | Min_makespan
      (** minimize the time by which every request has completed (the
          "makespan minimization" named in the paper's contribution
          list) *)
  | Access_with_move_cost of {
      weight : float;
      reference : (int * float) list;
    }
      (** access-control revenue minus [weight · Σ |t⁺_R − ref_R|] over
          the referenced requests — the reconfiguration objective of the
          online service: an admission enabled by migrating committed
          requests must pay for the schedule moves it causes.  Each
          referenced request gets an auxiliary continuous move variable
          [MV_R ≥ |t⁺_R − ref_R|] entering the objective at [−weight];
          acceptance stays free, exactly as under plain access control. *)

val revenue_terms :
  Instance.t -> Embedding.t array -> (Lp.Model.var * float) list
(** The access-control revenue [Σ x_R · d_R · Σ_v c_R(v)] as objective
    terms: [(x_R, d_R · Σ_v c_R(v))] per request, in request order —
    the one builder behind every model's access-control objective. *)

val name : t -> string

val requires_full_embedding : t -> bool
(** True for every objective except access control. *)

type extras = {
  free_nodes : Lp.Model.var array option;
      (** the F variables, indexed by substrate node *)
  disabled_links : Lp.Model.var array option;
      (** the D variables, indexed by substrate link *)
  makespan : Lp.Model.var option;  (** the T_max variable *)
}

val apply : Formulation.t -> t -> extras
(** Installs the objective on the handle's model, adding the auxiliary
    binaries and rows an objective needs, and fixing [x_R = 1] when
    {!requires_full_embedding}.
    @raise Invalid_argument for [Balance_node_load f] with [f] outside
    (0, 1), and for [Access_with_move_cost] with a negative or non-finite
    weight, an out-of-range reference index, or a request referenced
    twice. *)
