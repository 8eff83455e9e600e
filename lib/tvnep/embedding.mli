(** Static (time-invariant) embedding variables and constraints shared by
    every TVNEP formulation — Tables III–V of the paper.

    Orientation convention: a virtual link [(src, dst)] is embedded as one
    unit of splittable flow from the substrate host of [src] to the host of
    [dst] (net outflow [x_V(src,·) - x_V(dst,·)] at every substrate node).

    When the instance carries fixed node mappings (the paper's evaluation
    fixes them a priori), no [x_V] variables are created: the mapping
    indicator degenerates to [x_R] at the prescribed host and 0 elsewhere,
    which both shrinks the model and strengthens its relaxation. *)

type t = {
  req_index : int;
  x_r : Lp.Model.var;  (** accept/reject indicator of the request *)
  x_v : Lp.Model.var array array option;
      (** [x_v.(vnode).(snode)] — mapping indicator variables; [None]
          exactly when mappings are fixed *)
  x_e : Lp.Model.var array array;
      (** [x_e.(vlink).(sedge)] — flow fraction variables in [0,1] *)
  node_alloc : (Lp.Model.var * float) list array;
      (** per substrate node: the allocᵥ macro of Table V as terms,
          empty when the request cannot load the node (zero demands
          contribute no term) *)
  link_alloc : (Lp.Model.var * float) list array;
      (** per substrate link: alloc_E, empty likewise *)
}

val build :
  Lp.Model.t -> Instance.t -> req:int -> relax_integrality:bool -> t
(** Creates the variables ([x_R], [x_V] if mappings are free, [x_E]) and
    posts Constraints (1) (node mapping) and (2) (flow construction).
    [relax_integrality] makes [x_R]/[x_V] continuous in [0,1] (used by the
    greedy's inner LPs where acceptance is already decided). *)

val fixed_node_alloc :
  Request.t -> int array -> Lp.Model.var -> n_sub:int ->
  (Lp.Model.var * float) list array
(** [fixed_node_alloc r map x_r ~n_sub] is [node_alloc] under the fixed
    mapping [map]: per substrate node, [x_R] times the demands hosted
    there summed in virtual-node order, zero demands ({!Lina.Tol.is_zero})
    dropped first; empty where nothing is hosted.  Shared by every
    embedding layer with fixed mappings, so they agree bit for bit. *)

val extract :
  Instance.t -> req:int -> t -> (int -> float) -> Solution.assignment
(** Reads a solved variable valuation back into a solution assignment.
    The request counts as accepted when [x_R > 0.5]; flows below [1e-9]
    are dropped. *)
