(** Iterative resource pricing for admission control.

    In the spirit of CloudNetworking's [optimizeResourcePriceNew.m]: each
    substrate resource carries a price per demand·time unit, derived from
    its time-integrated committed utilization and smoothed across
    updates.  The engine prices an admission candidate's assignment and
    denies the arrival when its revenue does not cover the priced cost —
    an optional policy replacing binary accept/deny.

    Prices are plain state owned by the engine's serve loop: they change
    only when the committed solution changes (commit, migration,
    release), and each arrival is priced against the prices current at
    its event. *)

type params = private {
  beta : float;  (** smoothing step in (0, 1]: weight of the new target *)
  sensitivity : float;  (** congestion coefficient of the price target *)
  floor : float;  (** baseline price per demand·time unit *)
}

val make_params :
  ?beta:float -> ?sensitivity:float -> ?floor:float -> unit -> params
(** Defaults [beta = 0.5], [sensitivity = 1.0], [floor = 0.0].
    @raise Invalid_argument when [beta] is outside (0, 1], or
    [sensitivity]/[floor] is negative or non-finite. *)

val default_params : params
(** [make_params ()]. *)

type t
(** Mutable price state: one price per substrate node and link. *)

val create : Tvnep.Instance.t -> params -> t
(** All prices start at [floor]. *)

val update : t -> Tvnep.Instance.t -> Tvnep.Solution.t -> unit
(** Recompute every resource's time-integrated utilization
    [u = Σ demand·interval / (capacity·horizon)] from the committed
    solution and smooth each price toward the congestion target
    [floor + sensitivity · u/(1 − u + ε)]:
    [p ← (1 − beta)·p + beta·target]. *)

val assignment_cost :
  t -> Tvnep.Instance.t -> int -> Tvnep.Solution.assignment -> float
(** Priced cost of holding the assignment for its scheduled interval:
    [Σ_v demand(v)·duration·price(host v) +
     Σ_l demand(l)·duration·Σ (frac·price(substrate link))]. *)

val node_prices : t -> float array
(** Copies. *)

val link_prices : t -> float array
