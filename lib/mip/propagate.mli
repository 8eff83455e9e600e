(** Node-level domain propagation (bound tightening).

    Before paying for an LP re-solve, every branch-and-bound node runs a
    few rounds of activity-based constraint propagation: for each row
    [lo <= a·x <= hi] the minimal/maximal activities implied by the
    current column bounds either prove the node infeasible outright or
    tighten individual column bounds (rounded for integer columns).  On
    the TVNEP models this fixes cascades of event-assignment binaries
    (rows of the form [Σ χ = 1]) the moment one of them is branched on,
    pruning most infeasible nodes without any simplex work. *)

type t

val prepare : Lp.Std_form.t -> t
(** Precomputes the row-wise view of the constraint matrix, and the rows
    that tighten a bound or fail when processed alone at the form's own
    bounds (one pass over the rows). *)

type scratch
(** Per-worker worklist state: one dirty flag per row.  Not domain-safe —
    parallel workers need one each. *)

val scratch : t -> scratch
(** Allocates the worklist state for [run] on this form, once per
    worker. *)

type outcome =
  | Infeasible_node
  | Tightened of int  (** number of bound changes applied in place *)

val run :
  ?max_rounds:int -> t -> scratch -> lb:float array -> ub:float array ->
  outcome
(** Propagates to (bounded) fixpoint, mutating [lb]/[ub] (full column
    space: structurals then logicals).  Logical column bounds are treated
    as the row ranges and are never modified.  [max_rounds] defaults
    to 10.

    Event-driven: round 1 processes the rows {!prepare} found active at
    the form's bounds, the rows of every column (structural, or the
    row's own logical) whose bound in [lb]/[ub] differs from the form's,
    and the rows its own changes mark; a later round processes
    a row only when a bound of one of its columns changed after the
    row's own last processing began (changes the row made itself
    included; each change marks its column's rows through the CSC of
    the form).  A skipped row would recompute the activities of the
    form's bounds or of its last processing and change nothing, so the
    bounds, the [Tightened] count and the number of rounds are those of
    sweeping every row every round.  Allocates nothing beyond what
    [scratch] holds. *)

val skipped : scratch -> int
(** Row visits the last [run] on this scratch skipped as clean, over
    all its rounds. *)

val skipped_first_round : scratch -> int
(** The part of {!skipped} in round 1. *)
