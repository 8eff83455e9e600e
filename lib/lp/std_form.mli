(** Computational standard form.

    A {!Model.t} is compiled once into
    [minimize cᵀx  s.t.  A·x = 0,  lb <= x <= ub]
    where [x] stacks the structural variables followed by one logical
    variable per row: the row [lo <= e <= hi] becomes [e - y = 0] with
    [y ∈ [lo, hi]].  A maximization objective is negated ([obj_factor]
    restores the user-facing value).  Compilation is one counting
    transpose of the model's canonical row store ({!Model.row_store}) plus
    the logical [-1] entries, straight into the CSC arrays of [a] (rows
    ascending within each column, no repeated row, no zero); columns are
    identified by index only.  The form does not carry [Aᵀ]: every solver
    session transposes [a] into buffers it recycles.

    The MIP search reuses one compiled form for every node, overriding
    structural bounds per node. *)

type t = {
  n_struct : int;  (** number of structural columns *)
  n_rows : int;    (** number of rows = number of logical columns *)
  a : Lina.Csc.t;  (** [n_rows × (n_struct + n_rows)]; logical part is -I *)
  cost : float array;  (** length [n_struct + n_rows]; zero on logicals *)
  lb : float array;    (** length [n_struct + n_rows] *)
  ub : float array;
  obj_const : float;
  obj_factor : float;  (** +1 for minimize, -1 for maximize *)
  integer : bool array;  (** length [n_struct] *)
}

val of_model : Model.t -> t

val n_total : t -> int
(** [n_struct + n_rows]. *)

(** {2 Incremental columns (column generation)} *)

type column = {
  col_cost : float;  (** objective coefficient in the {e model's} sense *)
  col_lb : float;
  col_ub : float;
  col_entries : (int * float) list;  (** (row index, coefficient) pairs *)
}

val append_columns : t -> column list -> t
(** A new form with the given columns inserted as {e structurals} — at
    positions [n_struct .. n_struct + k - 1], before the logicals — so
    all downstream index contracts survive: logicals remain the trailing
    [n_rows] columns and old structural indices are unchanged.  A basis
    of the old form maps onto the new one by shifting every index
    [>= n_struct] up by [k] ({!Simplex.session_add_columns} does this
    in-place on a live session).  New columns are continuous.  The
    original form is not mutated; the sparse matrix is copied in O(nnz)
    with the new columns spliced in, each with its rows ascending, a
    repeated row's coefficients summed newest first (the order of a
    triplet accumulator that sorts stably by row over the entries
    reversed), and sums that [Tol.is_zero] accepts dropped.
    @raise Invalid_argument on a bad row index or crossed bounds. *)

val user_objective : t -> float -> float
(** Maps an internal (minimization) objective value back to the model's
    objective sense and offset. *)

val row_activity : t -> float array -> float array
(** [row_activity sf x] evaluates all rows on structural values [x]
    (length [n_struct]). *)

val is_feasible_point :
  ?tol:float -> ?act:float array -> t -> ?lb:float array -> ?ub:float array ->
  float array -> bool
(** Checks structural bounds and row ranges on a candidate structural
    point; [?lb]/[?ub] override structural bounds (as in a MIP node).
    The row activities go to [?act] (at least [n_rows] long) when given,
    so that a caller checking many points allocates nothing per check. *)
