(** Mutable mixed-integer linear program builder.

    The formulation modules of the TVNEP core construct one of these and
    compile it with {!Std_form.of_model} for {!Simplex} (continuous
    relaxation) or the [Mip] library (integer optimization).  Variables
    are identified by dense integer ids in creation order; those ids are
    what {!Expr} expressions refer to.  Rows are kept flat — each row's
    cleaned, summed terms in one shared term store, next to its bounds —
    so compiling replays them without rebuilding any expression. *)

type t

type sense = Minimize | Maximize

type var_kind = Continuous | Integer | Binary

type var = private int
(** Variable handle; also usable directly as an {!Expr} variable id. *)

val create : unit -> t

val add_var : ?lb:float -> ?ub:float -> ?kind:var_kind -> t -> var
(** Adds a variable.  Defaults: [lb = 0.], [ub = infinity],
    [kind = Continuous].  [Binary] forces bounds into [0,1] (intersected
    with any given bounds).  @raise Invalid_argument when [lb > ub]. *)

val add_le : t -> Expr.t -> float -> unit
(** [add_le m e rhs] adds the row [e <= rhs] (the expression's constant is
    moved to the right-hand side). *)

val add_ge : t -> Expr.t -> float -> unit

val add_eq : t -> Expr.t -> float -> unit

val add_range : t -> lo:float -> hi:float -> Expr.t -> unit
(** [lo <= e <= hi].  @raise Invalid_argument when [lo > hi]. *)

val set_objective : t -> sense -> Expr.t -> unit
(** The expression's constant becomes the objective offset. *)

val objective : t -> sense * Expr.t

val fix_var : t -> var -> float -> unit
(** Sets both bounds to the given value. *)

val num_vars : t -> int
val num_constrs : t -> int

val var_of_id : t -> int -> var
(** @raise Invalid_argument when the id is out of range. *)

val var_kind : t -> var -> var_kind
val var_lb : t -> var -> float
val var_ub : t -> var -> float

(** {2 Rows, for compilation} *)

val add_row_terms : t -> Lina.Csc.Builder.b -> unit
(** Adds every row term to the builder at (row index, variable id): rows
    in insertion order, each row's terms ascending by variable, as
    {!Expr.iter_terms} handed them over (no zero and no repeated
    variable within a row). *)

val row_lo : t -> int -> float
val row_hi : t -> int -> float
(** Bounds of the row with the given insertion index, with the
    expression's constant already folded in.
    @raise Invalid_argument when the index is out of range. *)
