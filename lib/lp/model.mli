(** Mutable mixed-integer linear program builder.

    The formulation modules of the TVNEP core construct one of these and
    compile it with {!Std_form.of_model} for {!Simplex} (continuous
    relaxation) or the [Mip] library (integer optimization).  Variables
    are identified by dense integer ids in creation order.

    A row or the objective is handed over as a plain term list
    [(variable, coefficient)] and kept in canonical form: terms in
    ascending variable order, a repeated variable's coefficients summed
    in the order given, sums that [Lina.Tol.is_zero] accepts dropped.
    Rows are stored flat — each row's canonical terms in one shared term
    store, next to its bounds — so compiling transposes them as they
    are. *)

type t

type sense = Minimize | Maximize

type var_kind = Continuous | Integer | Binary

type var = private int
(** Variable handle; its id is its structural column. *)

val create : unit -> t
(** An empty model.  It starts on the arrays of the last model
    {!release}d on this domain when there is one, so building it
    regrows nothing that model had already grown; the contents never
    depend on which arrays it starts on. *)

val release : t -> unit
(** Hands the model's arrays to the next {!create} on this domain (the
    domain keeps the larger term store of this model and the one it
    already holds) and empties the model: every later use of it raises
    [Invalid_argument].  Call it only on a model nothing reads any more.
    @raise Invalid_argument when the model was already released. *)

val add_var : ?lb:float -> ?ub:float -> ?kind:var_kind -> t -> var
(** Adds a variable.  Defaults: [lb = 0.], [ub = infinity],
    [kind = Continuous].  [Binary] forces bounds into [0,1] (intersected
    with any given bounds).  @raise Invalid_argument when [lb > ub]. *)

val add_le : t -> (var * float) list -> float -> unit
(** [add_le m terms rhs] adds the row [Σ c·x <= rhs].
    @raise Invalid_argument when a term's variable is not in [m]. *)

val add_ge : t -> (var * float) list -> float -> unit

val add_eq : t -> (var * float) list -> float -> unit

val add_range : t -> lo:float -> hi:float -> (var * float) list -> unit
(** [lo <= Σ c·x <= hi].  @raise Invalid_argument when [lo > hi]. *)

val set_objective : t -> sense -> ?offset:float -> (var * float) list -> unit
(** Replaces the objective with [Σ c·x + offset] (default offset 0). *)

val objective : t -> sense * (var * float) list * float
(** Sense, canonical terms and offset of the objective. *)

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

val row_store : t -> int array * int array * float array
(** [(row_start, var, coeff)]: the row with insertion index [i] holds the
    terms [(var.(p), coeff.(p))] for [p] in
    [row_start.(i) .. row_start.(i + 1) - 1], in canonical form
    (ascending by variable, no zero and no repeated variable within a
    row).  These are the model's own arrays, longer than the terms they
    hold: read them, do not keep or write them. *)

val row_terms : t -> int -> (var * float) list
val row_lo : t -> int -> float
val row_hi : t -> int -> float
(** Canonical terms and bounds of the row with the given insertion
    index.  @raise Invalid_argument when the index is out of range. *)
