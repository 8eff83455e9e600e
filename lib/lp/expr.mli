(** Linear expressions over integer variable ids.

    An expression is a finite map from variable id to coefficient plus a
    constant term.  This is the algebra the formulations compose with:
    objective functions and constraint left-hand sides are expressions.
    {!Model} copies a row's terms out of the map when the row is added
    and keeps no expression per row. *)

type t

val zero : t

val const : float -> t

val var : ?coeff:float -> int -> t
(** [var v] is the expression [1.0 * x_v]; [~coeff] scales it. *)

val of_terms : ?const:float -> (int * float) list -> t
(** Sums duplicate variables. *)

val add : t -> t -> t

val sub : t -> t -> t

val scale : float -> t -> t

val add_term : t -> int -> float -> t
(** [add_term e v c] is [e + c * x_v]. *)

val add_const : t -> float -> t

val sum : t list -> t

val coeff : t -> int -> float

val constant : t -> float

val terms : t -> (int * float) list
(** Non-zero terms in increasing variable order. *)

val iter_terms : (int -> float -> unit) -> t -> unit
(** [iter_terms f e] applies [f v c] to the terms of {!terms}, in the same
    order, without building the list. *)

val num_terms : t -> int

val eval : t -> (int -> float) -> float
(** [eval e value_of] substitutes variable values. *)
