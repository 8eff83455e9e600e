(** Dense row-major matrices backed by a single flat float array.

    Used for the simplex basis inverse, where O(m²) row updates per pivot
    must touch contiguous memory. *)

type t

val create : rows:int -> cols:int -> t
(** Zero matrix. *)

val of_rows : float array array -> t
(** @raise Invalid_argument on ragged input. *)

val copy : t -> t

val rows : t -> int
val cols : t -> int

val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit

val mult_vec : t -> float array -> float array

val swap_rows : t -> int -> int -> unit

val raw : t -> float array
(** The underlying row-major storage (entry [(i, j)] lives at
    [i * cols + j]).  Escape hatch for numerical kernels (LU, simplex)
    whose inner loops cannot afford per-element accessor calls; mutating
    it mutates the matrix. *)

val col_axpy : t -> int -> float -> float array -> unit
(** [col_axpy m j a w] performs [w <- w + a * column j] — the FTRAN kernel
    when the basis inverse is stored explicitly. *)

val pivot_update : t -> float array -> int -> unit
(** [pivot_update binv d r] applies the product-form simplex update to the
    explicit inverse: given the pivot column [d = B⁻¹ A_q] and the leaving
    row [r], transforms [binv <- E · binv] where [E] is the elementary
    matrix mapping [d] to the unit vector [e_r].
    @raise Invalid_argument when [abs d.(r)] is below {!Tol.pivot}. *)
