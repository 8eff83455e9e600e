(** Compressed sparse column (CSC) matrices.

    The simplex solver stores the constraint matrix in this format: pricing
    and column extraction (FTRAN input) need fast access to whole columns.
    Matrices are immutable once built.  Assemblers write the arrays in
    final order and hand them over with {!of_arrays}, which checks the
    invariants. *)

type t = private {
  rows : int;
  cols : int;
  col_ptr : int array;  (** length [cols + 1] *)
  row_idx : int array;
      (** length [nnz], row index of each entry; strictly ascending
          within each column, whichever function built the matrix *)
  value : float array;  (** length [nnz] *)
}
(** Row order is an invariant the simplex relies on: a dot of column [j]
    with a vector adds its terms in ascending row order, so the
    row-wise scatter of a vector over the transpose, which walks the rows
    in ascending order, computes the same sums bit for bit. *)

val of_arrays :
  rows:int -> cols:int -> col_ptr:int array -> row_idx:int array ->
  value:float array -> t
(** The matrix whose column [j] holds rows [row_idx.(k)] with values
    [value.(k)] for [k] in [col_ptr.(j) .. col_ptr.(j+1) - 1].  The arrays
    become the matrix's own (nothing is copied).  Checked in O(nnz +
    cols): [col_ptr] has [cols + 1] nondecreasing entries from 0 to the
    arrays' common length, and every column's rows are in range, strictly
    ascending and hold no exact zero.
    @raise Invalid_argument otherwise. *)

val rows : t -> int
val cols : t -> int
val nnz : t -> int

val of_dense : float array array -> t
(** [of_dense m] from a row-major dense matrix (rows of equal length);
    entries that [Tol.is_zero] accepts are not stored. *)

val to_dense : t -> float array array

val get : t -> int -> int -> float
(** [get m i j]; binary search within column [j]. *)

val iter_col : t -> int -> (int -> float -> unit) -> unit
(** [iter_col m j f] applies [f row value] over the stored entries of
    column [j] without allocating. *)

val mult_vec : t -> float array -> float array
(** [mult_vec m x] is the dense product [m * x]. *)

val mult_trans_vec : t -> float array -> float array
(** [mult_trans_vec m y] is the dense product [mᵀ * y]. *)

val col_dot : t -> int -> float array -> float
(** [col_dot m j y] is the inner product of column [j] with dense [y] —
    the reduced-cost kernel of the simplex pricing loop. *)

val transpose : t -> t
(** Direct counting transpose in O(nnz + rows + cols) time; it allocates
    only the result.  Values are copied unchanged. *)

val transpose_into :
  t -> col_ptr:int array -> row_idx:int array -> value:float array -> unit
(** [transpose_into m ~col_ptr ~row_idx ~value] writes {!transpose}[ m]'s
    arrays into the given buffers, in the same entry order, allocating
    nothing: column [i] of the transpose (row [i] of [m]) lists its
    entries at [col_ptr.(i) .. col_ptr.(i+1) - 1].  The buffers may be
    longer than needed ([rows m + 1] pointers, [nnz m] entries); the
    rest is left as it was.
    @raise Invalid_argument when one is shorter. *)
