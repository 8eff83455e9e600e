(** Immutable sparse vectors stored as parallel (index, value) arrays with
    strictly increasing indices and no explicit zeros.  Used for matrix
    columns and for linear expressions after compaction. *)

type t = private { idx : int array; value : float array }

val empty : t

val of_assoc : (int * float) list -> t
(** Builds a sparse vector from an unsorted association list; duplicate
    indices are summed, entries that cancel (within {!Tol.eps}) are
    dropped.  @raise Invalid_argument on a negative index. *)

val to_assoc : t -> (int * float) list

val nnz : t -> int

val get : t -> int -> float
(** [get v i] is the coefficient at index [i] (binary search, 0.0 when
    absent). *)

val dot_dense : t -> float array -> float
(** Inner product with a dense vector; indices beyond the dense length
    raise [Invalid_argument]. *)

val axpy_dense : float -> t -> float array -> unit
(** [axpy_dense a x y] performs [y <- a*x + y] on the sparse support. *)

val scale : float -> t -> t

val add : t -> t -> t

val map : (float -> float) -> t -> t
(** Applies [f] to every stored value, dropping resulting zeros. *)

val iter : (int -> float -> unit) -> t -> unit

val fold : (int -> float -> 'a -> 'a) -> t -> 'a -> 'a

val max_index : t -> int
(** Largest stored index; [-1] when empty. *)

val pp : Format.formatter -> t -> unit
