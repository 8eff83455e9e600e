(** The simplex basis: sparse LU factors updated by Forrest–Tomlin.

    The revised simplex needs four operations against the basis matrix
    [B] (columns of [[A | diag unit_sign]] indexed by basis position):
    FTRAN ([B x = b]), BTRAN ([Bᵀ y = c]), extraction of one row of
    [B⁻¹], and a rank-one update after a pivot.  They run on sparse LU
    factors ({!Lina.Lu.Sparse}) that absorb each pivot in place
    ({!Lina.Lu.Sparse.ft_update}), so solves stay
    O(nnz(L)+nnz(U)+nnz(row etas)) where the row-eta file holds only
    elimination multipliers, not a full spike per pivot.  The caller
    refactorizes on measured fill growth ({!fill_ratio}) or residual
    drift, and when an update is rejected. *)

type t

val create : int -> t
(** [create m] allocates the factors and workspace of a dimension-[m]
    basis — O(m) words — holding no basis yet: install one with
    {!load_identity} or {!factorize} before the first solve (a solve
    before that raises [Invalid_argument]).  [m] is also the capacity:
    the largest dimension {!reset} accepts. *)

val reset : t -> int -> unit
(** [reset t m] makes [t] a dimension-[m] basis holding no basis, as
    {!create} [m] would, keeping every buffer it has grown: a solver
    state recycled for another LP reuses its representation this way.
    Every index range then runs to [m], whatever the buffers' lengths.
    @raise Invalid_argument when [m] exceeds the capacity. *)

val update_count : t -> int
(** Forrest–Tomlin updates absorbed since the last (re)factorization. *)

val fill_ratio : t -> float
(** Current factor size relative to the fresh factorization
    ({!Lina.Lu.Sparse.ft_fill_ratio}).  The fill-growth signal of the
    refactorization policy. *)

val fill_exceeds : t -> float -> bool
(** [fill_exceeds t limit] is [fill_ratio t > limit], without boxing the
    ratio (the check runs after every pivot). *)

val solve_cost : t -> int
(** Deterministic {e upper bound} on the work of one FTRAN or BTRAN at
    the current factor size — [nnz(factors)+m].  Used to bill
    factorizations; the solve operations themselves return the
    (reach-bounded) work they actually performed, which is what the
    simplex bills to the budget clock. *)

val load_identity : t -> float array -> unit
(** [load_identity t signs] installs the basis [diag signs] over the
    first [m] entries of [signs] (signs are ±1: the cold-start basis of
    logical and artificial columns), clearing any absorbed updates.
    Allocates nothing once the factors have been installed before. *)

val factorize : t -> Lina.Csc.t -> unit_sign:float array -> int array -> unit
(** [factorize t a ~unit_sign basic] refactorizes from scratch the basis
    whose column [pos] is column [basic.(pos)] of [[a | diag unit_sign]]
    (a column of [a], or past [Csc.cols a] a signed unit column — the
    simplex's artificials), read straight from the CSC arrays; [basic]
    may be longer than [m].  Clears the absorbed updates.  The factors
    are written in place into storage the representation owns, so once
    that storage has grown to the basis' size a refactorization
    allocates nothing.
    @raise Lina.Lu.Singular on a (numerically) singular basis, leaving
    the factors installed before the call usable. *)

val ftran_col :
  t -> Lina.Csc.t -> unit_sign:float array -> int -> float array -> int
(** [ftran_col t a ~unit_sign j w] writes [B⁻¹ a_j] into [w], column
    [j] of [[a | diag unit_sign]] as in {!factorize} ([unit_sign] holds
    no zeros).  Precondition: [w] (length [m]) is all zero on entry —
    the column is scattered into it and its pattern (the CSC row
    indices, or the unit column's row) is handed to the solve
    ({!Lina.Lu.Sparse.ft_ftran_roots}), so no O(m) pass scans or clears
    [w].  A caller reusing one buffer restores the precondition by
    zeroing it over the {!support} of the solve that last wrote it, or
    entirely when that solve reported none.  A [-0.0] that a solve left
    outside its support counts as zero: off the pattern the buffer
    enters the solve (on the dense path only) as zeros, so the nonzeros
    of the result are bitwise those on a fresh buffer and only the sign
    of a zero can differ.  Returns the work performed by the
    reach-bounded sparse solves — a deterministic function of
    the basis and the RHS, suitable for clock billing, and still
    counting the [m] of the skipped scan so the bill is unchanged.  The
    solve also stashes the column's spike, which a following {!update}
    consumes. *)

val ftran_in_place : t -> float array -> int
(** [ftran_in_place t b] overwrites the dense [b] (indexed by row) with
    [B⁻¹ b] (indexed by basis position).  Returns the work performed, as
    in {!ftran_col}. *)

val btran_in_place : t -> float array -> int
(** [btran_in_place t c] overwrites the dense [c] (indexed by basis
    position) with [B⁻ᵀ c] (indexed by row).  Returns the work
    performed. *)

val unit_row : t -> int -> float array -> int
(** [unit_row t r out] writes row [r] of [B⁻¹] into [out] — the BTRAN
    of [e_r], i.e. the pivot row of the dual simplex.  Precondition, as
    for {!ftran_col}: [out] (length [m]) is all zero on entry; the solve
    is fed the pattern [[r]] and makes no O(m) pass when its result is
    sparse.  Returns the work performed (with the [m] of the skipped
    scan, as for {!ftran_col}). *)

(** {2 Result support}

    The last solve ({!ftran_col}, {!ftran_in_place}, {!btran_in_place},
    {!unit_row}) hands back where its result can be nonzero, per
    {!Lina.Lu.Sparse.support_len}, so the simplex walks a pivot column
    or an inverse row in time proportional to its nonzeros. *)

val support_len : t -> int
(** Entries of the last solve's support, ascending and listing every
    nonzero of the result exactly once; [-1] when the solve took the
    dense-scan path and the caller must scan all [m] positions. *)

val support : t -> int array
(** The buffer holding that support in its first {!support_len}
    entries; overwritten by the next solve, factorization or update. *)

val result_nnz : t -> int
(** Nonzeros of the last solve's result, counted by the solve itself. *)

val update : t -> r:int -> bool
(** [update t ~r] makes the column of the last FTRAN basic at position
    [r] by a Forrest–Tomlin in-place update: it consumes the spike
    stashed by that FTRAN, which must be the most recent one.  Returns
    [false] when the update is rejected: the spike's updated diagonal
    fell below the pivot tolerance, so the update form cannot represent
    this basis change stably.  The basis {e change} is fine — the caller
    must refactorize from the new basis before the next solve.
    @raise Invalid_argument when no spike is stashed or the factors are
    stale from a rejected update. *)

val update_work : t -> int
(** Deterministic work of the last accepted {!update} (for clock
    billing). *)

val update_added : t -> int
(** Entries the last accepted {!update} appended to the factors (spike
    fill plus row-eta multipliers). *)
