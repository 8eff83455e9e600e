(** Sparse LU factors of the simplex basis ({!Sparse}) and their
    Forrest–Tomlin updates.

    Left-looking column LU over CSC columns, kept {e as factors} (never
    expanded to an inverse).  The factors live in the Forrest–Tomlin
    updatable representation ({!Sparse.ft}), which owns all of their
    storage: a refactorization ({!Sparse.ft_factorize}) writes into it in
    place, FTRAN/BTRAN run in O(nnz(L)+nnz(U)+nnz(row etas)), and
    {!Sparse.ft_update} absorbs each simplex pivot in place;
    {!Lp.Basis} wraps them for the simplex. *)

exception Singular of int
(** Raised (with the offending elimination step) when no pivot of
    magnitude at least {!Tol.pivot} exists. *)

module Sparse : sig
  type scratch
  (** Preallocated workspace (value buffer, stamp marks, DFS stack, reach
      buffers) shared by the factorization and the solves, plus the
      staging storage a factorization builds its factors in before
      installing them (sized by the first factorization through it; its
      entry stores keep what they grew to).  The solves never allocate.
      One per basis representation, of at least the factors' dimension.
      Not domain-safe: callers on parallel workers need one scratch
      each. *)

  val scratch : int -> scratch
  (** [scratch n] builds a workspace for factorizations and solves of
      dimension up to [n]. *)

  (** {3 Reach-based solves}

      {!ft_ftran} and {!ft_btran} are Gilbert–Peierls sparse triangular
      solves: the nonzero pattern of the solution is the graph reach of
      the RHS support over the factor adjacency, computed by a
      depth-first search whose cost is bounded by the pattern's edges —
      so a solve against a sparse RHS (a unit vector, an entering column,
      a near-empty cost vector) does work proportional to its
      {e nonzeros}, not the basis dimension.  Above {!dense_threshold}
      RHS density they run the dense-scan passes ({!ft_ftran_dense},
      {!ft_btran_dense}), whose sequential sweeps win once most
      positions are touched anyway.  {!ft_ftran} and {!ft_btran} find
      the RHS support by one scan of all [n] entries; a caller that
      already knows it (an entering column, a unit vector) passes it to
      {!ft_ftran_roots}/{!ft_btran_roots} and skips that scan. *)

  val dense_threshold : float
  (** RHS density (support / dimension) above which {!ft_ftran} and
      {!ft_btran} switch to the dense-scan path. *)

  (** {3 Forrest–Tomlin updatable factors}

      In-place sparse LU update for a basis column swap: instead of
      appending a product-form eta whose cost every later solve pays,
      the spike [v = (row etas ∘ L)⁻¹ a_q] is eliminated against [U] — the
      replaced factor column logically moves to the end of the
      triangular order, its row is emptied by one {e row eta}
      [E = I − e_t·mᵀ] of elimination multipliers, and the spike becomes
      the new column.  Solves stay O(nnz(L)+nnz(U)+nnz(row etas)), where
      the row-eta file grows only by the multipliers (typically a few
      entries per update), not by a full spike per pivot. *)

  type ft
  (** Updatable factors [B[p,q] = L·U]: the static [L] and permutations
      of the last refactorization plus a dynamic [U] (synchronized
      per-column and per-row entry lists) and the row-eta file.  They own
      every array of the installed factors: the per-index arrays are
      sized to the capacity fixed by {!ft_create}, and the [L] arrays,
      the [U] lists and the row-eta file keep what they grew to, so once
      grown for a basis, a refactorization or an identity load — and the
      updates that follow — allocate nothing.  A basis whose [U] has a
      longer column or row than the lists held before grows those lists.
      The logical dimension ({!ft_dim}) may be anything up to the
      capacity ({!ft_reset}). *)

  val ft_create : int -> ft
  (** [ft_create n] allocates updatable factors of dimension and capacity
      [n] with no factorization yet (the per-index factor arrays and the
      entries are allocated by the first factorization): every
      solve and update raises until {!ft_factorize} or
      {!ft_load_diagonal} installs factors. *)

  val ft_reset : ft -> int -> unit
  (** [ft_reset f n] drops the factors and sets the dimension to [n],
      leaving [f] as {!ft_create} [n] would: no factors, no updates, no
      spike.  Its storage, grown for any dimension, is kept.
      @raise Invalid_argument when [n] exceeds the capacity (the
      dimension [f] was created with). *)

  val ft_factorize :
    ft -> scratch -> Csc.t -> unit_sign:float array -> int array -> unit
  (** [ft_factorize f s a ~unit_sign basic] refactorizes [f] in place from
      the square matrix whose column [pos < ft_dim f] is column
      [basic.(pos)] of [[a | diag unit_sign]]: column [j] of [a] when
      [j < Csc.cols a], otherwise the unit column [unit_sign.(k)·e_k]
      with [k = j − Csc.cols a] — the simplex basis of structural,
      logical and artificial columns, read straight from the CSC arrays.
      [s] must have at least [f]'s dimension; all working storage comes
      from it and from [f].  Clears the absorbed updates and the row-eta
      file.  The elimination runs in the staging storage of [s] and is
      installed into [f] only once every column has its pivot, so a failed
      refactorization leaves the factors installed before the call — and
      their usability — exactly as they were.
      @raise Singular when no acceptable pivot exists ([s] is left
      consistent).

      Cost: O(n + nnz + flops + Σ reach), where nnz counts the input
      entries and the factors, flops the elimination updates, and reach,
      per column, the earlier factor columns that its pattern reaches
      through L (sorted by {!sort_prefix}, plus one step per bitmap word
      a long reach spans).  The column order is a stable counting sort on
      the nonzero count.  Each column is eliminated against its reach
      in ascending factor order, the order of a scan over every earlier
      column, so each entry receives its updates in the same sequence
      and the factors are bit-identical to that scan's. *)

  val factorize : n:int -> col:(int -> (int -> float -> unit) -> unit) -> ft
  (** [factorize ~n ~col] factorizes the [n]×[n] matrix whose column [j]
      is enumerated by [col j f] as [f row value] calls (duplicates are
      summed in emission order) into new factors: {!ft_factorize} on the
      columns copied into CSC arrays, with a new scratch.  For tests and
      one-off factorizations.  @raise Singular as {!ft_factorize}. *)

  val ft_load_diagonal : ft -> float array -> unit
  (** [ft_load_diagonal f d] installs the trivial factorization of
      [diag d] over the first {!ft_dim} entries of [d] — the simplex
      cold-start basis of signed unit columns — clearing any absorbed
      updates.  @raise Singular on a near-zero entry, before anything is
      written. *)

  val ft_dim : ft -> int
  (** The logical dimension. *)

  val ft_nnz : ft -> int
  (** Stored entries of [L], [U] (diagonal included) and the row-eta
      file: the cost of one solve against the updated factors (fresh
      from a refactorization, the factors' own nnz). *)

  val ft_updates : ft -> int
  (** Updates applied since the last refactorization. *)

  val ft_eta_nnz : ft -> int
  (** Row-eta multiplier entries accumulated since the last
      refactorization. *)

  val ft_fill_ratio : ft -> float
  (** [ft_nnz] relative to the fresh factorization's nnz: the fill
      signal driving the refactorization policy. *)

  val ft_fill_exceeds : ft -> float -> bool
  (** [ft_fill_exceeds f limit] is [ft_fill_ratio f > limit] without
      boxing the ratio: the per-pivot form of the policy check. *)

  val ft_ftran : ft -> scratch -> float array -> int
  (** [ft_ftran f s b] overwrites [b] (indexed by original row on input,
      basis position on output) with the solution of [B x = b] against
      the updated factors and returns the work performed (pattern
      entries touched plus the O(n) scan that gathers [b]'s nonzeros),
      for deterministic clock billing.  The vector entering the [U]
      solve (the spike of [b]'s column) is stashed so an immediately
      following {!ft_update} can consume it.  Reports the result's support (see
      {!support_len}). *)

  val ft_btran : ft -> scratch -> float array -> int
  (** [ft_btran f s c] overwrites [c] (indexed by basis position on
      input, original row on output) with the solution of [Bᵀ y = c]
      over the transposed factor adjacency; returns the work performed
      and reports the result's support. *)

  val ft_ftran_roots :
    ft -> scratch -> float array -> roots:int array -> first:int -> len:int
    -> int
  (** [ft_ftran_roots f s b ~roots ~first ~len] is {!ft_ftran} with the
      RHS pattern supplied by the caller instead of gathered by a scan
      of all [n] entries of [b]: [roots.(first .. first+len-1)] must
      list the nonzero positions of [b] exactly — ascending, each once,
      every other entry of [b] zero — which is the list the scan would
      build, so the result, the spike, the support and the returned
      work are bitwise those of {!ft_ftran}.  A CSC column's row indices
      satisfy this by {!Csc}'s contract (ascending, no stored zeros).
      The returned work still counts the [n] of the skipped scan: it is
      part of the deterministic bill, and dropping it would re-price
      every solve (a clock calibration, not a kernel change).  The dense
      fallback and the [len] threshold apply as in {!ft_ftran}. *)

  val ft_btran_roots :
    ft -> scratch -> float array -> roots:int array -> first:int -> len:int
    -> int
  (** [ft_btran_roots f s c ~roots ~first ~len] is {!ft_btran} with the
      RHS pattern supplied by the caller, under the contract of
      {!ft_ftran_roots}: bitwise the result, support and work of
      {!ft_btran} on the same [c]. *)

  val ft_ftran_dense : ft -> scratch -> float array -> int
  (** [ft_ftran_dense f s b] — {!ft_ftran} by dense-scan passes over all
      [n] positions, the path {!ft_ftran} takes above {!dense_threshold}
      RHS density: same index contract and spike stash, no support
      report ({!support_len} is [-1]); returns the work performed. *)

  val ft_btran_dense : ft -> scratch -> float array -> int
  (** [ft_btran_dense f s c] — {!ft_btran} by dense-scan passes, its
      path above {!dense_threshold}; no support report. *)

  (** {3 Result support}

      When {!ft_ftran} or {!ft_btran} takes the reach path, the positions
      its reach touched are the only ones where the result can be
      nonzero.  The solve hands them back, so a caller can walk the
      result in time proportional to its nonzeros instead of scanning
      all [n] positions. *)

  val support_len : scratch -> int
  (** Length of the support of the last {!ft_ftran}/{!ft_btran} result
      on this scratch, or [-1] when that solve ran the dense-scan path
      (or the last operation was another solve), in which case the
      caller scans all [n] positions.  A support lists every nonzero of
      the result exactly once, in ascending index order (basis positions
      after FTRAN, rows after BTRAN); it may also list positions whose
      value cancelled to zero.  Ascending order lets a caller that walks
      the support visit entries in the order of a full scan, so ties and
      floating-point sums come out the same. *)

  val support : scratch -> int array
  (** The buffer whose first {!support_len} entries are that support.
      Valid until the next solve, factorization or update on the
      scratch. *)

  val result_nnz : scratch -> int
  (** Nonzeros of the result of the last {!ft_ftran}/{!ft_btran} (any
      of their forms, reach or dense path) on this scratch, counted as
      the solve scattered them out. *)

  val ft_update : ft -> scratch -> r:int -> bool
  (** [ft_update f s ~r] swaps basis slot [r]'s factor column for the
      spike stashed by the last {!ft_ftran}.  Returns [false] when the
      updated diagonal would fall below {!Tol.pivot}: the factors are
      then flagged stale and every further operation raises until
      the next {!ft_factorize} — the caller refactorizes from the new
      basis.
      Allocates nothing once the [U] lists and the row-eta file have grown
      to their working size.
      @raise Invalid_argument when no spike is stashed or the factors
      are stale. *)

  val ft_update_work : ft -> int
  (** Work performed by the last accepted {!ft_update}, for clock
      billing.  It still counts the [n − 1 − pt] slots that moving the
      replaced column (at triangular position [pt]) to the end would
      shift in a dense order, although the order is append-only and the
      move costs O(log n). *)

  val ft_update_added : ft -> int
  (** Entries the last accepted {!ft_update} appended (spike fill plus
      eta multipliers), for fill telemetry. *)

  (** {3 Index-array helpers}

      Also used by the simplex on its own index lists. *)

  val bitmap : int -> int array
  (** [bitmap n] is an all-zero bitmap for positions [0 .. n-1] (32 per
      word), the scratch {!sort_prefix} orders them in. *)

  val sort_prefix : bits:int array -> int array -> int -> unit
  (** [sort_prefix ~bits a len] sorts [a.(0 .. len-1)], distinct
      non-negative entries, ascending, in place and without allocating.
      [bits] must be all-zero and cover every entry ({!bitmap} of a bound
      above them); it is all-zero again on return.  Up to 16 entries are
      sorted by insertion; a longer list sets one bit per entry and reads
      the bits back in order, in O(len) plus one step per bitmap word
      between its smallest and largest entry. *)

  val copy_ints : int array -> int array -> int -> unit
  (** [copy_ints src dst n] copies [src.(0 .. n-1)] into [dst] by a typed
      loop: [Array.blit] of an int array into the major heap runs the
      write barrier once per element. *)
end
