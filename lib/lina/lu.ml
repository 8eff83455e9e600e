exception Singular of int

(* --- sparse left-looking LU ------------------------------------------- *)

module Sparse = struct
  (* Sparse LU factors B[p,q] = L·U, left-looking by column: unit L
     strictly below the diagonal, U strictly above with its diagonal
     stored separately.  The column order [q] is fixed up front (ascending
     nonzero count — the cheap static half of a Markowitz ordering); the
     row order [p] is discovered during elimination by magnitude partial
     pivoting.

     There is no factorization value of its own: a refactorization
     writes its factors into the storage of the updatable factors [ft]
     below, which keep L column-compressed and row-compressed (the
     transposed structure is what turns the BTRAN gather loops into
     scatter loops that can follow a Gilbert–Peierls reach), the inverse
     permutations (which map a sparse RHS into factor space without an
     O(n) search) and U in dynamic per-column and per-row form. *)

  (* Growable entry store: the L and U entries of a refactorization in
     progress.  Starts empty and keeps its capacity across
     refactorizations. *)
  type grow = {
    mutable g_idx : int array;
    mutable g_val : float array;
    mutable g_len : int;
  }

  let grow_make () = { g_idx = [||]; g_val = [||]; g_len = 0 }

  let copy_ints (src : int array) (dst : int array) n =
    for k = 0 to n - 1 do
      dst.(k) <- src.(k)
    done

  (* Appends an entry with index [i] and returns its slot; the caller
     stores the value there (a float argument would be boxed per entry). *)
  let grow_slot g i =
    if g.g_len = Array.length g.g_idx then begin
      let cap = max 64 (2 * g.g_len) in
      let idx = Array.make cap 0 and value = Array.make cap 0.0 in
      copy_ints g.g_idx idx g.g_len;
      Array.blit g.g_val 0 value 0 g.g_len;
      g.g_idx <- idx;
      g.g_val <- value
    end;
    let k = g.g_len in
    g.g_idx.(k) <- i;
    g.g_len <- k + 1;
    k

  (* Static column order of [counts.(0 .. n-1)] into [q]: ascending
     nonzero count, ties in index order.  A stable counting sort on the
     count gives exactly the permutation of a comparison sort by
     [(count, index)], in O(n + max count); [start] holds at least
     [maxc + 2] buckets. *)
  let count_order counts n ~maxc (start : int array) (q : int array) =
    Array.fill start 0 (maxc + 2) 0;
    for j = 0 to n - 1 do
      start.(counts.(j) + 1) <- start.(counts.(j) + 1) + 1
    done;
    for c = 1 to maxc + 1 do
      start.(c) <- start.(c) + start.(c - 1)
    done;
    for j = 0 to n - 1 do
      let c = counts.(j) in
      q.(start.(c)) <- j;
      start.(c) <- start.(c) + 1
    done

  (* Lists up to this length are sorted by insertion; longer ones
     through a bitmap.  Neither allocates. *)
  let insertion_cutoff = 16

  (* Bit index of a 32-bit power of two b: the top five bits of the
     32-bit product of b and a de Bruijn constant are distinct for the 32
     possible b and index this table. *)
  let debruijn =
    [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8; 31; 27; 13;
       23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

  let bitmap n = Array.make ((n lsr 5) + 1) 0

  (* Ascending sort of [a.(0 .. len-1)], distinct non-negative entries.
     A long list sets one bit per entry in [bits] (32 positions per word,
     all-zero on entry) and reads them back word by word over the words
     it touched, lowest bit first, clearing each word as it goes: O(len)
     plus one step per word between the smallest and the largest entry. *)
  let sort_prefix ~bits (a : int array) len =
    if len <= insertion_cutoff then
      for t = 1 to len - 1 do
        let v = a.(t) in
        let s = ref (t - 1) in
        while !s >= 0 && a.(!s) > v do
          a.(!s + 1) <- a.(!s);
          decr s
        done;
        a.(!s + 1) <- v
      done
    else begin
      let lo = ref max_int and hi = ref 0 in
      for t = 0 to len - 1 do
        let i = a.(t) in
        let w = i lsr 5 in
        bits.(w) <- bits.(w) lor (1 lsl (i land 31));
        if w < !lo then lo := w;
        if w > !hi then hi := w
      done;
      let c = ref 0 in
      for w = !lo to !hi do
        let b = ref bits.(w) in
        if !b <> 0 then begin
          bits.(w) <- 0;
          while !b <> 0 do
            let low = !b land (- !b) in
            a.(!c) <-
              (w lsl 5)
              lor debruijn.(((low * 0x077CB531) land 0xFFFFFFFF) lsr 27);
            incr c;
            b := !b lxor low
          done
        end
      done
    end

  (* Scratch shared by the factorization and the Gilbert–Peierls solves:
     a value workspace that is all-zero between calls, stamp marks, an
     explicit DFS stack with resume positions, and reach buffers (one per
     triangular phase — the second phase's DFS roots are the first
     phase's reach, so they cannot share storage).  The factorization
     borrows the same buffers for its counts, marks, touched rows and
     reach.  One scratch per basis representation, of at least the
     factors' dimension; the solves allocate nothing.

     [sr2] doubles as the support report of the Forrest–Tomlin solves:
     after {!ft_ftran} or {!ft_btran} takes the reach path its first
     [sup_n] entries list the result's possibly-nonzero positions in
     ascending order ([sup_n = -1] after a dense-path solve).  [sbits]
     is the all-zero bitmap that orders them, and the factorization's
     reaches, through {!sort_prefix}.

     The factorization stages its output here too — permutations, L and
     U pointers, the diagonal and the L and U entry stores — and copies
     it into the factors only once every column has its pivot, so a
     [Singular] leaves the installed factors untouched.  The staging
     arrays are sized to the scratch's dimension by the first
     factorization through it; the entry stores grow by doubling. *)
  type scratch = {
    sw : float array;
    smark : int array;
    sstack : int array;
    sedge : int array;
    sr1 : int array;
    sr2 : int array;
    sr3 : int array;  (* eta-extension roots of the Forrest–Tomlin solves *)
    sroots : int array;
    sbits : int array;
    mutable sstamp : int;
    mutable sup_n : int;
    mutable out_nnz : int;  (* nonzeros the last FT solve scattered out *)
    mutable ep : int array;       (* factor row i is original row ep.(i) *)
    mutable eq : int array;       (* the static column order *)
    mutable epinv : int array;    (* original row -> factor row, or -1 *)
    mutable el_ptr : int array;
    mutable eu_ptr : int array;
    mutable ediag : float array;
    mutable estart : int array;   (* buckets of the static column order *)
    lgrow : grow;                 (* L entries, by original row *)
    ugrow : grow;                 (* U entries, by factor row *)
  }

  let scratch n =
    {
      sw = Array.make n 0.0;
      smark = Array.make n (-1);
      sstack = Array.make n 0;
      sedge = Array.make n 0;
      sr1 = Array.make n 0;
      sr2 = Array.make n 0;
      sr3 = Array.make n 0;
      sroots = Array.make n 0;
      sbits = bitmap n;
      sstamp = 0;
      sup_n = -1;
      out_nnz = 0;
      ep = [||];
      eq = [||];
      epinv = [||];
      el_ptr = [||];
      eu_ptr = [||];
      ediag = [||];
      estart = [||];
      lgrow = grow_make ();
      ugrow = grow_make ();
    }

  (* Sizes the staging arrays to the scratch's dimension on the first
     factorization through it. *)
  let stage s =
    let n = Array.length s.sw in
    if Array.length s.el_ptr <= n then begin
      s.ep <- Array.make n 0;
      s.eq <- Array.make n 0;
      s.epinv <- Array.make n 0;
      s.el_ptr <- Array.make (n + 1) 0;
      s.eu_ptr <- Array.make (n + 1) 0;
      s.ediag <- Array.make n 0.0
    end

  let support_len s = s.sup_n
  let support s = s.sr2
  let result_nnz s = s.out_nnz

  let touch (mark : int array) (touched : int array) nt stamp i =
    if mark.(i) <> stamp then begin
      mark.(i) <- stamp;
      touched.(nt) <- i;
      nt + 1
    end
    else nt

  let visit (cmark : int array) (reach : int array) nr stamp kf =
    if kf >= 0 && cmark.(kf) <> stamp then begin
      cmark.(kf) <- stamp;
      reach.(nr) <- kf;
      nr + 1
    end
    else nr

  (* --- Forrest–Tomlin updatable factors ------------------------------- *)

  (* A basis column swap replaces one column of U with the spike
     v = (etas ∘ L)⁻¹ a_q.  Instead of appending a product-form eta (whose
     cost every later solve pays), the spike is eliminated against U in
     place: factor column t = qinv(entering slot) logically moves to the
     end of the triangular order, its row is emptied by a single row eta
     E = I − e_t mᵀ with Ûᵀ m = (row t of U), and the spike becomes the new
     column t with diagonal d = v_t − m·v.  Solves then stay
     O(nnz(L)+nnz(U)+nnz(row etas)) where the row-eta file grows only by
     the (usually tiny) elimination multipliers, not by a full spike per
     pivot.

     U is held in dynamic form — per-column and per-row growable entry
     lists kept exactly in sync — because updates delete and insert
     individual entries; L and the permutations stay those of the last
     refactorization. *)

  type ulist = {
    mutable ul_idx : int array;
    mutable ul_val : float array;
    mutable ul_len : int;
  }

  (* Lists start empty and are allocated on their first entry; a
     refactorization keeps whatever capacity they grew to. *)
  let ul_make () = { ul_idx = [||]; ul_val = [||]; ul_len = 0 }

  (* Appends an entry with index [i] and returns its slot, where the
     caller stores the value (as [grow_slot]). *)
  let ul_slot l i =
    let cap = Array.length l.ul_idx in
    if l.ul_len = cap then begin
      let cap' = max 4 (2 * cap) in
      let idx = Array.make cap' 0 and value = Array.make cap' 0.0 in
      copy_ints l.ul_idx idx cap;
      Array.blit l.ul_val 0 value 0 cap;
      l.ul_idx <- idx;
      l.ul_val <- value
    end;
    let k = l.ul_len in
    l.ul_idx.(k) <- i;
    l.ul_len <- k + 1;
    k

  (* Empties the list, with room for at least [cnt] entries: a
     refactorization sizes a list that is too short to its factor column
     or row exactly, as the updates' doubling would overshoot. *)
  let ul_refill l cnt =
    l.ul_len <- 0;
    if Array.length l.ul_idx < cnt then begin
      l.ul_idx <- Array.make cnt 0;
      l.ul_val <- Array.make cnt 0.0
    end

  (* Swap-with-last removal of the entry at index [i]; returns the number
     of entries scanned (billed to the caller's work count). *)
  let ul_delete l i =
    let len = l.ul_len in
    let at = ref (-1) in
    let k = ref 0 in
    while !at < 0 && !k < len do
      if l.ul_idx.(!k) = i then at := !k;
      incr k
    done;
    if !at < 0 then invalid_arg "Lu.Sparse: update lost a factor entry";
    let last = len - 1 in
    l.ul_idx.(!at) <- l.ul_idx.(last);
    l.ul_val.(!at) <- l.ul_val.(last);
    l.ul_len <- last;
    !k

  (* The updatable factors own the arrays of the installed factors.  The
     per-index arrays are sized to the capacity (the dimension given to
     [ft_create]) and the entry arrays keep what they grew to, so once
     grown a refactorization allocates nothing.  [ft_n] is the logical
     dimension, at most the capacity: index-range loops run to [ft_n],
     never to an array's length.

     The row-eta file: eta k is E = I − e_t mᵀ with t = [re_rt.(k)] and
     the multipliers m at [re_ptr.(k) .. re_ptr.(k+1) - 1] of
     [re_idx]/[re_val].  FTRAN subtracts m·y from y_t, BTRAN subtracts
     y_t·m from the support.  Flat, growable storage kept across
     refactorizations, so recording an eta allocates nothing once warm. *)
  type ft = {
    mutable ft_n : int;
    (* L and the permutations of the last refactorization *)
    mutable p : int array;      (* factor row i is original row p.(i) *)
    mutable q : int array;      (* factor column j is original column q.(j) *)
    mutable pinv : int array;   (* original row r is factor row pinv.(r) *)
    mutable qinv : int array;   (* original column c is factor col qinv.(c) *)
    mutable l_ptr : int array;
    mutable l_idx : int array;  (* factor-row indices, all > column *)
    mutable l_val : float array;
    mutable l_nnz : int;
    mutable lr_ptr : int array; (* rows of L: lr row i lists columns j < i *)
    mutable lr_idx : int array;
    mutable lr_val : float array;
    (* dynamic U *)
    uc : ulist array;           (* U by factor column: rows i, pos i < pos j *)
    ur : ulist array;           (* U by factor row: columns j, pos j > pos i *)
    udiag : float array;
    (* The triangular order, append-only: [uorder.(0 .. uend-1)] lists the
       factor columns in order, with holes (-1) where an update moved a
       column to the end; [upos] maps a column to its slot and the
       Fenwick tree [ufen] (1-based, over the 2n slots) counts the live
       slots, so a column's logical position is a prefix sum. *)
    mutable uorder : int array;
    mutable upos : int array;
    mutable ufen : int array;
    mutable uend : int;
    mutable re_rt : int array;
    mutable re_ptr : int array;
    mutable re_idx : int array;
    mutable re_val : float array;
    mutable n_reta : int;
    mutable reta_nnz : int;
    spike : float array;        (* spike of the last FTRAN, by factor row *)
    spike_idx : int array;
    mutable spike_n : int;      (* -1 = no spike stashed *)
    mutable unnz : int;         (* current off-diagonal entries of U *)
    mutable nnz0 : int;         (* nnz(L)+nnz(U)+n when last refactorized *)
    mutable updates : int;      (* updates applied since then *)
    mutable unusable : bool;
        (* no factors yet, or a rejected update left U inconsistent *)
    mutable upd_work : int;     (* work of the last accepted update *)
    mutable upd_added : int;    (* entries it appended *)
  }

  let ft_dim f = f.ft_n
  let ft_capacity f = Array.length f.udiag
  let ft_nnz f = f.l_nnz + f.unnz + f.ft_n + f.reta_nnz
  let ft_updates f = f.updates
  let ft_eta_nnz f = f.reta_nnz
  let ft_update_work f = f.upd_work
  let ft_update_added f = f.upd_added

  (* Current factor size relative to the fresh factorization: the fill
     signal that drives the refactorization policy. *)
  let ft_fill_ratio f =
    if f.nnz0 = 0 then 1.0
    else float_of_int (ft_nnz f) /. float_of_int f.nnz0

  (* The ratio is recomputed rather than taken from [ft_fill_ratio],
     whose float result would be boxed on every pivot. *)
  let ft_fill_exceeds f limit =
    (if f.nnz0 = 0 then 1.0
     else float_of_int (ft_nnz f) /. float_of_int f.nnz0)
    > limit

  let ft_clear_spike f =
    for k = 0 to f.spike_n - 1 do
      f.spike.(f.spike_idx.(k)) <- 0.0
    done;
    f.spike_n <- -1

  (* The per-index factor arrays are allocated on the first
     factorization, at the full capacity: creating a representation costs
     only its U list heads and solve buffers. *)
  let ft_create n =
    {
      ft_n = n;
      p = [||];
      q = [||];
      pinv = [||];
      qinv = [||];
      l_ptr = [||];
      l_idx = [||];
      l_val = [||];
      l_nnz = 0;
      lr_ptr = [||];
      lr_idx = [||];
      lr_val = [||];
      uc = Array.init n (fun _ -> ul_make ());
      ur = Array.init n (fun _ -> ul_make ());
      udiag = Array.make n 0.0;
      uorder = [||];
      upos = [||];
      ufen = [||];
      uend = 0;
      re_rt = [||];
      re_ptr = [| 0 |];
      re_idx = [||];
      re_val = [||];
      n_reta = 0;
      reta_nnz = 0;
      spike = Array.make n 0.0;
      spike_idx = Array.make n 0;
      spike_n = -1;
      unnz = 0;
      nnz0 = 0;
      updates = 0;
      unusable = n > 0;
      upd_work = 0;
      upd_added = 0;
    }

  let ft_reset f n =
    if n < 0 || n > ft_capacity f then
      invalid_arg "Lu.Sparse.ft_reset: capacity";
    ft_clear_spike f;
    f.ft_n <- n;
    f.l_nnz <- 0;
    f.n_reta <- 0;
    f.reta_nnz <- 0;
    f.unnz <- 0;
    f.nnz0 <- 0;
    f.updates <- 0;
    f.unusable <- n > 0;
    f.upd_work <- 0;
    f.upd_added <- 0

  (* Sizes the per-index factor arrays to the capacity on the first
     factorization. *)
  let reserve f =
    let cap = ft_capacity f in
    if Array.length f.l_ptr <= cap then begin
      f.p <- Array.make cap 0;
      f.q <- Array.make cap 0;
      f.pinv <- Array.make cap 0;
      f.qinv <- Array.make cap 0;
      f.l_ptr <- Array.make (cap + 1) 0;
      f.lr_ptr <- Array.make (cap + 1) 0;
      f.uorder <- Array.make (2 * cap) 0;
      f.upos <- Array.make cap 0;
      f.ufen <- Array.make ((2 * cap) + 1) 0
    end

  (* The Fenwick tree of the triangular order when its first [ft_n]
     slots are live and the rest empty: node j counts the live slots
     among j - lowbit(j) + 1 .. j. *)
  let fen_fill f =
    let n = f.ft_n in
    for j = 1 to 2 * n do
      let lo = j - (j land (-j)) in
      f.ufen.(j) <- (if j <= n then j - lo else if lo < n then n - lo else 0)
    done

  (* Live slots of the triangular order before slot [k]. *)
  let fen_prefix f k =
    let acc = ref 0 and i = ref k in
    while !i > 0 do
      acc := !acc + f.ufen.(!i);
      i := !i - (!i land (- !i))
    done;
    !acc

  let fen_add f k d =
    let lim = 2 * f.ft_n in
    let i = ref (k + 1) in
    while !i <= lim do
      f.ufen.(!i) <- f.ufen.(!i) + d;
      i := !i + (!i land (- !i))
    done

  (* Closes the holes of a full triangular order, keeping its order. *)
  let compact_order f =
    let k = ref 0 in
    for sl = 0 to f.uend - 1 do
      let j = f.uorder.(sl) in
      if j >= 0 then begin
        f.uorder.(!k) <- j;
        f.upos.(j) <- !k;
        incr k
      end
    done;
    f.uend <- !k;
    fen_fill f

  (* Arms the updatable factors around the factors just installed: the
     identity triangular order, no row etas, no spike, no updates. *)
  let rearm f ~unnz =
    let n = f.ft_n in
    for j = 0 to n - 1 do
      f.uorder.(j) <- j;
      f.upos.(j) <- j
    done;
    f.uend <- n;
    fen_fill f;
    f.n_reta <- 0;
    f.reta_nnz <- 0;
    ft_clear_spike f;
    f.unnz <- unnz;
    f.nnz0 <- f.l_nnz + unnz + n;
    f.updates <- 0;
    f.unusable <- false

  (* Row-compressed copy of the installed L (a counting sort on the row
     index, columns visited in order, so each row lists its columns
     ascending).  [lr_ptr] doubles as the fill cursor: after the scatter
     slot [i] holds the end of row [i], and one shift restores the
     starts. *)
  let transpose_l f =
    let n = f.ft_n and nl = f.l_nnz in
    if Array.length f.lr_idx < nl then begin
      f.lr_idx <- Array.make (Array.length f.l_idx) 0;
      f.lr_val <- Array.make (Array.length f.l_idx) 0.0
    end;
    let tptr = f.lr_ptr in
    Array.fill tptr 0 (n + 1) 0;
    for e = 0 to nl - 1 do
      tptr.(f.l_idx.(e) + 1) <- tptr.(f.l_idx.(e) + 1) + 1
    done;
    for i = 0 to n - 1 do
      tptr.(i + 1) <- tptr.(i + 1) + tptr.(i)
    done;
    for j = 0 to n - 1 do
      for e = f.l_ptr.(j) to f.l_ptr.(j + 1) - 1 do
        let i = f.l_idx.(e) in
        let at = tptr.(i) in
        f.lr_idx.(at) <- j;
        f.lr_val.(at) <- f.l_val.(e);
        tptr.(i) <- at + 1
      done
    done;
    for i = n downto 1 do
      tptr.(i) <- tptr.(i - 1)
    done;
    tptr.(0) <- 0

  (* Installs the elimination staged in [s]: the permutations and L
     are copied into the factors (L's original-row indices mapped to
     factor rows), and U moves from its entry store into the dynamic
     lists — each column in elimination order, each row in ascending
     column order, the order a transpose of the column-compressed U
     lists them in. *)
  let install f s =
    let n = f.ft_n in
    copy_ints s.ep f.p n;
    copy_ints s.eq f.q n;
    copy_ints s.epinv f.pinv n;
    copy_ints s.el_ptr f.l_ptr (n + 1);
    let lg = s.lgrow in
    let nl = lg.g_len in
    if Array.length f.l_idx < nl then begin
      let cap = max nl (2 * Array.length f.l_idx) in
      f.l_idx <- Array.make cap 0;
      f.l_val <- Array.make cap 0.0
    end;
    for e = 0 to nl - 1 do
      f.l_idx.(e) <- f.pinv.(lg.g_idx.(e));
      f.l_val.(e) <- lg.g_val.(e)
    done;
    f.l_nnz <- nl;
    for jf = 0 to n - 1 do
      f.qinv.(f.q.(jf)) <- jf
    done;
    transpose_l f;
    let ug = s.ugrow and u_ptr = s.eu_ptr and cnt = s.sedge in
    Array.fill cnt 0 n 0;
    for e = 0 to ug.g_len - 1 do
      cnt.(ug.g_idx.(e)) <- cnt.(ug.g_idx.(e)) + 1
    done;
    for j = 0 to n - 1 do
      ul_refill f.uc.(j) (u_ptr.(j + 1) - u_ptr.(j));
      ul_refill f.ur.(j) cnt.(j)
    done;
    for j = 0 to n - 1 do
      let cj = f.uc.(j) in
      for e = u_ptr.(j) to u_ptr.(j + 1) - 1 do
        let i = ug.g_idx.(e) in
        let ri = f.ur.(i) in
        let at = ul_slot cj i in
        cj.ul_val.(at) <- ug.g_val.(e);
        let at = ul_slot ri j in
        ri.ul_val.(at) <- ug.g_val.(e)
      done;
      f.udiag.(j) <- s.ediag.(j)
    done;
    rearm f ~unnz:ug.g_len

  (* Left-looking elimination of the [ft_n] columns [basic.(pos)] of
     [[A | diag unit_sign]], [A] given by its CSC arrays with [ncols]
     columns, staged in [s], then installed into [f].  Column
     [j < ncols] is column [j] of [A]; column [j >= ncols] is the unit
     column [unit_sign.(j - ncols)·e_(j - ncols)]. *)
  let factorize_into f s ~ncols ~col_ptr ~row_idx ~value ~unit_sign ~basic =
    let n = f.ft_n in
    if Array.length s.sw < n then invalid_arg "Lu.Sparse.factorize: scratch";
    reserve f;
    stage s;
    let counts = s.sroots in
    let maxc = ref 0 in
    for pos = 0 to n - 1 do
      let j = basic.(pos) in
      let c = if j < ncols then col_ptr.(j + 1) - col_ptr.(j) else 1 in
      counts.(pos) <- c;
      if c > !maxc then maxc := c
    done;
    if Array.length s.estart < !maxc + 2 then
      s.estart <- Array.make (max (!maxc + 2) (n + 2)) 0;
    let q = s.eq in
    count_order counts n ~maxc:!maxc s.estart q;
    let p = s.ep in
    let pinv = s.epinv in  (* original row -> factor row *)
    Array.fill pinv 0 n (-1);
    let x = s.sw in        (* dense accumulator, original rows *)
    let mark = s.sstack in
    Array.fill mark 0 n (-1);
    let touched = s.sedge in
    (* [counts] is dead once [q] is built; it becomes the stamp of the
       step that last reached each factor column. *)
    let cmark = counts in
    Array.fill cmark 0 n (-1);
    let reach = s.sr1 in
    let lg = s.lgrow and ug = s.ugrow in
    lg.g_len <- 0;
    ug.g_len <- 0;
    let l_ptr = s.el_ptr and u_ptr = s.eu_ptr and u_diag = s.ediag in
    l_ptr.(0) <- 0;
    u_ptr.(0) <- 0;
    for jf = 0 to n - 1 do
      let ntouch = ref 0 and nreach = ref 0 in
      (* Scatter the column; each entry's row, if already pivotal, seeds
         the reach with the factor column it pivots. *)
      let j = basic.(q.(jf)) in
      if j < ncols then
        for e = col_ptr.(j) to col_ptr.(j + 1) - 1 do
          let i = row_idx.(e) in
          ntouch := touch mark touched !ntouch jf i;
          nreach := visit cmark reach !nreach jf pinv.(i);
          x.(i) <- x.(i) +. value.(e)
        done
      else begin
        let i = j - ncols in
        ntouch := touch mark touched !ntouch jf i;
        nreach := visit cmark reach !nreach jf pinv.(i);
        x.(i) <- x.(i) +. unit_sign.(i)
      end;
      (* Symbolic reach: the factor columns that can update this one are
         those whose pivot row is in the column's pattern, closed under
         L (its row indices are still original rows, so [pinv] maps an
         entry to the column it pivots).  The reach array doubles as the
         work queue. *)
      let head = ref 0 in
      while !head < !nreach do
        let kf = reach.(!head) in
        incr head;
        for e = l_ptr.(kf) to l_ptr.(kf + 1) - 1 do
          nreach := visit cmark reach !nreach jf pinv.(lg.g_idx.(e))
        done
      done;
      (* Eliminate in ascending factor order — every L edge runs from a
         lower to a higher column, so this is topological, and it is the
         order a scan over all earlier columns would use: each x.(i)
         sees its updates in the same order, bit for bit.  x.(p.(kf)) is
         final once step kf is reached, so the U entries are harvested on
         the fly. *)
      sort_prefix ~bits:s.sbits reach !nreach;
      for t = 0 to !nreach - 1 do
        let kf = reach.(t) in
        let ukj = x.(p.(kf)) in
        if ukj <> 0.0 then begin
          let at = grow_slot ug kf in
          ug.g_val.(at) <- ukj;
          for e = l_ptr.(kf) to l_ptr.(kf + 1) - 1 do
            let i = lg.g_idx.(e) in
            ntouch := touch mark touched !ntouch jf i;
            x.(i) <- x.(i) -. (lg.g_val.(e) *. ukj)
          done
        end
      done;
      u_ptr.(jf + 1) <- ug.g_len;
      (* Partial pivot: largest magnitude among still-unassigned rows. *)
      let piv = ref (-1) and piv_val = ref Tol.pivot in
      for k = 0 to !ntouch - 1 do
        let i = touched.(k) in
        if pinv.(i) < 0 then begin
          let a = Float.abs x.(i) in
          if
            a > !piv_val
            || (a = !piv_val && (!piv < 0 || i < !piv))
          then begin
            piv := i;
            piv_val := a
          end
        end
      done;
      if !piv < 0 then begin
        (* The workspace is shared with the solves: leave it zeroed.  The
           installed factors were never touched. *)
        for k = 0 to !ntouch - 1 do
          x.(touched.(k)) <- 0.0
        done;
        raise (Singular jf)
      end;
      let ipiv = !piv in
      p.(jf) <- ipiv;
      pinv.(ipiv) <- jf;
      let d = x.(ipiv) in
      u_diag.(jf) <- d;
      for k = 0 to !ntouch - 1 do
        let i = touched.(k) in
        if pinv.(i) < 0 && x.(i) <> 0.0 then begin
          (* L entries recorded by original row; remapped once every row
             has its factor position. *)
          let at = grow_slot lg i in
          lg.g_val.(at) <- x.(i) /. d
        end;
        x.(i) <- 0.0
      done;
      l_ptr.(jf + 1) <- lg.g_len
    done;
    install f s

  let ft_factorize f s (a : Csc.t) ~unit_sign basic =
    factorize_into f s ~ncols:a.Csc.cols ~col_ptr:a.Csc.col_ptr
      ~row_idx:a.Csc.row_idx ~value:a.Csc.value ~unit_sign ~basic

  (* The closure-fed entry: the columns are copied into CSC arrays once
     (entries in emission order, so duplicates sum exactly as they are
     emitted) and factorized into new factors with a new scratch. *)
  let factorize ~n ~col =
    let col_ptr = Array.make (n + 1) 0 in
    for j = 0 to n - 1 do
      col j (fun _ _ -> col_ptr.(j + 1) <- col_ptr.(j + 1) + 1)
    done;
    for j = 0 to n - 1 do
      col_ptr.(j + 1) <- col_ptr.(j + 1) + col_ptr.(j)
    done;
    let row_idx = Array.make col_ptr.(n) 0 in
    let value = Array.make col_ptr.(n) 0.0 in
    for j = 0 to n - 1 do
      let at = ref col_ptr.(j) in
      col j (fun i v ->
          row_idx.(!at) <- i;
          value.(!at) <- v;
          incr at)
    done;
    let f = ft_create n in
    factorize_into f (scratch n) ~ncols:n ~col_ptr ~row_idx ~value
      ~unit_sign:[||] ~basic:(Array.init n (fun j -> j));
    f

  (* The factors of [diag d]: identity permutations, empty L and U.  The
     pivot check precedes every write, so a [Singular] leaves the
     installed factors as they were. *)
  let ft_load_diagonal f d =
    let n = f.ft_n in
    for i = 0 to n - 1 do
      if Float.abs d.(i) < Tol.pivot then raise (Singular i)
    done;
    reserve f;
    for i = 0 to n - 1 do
      f.p.(i) <- i;
      f.q.(i) <- i;
      f.pinv.(i) <- i;
      f.qinv.(i) <- i;
      f.udiag.(i) <- d.(i);
      f.uc.(i).ul_len <- 0;
      f.ur.(i).ul_len <- 0
    done;
    Array.fill f.l_ptr 0 (n + 1) 0;
    Array.fill f.lr_ptr 0 (n + 1) 0;
    f.l_nnz <- 0;
    rearm f ~unnz:0

  (* --- reach-based sparse triangular solves --------------------------- *)

  (* RHS density above which the plain dense-scan solves win: the reach
     bookkeeping only pays off while the solution stays sparse. *)
  let dense_threshold = 0.25

  (* Depth-first reach of [root] over one triangular adjacency, appended
     to [reach] below [top] (filled from the end): after DFS-ing every
     root, [reach.(top .. n-1)] lists the solution's nonzero pattern in
     topological order — every node precedes the nodes it scatters into.
     Nodes marked with the current stamp (from earlier roots) are
     skipped, so the total cost is O(edges of the reach). *)
  let dfs_reach ptr idx s root reach top =
    let mark = s.smark and stack = s.sstack and edge = s.sedge
    and stamp = s.sstamp in
    if mark.(root) = stamp then top
    else begin
      let top = ref top in
      let depth = ref 0 in
      stack.(0) <- root;
      edge.(0) <- ptr.(root);
      mark.(root) <- stamp;
      while !depth >= 0 do
        let j = stack.(!depth) in
        let stop = ptr.(j + 1) in
        (* Marked children are skipped here, without a trip around the
           outer loop (CSparse's [cs_reach]). *)
        let e = ref edge.(!depth) in
        while !e < stop && mark.(idx.(!e)) = stamp do
          incr e
        done;
        if !e < stop then begin
          edge.(!depth) <- !e + 1;
          let i = idx.(!e) in
          mark.(i) <- stamp;
          incr depth;
          stack.(!depth) <- i;
          edge.(!depth) <- ptr.(i)
        end
        else begin
          decr depth;
          decr top;
          reach.(!top) <- j
        end
      done;
      !top
    end

  (* Gathers the nonzero positions of [b.(0 .. n-1)] into the scratch
     root buffer, ascending: the RHS pattern of a solve whose caller does
     not know it (a dense right-hand side).  Exact zeros are excluded
     from the pattern — they contribute nothing numerically, and the scan
     keeps the kernels allocation-free. *)
  let gather_roots s b n =
    let k = ref 0 in
    for i = 0 to n - 1 do
      if b.(i) <> 0.0 then begin
        s.sroots.(!k) <- i;
        incr k
      end
    done;
    !k

  (* {!dfs_reach} over a dynamic (growable-list) adjacency. *)
  let dfs_reach_ul (lists : ulist array) s root reach top =
    let mark = s.smark and stack = s.sstack and edge = s.sedge
    and stamp = s.sstamp in
    if mark.(root) = stamp then top
    else begin
      let top = ref top in
      let depth = ref 0 in
      stack.(0) <- root;
      edge.(0) <- 0;
      mark.(root) <- stamp;
      while !depth >= 0 do
        let j = stack.(!depth) in
        let lj = lists.(j) in
        let stop = lj.ul_len and idx = lj.ul_idx in
        let e = ref edge.(!depth) in
        while !e < stop && mark.(idx.(!e)) = stamp do
          incr e
        done;
        if !e < stop then begin
          edge.(!depth) <- !e + 1;
          let i = idx.(!e) in
          mark.(i) <- stamp;
          incr depth;
          stack.(!depth) <- i;
          edge.(!depth) <- 0
        end
        else begin
          decr depth;
          decr top;
          reach.(!top) <- j
        end
      done;
      !top
    end

  let ft_check_fresh f name =
    if f.unusable then
      invalid_arg
        (name ^ ": no usable factors (never factorized, or stale after a \
                 rejected update)")

  (* Orders the support of a reach solve's result: on entry
     [sr2.(0 .. k-1)] lists the result positions the reach touched, in
     reach order.  All of them are kept, so positions whose value
     cancelled to zero stay listed. *)
  let finish_support s k =
    sort_prefix ~bits:s.sbits s.sr2 k;
    s.sup_n <- k

  (* Dense-scan FTRAN, used when the RHS support is above
     {!dense_threshold}: permute, unit-L pass, row etas in creation
     order, spike stash, U pass in triangular order. *)
  let ft_ftran_dense f s b =
    ft_check_fresh f "Lu.Sparse.ft_ftran_dense";
    s.sup_n <- -1;
    let n = f.ft_n in
    let w = s.sw in
    for i = 0 to n - 1 do
      w.(i) <- b.(f.p.(i))
    done;
    for jf = 0 to n - 1 do
      let x = w.(jf) in
      if x <> 0.0 then
        for e = f.l_ptr.(jf) to f.l_ptr.(jf + 1) - 1 do
          let i = f.l_idx.(e) in
          w.(i) <- w.(i) -. (f.l_val.(e) *. x)
        done
    done;
    for k = 0 to f.n_reta - 1 do
      let acc = ref 0.0 in
      for t = f.re_ptr.(k) to f.re_ptr.(k + 1) - 1 do
        acc := !acc +. (f.re_val.(t) *. w.(f.re_idx.(t)))
      done;
      let rt = f.re_rt.(k) in
      w.(rt) <- w.(rt) -. !acc
    done;
    ft_clear_spike f;
    let m = ref 0 in
    for i = 0 to n - 1 do
      if w.(i) <> 0.0 then begin
        f.spike.(i) <- w.(i);
        f.spike_idx.(!m) <- i;
        incr m
      end
    done;
    f.spike_n <- !m;
    for sl = f.uend - 1 downto 0 do
      let j = f.uorder.(sl) in
      if j >= 0 then begin
        let x = w.(j) /. f.udiag.(j) in
        w.(j) <- x;
        if x <> 0.0 then begin
          let cj = f.uc.(j) in
          for e = 0 to cj.ul_len - 1 do
            let i = cj.ul_idx.(e) in
            w.(i) <- w.(i) -. (cj.ul_val.(e) *. x)
          done
        end
      end
    done;
    let nz = ref 0 in
    for jf = 0 to n - 1 do
      let x = w.(jf) in
      if x <> 0.0 then incr nz;
      b.(f.q.(jf)) <- x;
      w.(jf) <- 0.0
    done;
    s.out_nnz <- !nz;
    n + ft_nnz f

  (* B x = b on the updated factors with work proportional to the
     solution's nonzero pattern: L pass over the reach of the (permuted)
     RHS support, the row-eta file, then U pass over the reach of the
     L-solution's pattern; eta targets entering the pattern become extra
     U-pass roots.  [b] is indexed by original row on input and by basis
     position (the original column slot) on output; its nonzeros are
     exactly [roots.(first .. first+len-1)], ascending, which seed the
     reach in that order (so the result is bitwise the one a scan of
     [b] would give).  Falls back to {!ft_ftran_dense} when the RHS
     support is above {!dense_threshold}.  The vector entering the U
     solve (the spike) is stashed so a following {!ft_update} can
     consume it, and the result's support is left in the scratch.
     Returns the work performed (touched pattern entries plus the n of
     the support scan, billed whether or not the scan ran), which the
     caller bills to the deterministic clock. *)
  let ft_ftran_roots f s b ~roots ~first ~len:nroots =
    let n = f.ft_n in
    if float_of_int nroots > dense_threshold *. float_of_int n then
      ft_ftran_dense f s b
    else begin
      ft_check_fresh f "Lu.Sparse.ft_ftran";
      let work = ref n in
      let w = s.sw in
      s.sstamp <- s.sstamp + 1;
      let ltop = ref n in
      for k = first to first + nroots - 1 do
        ltop :=
          dfs_reach f.l_ptr f.l_idx s f.pinv.(roots.(k)) s.sr1 !ltop
      done;
      for k = first to first + nroots - 1 do
        let r = roots.(k) in
        w.(f.pinv.(r)) <- b.(r);
        b.(r) <- 0.0
      done;
      for t = !ltop to n - 1 do
        let jf = s.sr1.(t) in
        let x = w.(jf) in
        work := !work + 1 + (f.l_ptr.(jf + 1) - f.l_ptr.(jf));
        if x <> 0.0 then
          for e = f.l_ptr.(jf) to f.l_ptr.(jf + 1) - 1 do
            w.(f.l_idx.(e)) <- w.(f.l_idx.(e)) -. (f.l_val.(e) *. x)
          done
      done;
      let nx = ref 0 in
      for k = 0 to f.n_reta - 1 do
        let lo = f.re_ptr.(k) and hi = f.re_ptr.(k + 1) in
        work := !work + 1 + (hi - lo);
        let acc = ref 0.0 in
        for t = lo to hi - 1 do
          acc := !acc +. (f.re_val.(t) *. w.(f.re_idx.(t)))
        done;
        if !acc <> 0.0 then begin
          let rt = f.re_rt.(k) in
          if s.smark.(rt) <> s.sstamp then begin
            s.smark.(rt) <- s.sstamp;
            s.sr3.(!nx) <- rt;
            incr nx
          end;
          w.(rt) <- w.(rt) -. !acc
        end
      done;
      ft_clear_spike f;
      let m = ref 0 in
      for t = !ltop to n - 1 do
        let i = s.sr1.(t) in
        if w.(i) <> 0.0 then begin
          f.spike.(i) <- w.(i);
          f.spike_idx.(!m) <- i;
          incr m
        end
      done;
      for k = 0 to !nx - 1 do
        let i = s.sr3.(k) in
        if w.(i) <> 0.0 then begin
          f.spike.(i) <- w.(i);
          f.spike_idx.(!m) <- i;
          incr m
        end
      done;
      f.spike_n <- !m;
      s.sstamp <- s.sstamp + 1;
      let utop = ref n in
      for t = !ltop to n - 1 do
        utop := dfs_reach_ul f.uc s s.sr1.(t) s.sr2 !utop
      done;
      for k = 0 to !nx - 1 do
        utop := dfs_reach_ul f.uc s s.sr3.(k) s.sr2 !utop
      done;
      for t = !utop to n - 1 do
        let j = s.sr2.(t) in
        let x = w.(j) /. f.udiag.(j) in
        w.(j) <- x;
        let cj = f.uc.(j) in
        work := !work + 1 + cj.ul_len;
        if x <> 0.0 then
          for e = 0 to cj.ul_len - 1 do
            w.(cj.ul_idx.(e)) <- w.(cj.ul_idx.(e)) -. (cj.ul_val.(e) *. x)
          done
      done;
      (* Scatter out; the result positions are compacted to the front of
         [sr2] as they are read (position t − utop never overtakes t). *)
      let top = !utop and nz = ref 0 in
      for t = top to n - 1 do
        let j = s.sr2.(t) in
        let pos = f.q.(j) in
        let x = w.(j) in
        if x <> 0.0 then incr nz;
        b.(pos) <- x;
        w.(j) <- 0.0;
        s.sr2.(t - top) <- pos
      done;
      s.out_nnz <- !nz;
      finish_support s (n - top);
      !work
    end

  let ft_ftran f s b =
    ft_ftran_roots f s b ~roots:s.sroots ~first:0 ~len:(gather_roots s b f.ft_n)

  (* Dense-scan BTRAN, used above {!dense_threshold}: Uᵀ pass in
     triangular order, row etas transposed in reverse creation order,
     Lᵀ pass, permute out. *)
  let ft_btran_dense f s c =
    ft_check_fresh f "Lu.Sparse.ft_btran_dense";
    s.sup_n <- -1;
    let n = f.ft_n in
    let w = s.sw in
    for jf = 0 to n - 1 do
      w.(jf) <- c.(f.q.(jf))
    done;
    for sl = 0 to f.uend - 1 do
      let j = f.uorder.(sl) in
      if j >= 0 then begin
        let acc = ref w.(j) in
        let cj = f.uc.(j) in
        for e = 0 to cj.ul_len - 1 do
          acc := !acc -. (cj.ul_val.(e) *. w.(cj.ul_idx.(e)))
        done;
        w.(j) <- !acc /. f.udiag.(j)
      end
    done;
    for k = f.n_reta - 1 downto 0 do
      let yt = w.(f.re_rt.(k)) in
      if yt <> 0.0 then
        for t = f.re_ptr.(k) to f.re_ptr.(k + 1) - 1 do
          let i = f.re_idx.(t) in
          w.(i) <- w.(i) -. (f.re_val.(t) *. yt)
        done
    done;
    for jf = n - 1 downto 0 do
      let acc = ref w.(jf) in
      for e = f.l_ptr.(jf) to f.l_ptr.(jf + 1) - 1 do
        acc := !acc -. (f.l_val.(e) *. w.(f.l_idx.(e)))
      done;
      w.(jf) <- !acc
    done;
    let nz = ref 0 in
    for jf = 0 to n - 1 do
      let x = w.(jf) in
      if x <> 0.0 then incr nz;
      c.(f.p.(jf)) <- x;
      w.(jf) <- 0.0
    done;
    s.out_nnz <- !nz;
    n + ft_nnz f

  (* Bᵀ y = c on the updated factors ([c] indexed by basis position,
     the result by original row): Uᵀ pass over the dynamic row
     adjacency, row etas transposed in reverse creation order (targets
     they wake become extra Lᵀ roots), then the static Lᵀ pass.  The
     RHS pattern comes from [roots] as in {!ft_ftran_roots}.  Leaves
     the result's support in the scratch; returns the work performed. *)
  let ft_btran_roots f s c ~roots ~first ~len:nroots =
    let n = f.ft_n in
    if float_of_int nroots > dense_threshold *. float_of_int n then
      ft_btran_dense f s c
    else begin
      ft_check_fresh f "Lu.Sparse.ft_btran";
      let work = ref n in
      let w = s.sw in
      s.sstamp <- s.sstamp + 1;
      let utop = ref n in
      for k = first to first + nroots - 1 do
        utop := dfs_reach_ul f.ur s f.qinv.(roots.(k)) s.sr1 !utop
      done;
      for k = first to first + nroots - 1 do
        let sl = roots.(k) in
        w.(f.qinv.(sl)) <- c.(sl);
        c.(sl) <- 0.0
      done;
      for t = !utop to n - 1 do
        let j = s.sr1.(t) in
        let x = w.(j) /. f.udiag.(j) in
        w.(j) <- x;
        let rj = f.ur.(j) in
        work := !work + 1 + rj.ul_len;
        if x <> 0.0 then
          for e = 0 to rj.ul_len - 1 do
            w.(rj.ul_idx.(e)) <- w.(rj.ul_idx.(e)) -. (rj.ul_val.(e) *. x)
          done
      done;
      let nx = ref 0 in
      for k = f.n_reta - 1 downto 0 do
        let yt = w.(f.re_rt.(k)) in
        work := !work + 1;
        if yt <> 0.0 then begin
          let lo = f.re_ptr.(k) and hi = f.re_ptr.(k + 1) in
          work := !work + (hi - lo);
          for t = lo to hi - 1 do
            let i = f.re_idx.(t) in
            if s.smark.(i) <> s.sstamp then begin
              s.smark.(i) <- s.sstamp;
              s.sr3.(!nx) <- i;
              incr nx
            end;
            w.(i) <- w.(i) -. (f.re_val.(t) *. yt)
          done
        end
      done;
      s.sstamp <- s.sstamp + 1;
      let ltop = ref n in
      for t = !utop to n - 1 do
        ltop := dfs_reach f.lr_ptr f.lr_idx s s.sr1.(t) s.sr2 !ltop
      done;
      for k = 0 to !nx - 1 do
        ltop := dfs_reach f.lr_ptr f.lr_idx s s.sr3.(k) s.sr2 !ltop
      done;
      for t = !ltop to n - 1 do
        let i = s.sr2.(t) in
        let x = w.(i) in
        work := !work + 1 + (f.lr_ptr.(i + 1) - f.lr_ptr.(i));
        if x <> 0.0 then
          for e = f.lr_ptr.(i) to f.lr_ptr.(i + 1) - 1 do
            w.(f.lr_idx.(e)) <- w.(f.lr_idx.(e)) -. (f.lr_val.(e) *. x)
          done
      done;
      let top = !ltop and nz = ref 0 in
      for t = top to n - 1 do
        let i = s.sr2.(t) in
        let row = f.p.(i) in
        let x = w.(i) in
        if x <> 0.0 then incr nz;
        c.(row) <- x;
        w.(i) <- 0.0;
        s.sr2.(t - top) <- row
      done;
      s.out_nnz <- !nz;
      finish_support s (n - top);
      !work
    end

  let ft_btran f s c =
    ft_btran_roots f s c ~roots:s.sroots ~first:0 ~len:(gather_roots s c f.ft_n)

  (* Appends one row eta (target [t], multipliers [w.(k)] over the
     nonzero entries of [sr1.(mtop .. n-1)]) to the flat file. *)
  let push_reta f s ~t ~mtop ~msup =
    let n = f.ft_n in
    let k = f.n_reta in
    if k = Array.length f.re_rt then begin
      let cap = max 8 (2 * k) in
      let rt = Array.make cap 0 and ptr = Array.make (cap + 1) 0 in
      copy_ints f.re_rt rt k;
      copy_ints f.re_ptr ptr (k + 1);
      f.re_rt <- rt;
      f.re_ptr <- ptr
    end;
    let lo = f.re_ptr.(k) in
    if lo + msup > Array.length f.re_idx then begin
      let cap = max 64 (2 * (lo + msup)) in
      let idx = Array.make cap 0 and value = Array.make cap 0.0 in
      copy_ints f.re_idx idx lo;
      Array.blit f.re_val 0 value 0 lo;
      f.re_idx <- idx;
      f.re_val <- value
    end;
    let at = ref lo in
    for tt = mtop to n - 1 do
      let i = s.sr1.(tt) in
      if s.sw.(i) <> 0.0 then begin
        f.re_idx.(!at) <- i;
        f.re_val.(!at) <- s.sw.(i);
        incr at
      end
    done;
    f.re_rt.(k) <- t;
    f.re_ptr.(k + 1) <- !at;
    f.n_reta <- k + 1;
    f.reta_nnz <- f.reta_nnz + msup

  (* Swap basis slot [r]'s factor column for the spike stashed by the
     last {!ft_ftran}.  Returns [false] when the new diagonal would fall
     below the pivot tolerance — the factors are then flagged stale and
     the caller must refactorize (the basis change itself is fine; only
     this update form cannot represent it stably).  An accepted update
     leaves its work and fill in [upd_work]/[upd_added]. *)
  let ft_update f s ~r =
    ft_check_fresh f "Lu.Sparse.ft_update";
    if f.spike_n < 0 then invalid_arg "Lu.Sparse.ft_update: no spike stashed";
    let n = f.ft_n in
    let t = f.qinv.(r) in
    let w = s.sw in
    let work = ref 1 in
    (* The old column t leaves U; its row entries go with it so the
       elimination solve below runs on U without row/column t. *)
    let ct = f.uc.(t) in
    for e = 0 to ct.ul_len - 1 do
      work := !work + ul_delete f.ur.(ct.ul_idx.(e)) t
    done;
    f.unnz <- f.unnz - ct.ul_len;
    ct.ul_len <- 0;
    (* Row-t elimination multipliers: Ûᵀ m = (row t of U), solved over
       its reach of the dynamic row adjacency. *)
    let rt = f.ur.(t) in
    let mtop = ref n in
    if rt.ul_len > 0 then begin
      s.sstamp <- s.sstamp + 1;
      for e = 0 to rt.ul_len - 1 do
        mtop := dfs_reach_ul f.ur s rt.ul_idx.(e) s.sr1 !mtop
      done;
      for e = 0 to rt.ul_len - 1 do
        w.(rt.ul_idx.(e)) <- rt.ul_val.(e)
      done;
      for tt = !mtop to n - 1 do
        let k = s.sr1.(tt) in
        let x = w.(k) /. f.udiag.(k) in
        w.(k) <- x;
        let rk = f.ur.(k) in
        work := !work + 1 + rk.ul_len;
        if x <> 0.0 then
          for e = 0 to rk.ul_len - 1 do
            w.(rk.ul_idx.(e)) <- w.(rk.ul_idx.(e)) -. (rk.ul_val.(e) *. x)
          done
      done
    end;
    let d = ref f.spike.(t) in
    for tt = !mtop to n - 1 do
      let k = s.sr1.(tt) in
      d := !d -. (w.(k) *. f.spike.(k))
    done;
    if Float.abs !d < Tol.pivot then begin
      for tt = !mtop to n - 1 do
        w.(s.sr1.(tt)) <- 0.0
      done;
      ft_clear_spike f;
      f.unusable <- true;
      false
    end
    else begin
      (* Row t collapses to the new diagonal. *)
      for e = 0 to rt.ul_len - 1 do
        work := !work + ul_delete f.uc.(rt.ul_idx.(e)) t
      done;
      f.unnz <- f.unnz - rt.ul_len;
      rt.ul_len <- 0;
      (* The spike becomes the new column t. *)
      let added = ref 0 in
      for k = 0 to f.spike_n - 1 do
        let i = f.spike_idx.(k) in
        if i <> t then begin
          let v = f.spike.(i) in
          let ri = f.ur.(i) in
          let at = ul_slot ct i in
          ct.ul_val.(at) <- v;
          let at = ul_slot ri t in
          ri.ul_val.(at) <- v;
          incr added
        end
      done;
      f.unnz <- f.unnz + !added;
      f.udiag.(t) <- !d;
      work := !work + !added;
      (* Record the row eta that emptied row t. *)
      let msup = ref 0 in
      for tt = !mtop to n - 1 do
        if w.(s.sr1.(tt)) <> 0.0 then incr msup
      done;
      if !msup > 0 then begin
        push_reta f s ~t ~mtop:!mtop ~msup:!msup;
        work := !work + !msup
      end;
      for tt = !mtop to n - 1 do
        w.(s.sr1.(tt)) <- 0.0
      done;
      (* Column t moves to the end of the triangular order: its slot
         becomes a hole and t is appended (the order is compacted first
         when its 2n slots are used up).  The bill is still the shift of
         a dense order, n − 1 − pt for t's logical position pt. *)
      if f.uend = 2 * n then compact_order f;
      let sl = f.upos.(t) in
      let pt = fen_prefix f sl in
      f.uorder.(sl) <- -1;
      fen_add f sl (-1);
      f.uorder.(f.uend) <- t;
      f.upos.(t) <- f.uend;
      fen_add f f.uend 1;
      f.uend <- f.uend + 1;
      work := !work + (n - 1 - pt);
      f.updates <- f.updates + 1;
      ft_clear_spike f;
      f.upd_work <- !work;
      f.upd_added <- !added + !msup;
      true
    end
end
