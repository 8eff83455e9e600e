module Budget = Runtime.Budget
module Rstats = Runtime.Stats
module Span = Runtime.Span

type status =
  | Optimal
  | Infeasible
  | Unbounded
  | Iter_limit
  | Time_limit
  | Numerical_failure

let status_to_string = function
  | Optimal -> "optimal"
  | Infeasible -> "infeasible"
  | Unbounded -> "unbounded"
  | Iter_limit -> "iteration limit"
  | Time_limit -> "time limit"
  | Numerical_failure -> "numerical failure"

type vstat = Basic | At_lower | At_upper | Free_nb

type basis = { basic : int array; stat : vstat array }

type params = {
  time_limit : float;
  refactor_every : int;
  fill_limit : float;
  partial_pricing : bool;
}

let default_params =
  {
    time_limit = infinity;
    refactor_every = 100;
    fill_limit = 3.0;
    partial_pricing = true;
  }

(* Pivot cap per solve, and the reduced-cost and bound-violation
   tolerances. *)
let max_iters = 200_000
let dual_feas_tol = 1e-7
let primal_feas_tol = Lina.Tol.feas

type result = {
  status : status;
  x : float array;
  objective : float;
  internal_objective : float;
  duals : float array;
  reduced_costs : float array Lazy.t;
  iterations : int;
  final_basis : basis option;
}

(* Work-clock ticks billed per simplex work category during one solve.
   The accumulators mirror the [Budget.tick] calls exactly, so at solve
   end they partition the ticks the solve billed; the profiler turns them
   into factorize/ftran/btran/pricing leaf spans under the "lp" span
   (one leaf per category per solve — per-call spans would add millions
   of spans to a branch-and-bound run).  Ticks only: basis-update and
   refactorization counts have one home, the solve's [Runtime.Stats]. *)
type prof_ticks = {
  mutable pf_factor : int;
  mutable pf_ftran : int;
  mutable pf_btran : int;
  mutable pf_pricing : int;
}

(* Internal solver state.  Columns 0 .. n_total-1 are the structural and
   logical columns of the standard form; columns n_total .. n_total+m-1 are
   phase-1 artificials (one per row, sign [art_sign.(i)], unused ones kept
   fixed at zero).

   A state is recycled across LPs (see [fresh_state]), so its buffers may
   be longer than the LP it holds: row-space buffers have at least [m]
   entries, column-space ones at least [n_total + m], [real_cost] at
   least [n_total].  Every loop runs to the logical dimensions, never to
   a buffer's length. *)
type state = {
  sf : Std_form.t;
  m : int;
  n_total : int;
  lb : float array;  (* length n_total + m *)
  ub : float array;
  cost : float array;  (* current phase objective; written by [install_costs] *)
  real_cost : float array;
  csup : int array;  (* the columns of nonzero [cost], in [csup.(0 .. csup_n-1)] *)
  mutable csup_n : int;
  xval : float array;
  vstat : vstat array;
  basis : int array;
  art_sign : float array;
  rep : Basis.t;  (* basis representation: FT-updated LU *)
  mutable pivots_since_refactor : int;
  mutable iterations : int;
  mutable bland : bool;
  mutable degenerate_run : int;
  params : params;
  budget : Budget.t;  (* shared solve budget: deadline + iteration cap *)
  stats : Rstats.t;
  prof : Span.recorder option;
  ptk : prof_ticks;
  (* scratch buffers *)
  w : float array;  (* FTRAN result *)
  y : float array;  (* duals *)
  rho : float array;  (* inverse-row scratch (dual pivot row, expulsion) *)
  (* Where [w] and [rho] can be nonzero: the support their last solve
     reported ([-1]: everywhere), which the next solve zeroes instead of
     the whole buffer. *)
  wsup : int array;
  mutable wsup_n : int;
  rhosup : int array;
  mutable rhosup_n : int;
  rowbuf : float array;  (* row-space scratch (RHS recompute, residual) *)
  fout : float array;
      (* float results of the per-column and per-pivot helpers — slot 0 a
         column dot or reduced cost, slot 1 the ratio test's step — so
         that no float is boxed per priced column or per pivot *)
  mutable enter_dir : int;  (* direction of [price]'s column: 1 or -1 *)
  mutable leave_hit : vstat;  (* bound the ratio test's leaving row hits *)
  (* partial pricing: surviving entering candidates from the last sweep *)
  cand : int array;
  cand_score : float array;
  mutable cand_n : int;
  cand_bits : int array;  (* all-zero bitmap over the columns: orders [cand] *)
  top_j : int array;  (* restock heap: the [max_cand] strongest columns *)
  top_s : float array;
  dualw : dual_ws;  (* dual pricing workspace, built lazily *)
  (* devex reference-framework weights: [refw] per column (primal
     pricing), [drefw] per basis position (dual row selection).  Reset to
     the unit framework at every solve start. *)
  refw : float array;
  drefw : float array;
  (* The dual simplex's primal-infeasible basis rows, in no particular
     order: [inf_rows.(0 .. inf_n-1)], with [inf_pos.(i)] row i's place
     in that list or -1. *)
  inf_rows : int array;
  inf_pos : int array;
  mutable inf_n : int;
}

(* Row-scatter workspace of the dual simplex's pivot-row computation:
   [d_ptr]/[d_col]/[d_val] hold Aᵀ (row i's entries at
   [d_ptr.(i) .. d_ptr.(i+1)-1]), so the alphas touch only the columns
   that actually meet the (sparse) inverse row instead of dotting every
   column.  Aᵀ is rebuilt into these buffers on first need after the
   columns change or the state is recycled ([d_ready] false); the
   buffers only ever grow. *)
and dual_ws = {
  mutable d_ready : bool;
  mutable d_ptr : int array;
  mutable d_col : int array;
  mutable d_val : float array;
  mutable d_alpha : float array;  (* at least n_total *)
  mutable d_mark : int array;
  mutable d_touch : int array;
  mutable d_stamp : int;
}

exception Solver_stop of status

(* When the caller does not thread a budget, the per-call [params] time
   limit still applies through a private budget on the shared clock. *)
let budget_of_params ?budget (params : params) =
  match budget with
  | Some b -> b
  | None -> Budget.create ~time_limit:params.time_limit ()

let fresh_ptk () =
  {
    pf_factor = 0;
    pf_ftran = 0;
    pf_btran = 0;
    pf_pricing = 0;
  }

let reset_ptk p =
  p.pf_factor <- 0;
  p.pf_ftran <- 0;
  p.pf_btran <- 0;
  p.pf_pricing <- 0

(* Category-tagged clock charges: a [Budget.charge] (the allocation-free
   [Budget.tick ~n]) plus the per-category accumulator the profiler reads
   at solve end. *)
let tick_factor st n =
  Budget.charge st.budget n;
  st.ptk.pf_factor <- st.ptk.pf_factor + n

let tick_ftran st n =
  Budget.charge st.budget n;
  st.ptk.pf_ftran <- st.ptk.pf_ftran + n

let tick_btran st n =
  Budget.charge st.budget n;
  st.ptk.pf_btran <- st.ptk.pf_btran + n

let tick_pricing st n =
  Budget.charge st.budget n;
  st.ptk.pf_pricing <- st.ptk.pf_pricing + n

(* Turn the accumulated category ticks into leaf spans tiling the tail of
   the enclosing "lp" span.  The interval positions are synthetic (the
   categories interleave in reality); the tick totals are exact, which is
   what the phase tree and the tick-sum invariant consume. *)
let emit_prof_leaves st =
  match st.prof with
  | None -> ()
  | Some _ ->
    let p = st.ptk in
    let tot = p.pf_factor + p.pf_ftran + p.pf_btran + p.pf_pricing in
    let cur = ref (Budget.ticks st.budget - tot) in
    let leaf name n =
      if n > 0 then begin
        Span.leaf st.prof ~name ~t0:!cur ~t1:(!cur + n);
        cur := !cur + n
      end
    in
    leaf "factorize" p.pf_factor;
    leaf "ftran" p.pf_ftran;
    leaf "btran" p.pf_btran;
    leaf "pricing" p.pf_pricing

(* [Float.max c x] for a constant [c] that is +0 or positive, without the
   Stdlib call (not inlined across modules, and its sign checks reach C):
   a NaN [x] stays NaN, and a −0 [x] gives [c], as [Float.max] does. *)
let[@inline] at_least (c : float) (x : float) = if x > c || x <> x then x else c

(* --- column access -------------------------------------------------- *)

(* Column j is column j of the standard form's A for j < n_total, and the
   artificial art_sign.(i)·e_i, i = j − n_total, beyond.  The loops below
   read A's CSC arrays directly: a per-column callback would allocate a
   closure and box every coefficient. *)

(* fout.(0) <- a_j · v. *)
let dot_col st j v =
  if j < st.n_total then begin
    let a = st.sf.Std_form.a in
    let ptr = a.Lina.Csc.col_ptr
    and ri = a.Lina.Csc.row_idx
    and va = a.Lina.Csc.value in
    let acc = ref 0.0 in
    for e = ptr.(j) to ptr.(j + 1) - 1 do
      acc := !acc +. (va.(e) *. v.(ri.(e)))
    done;
    st.fout.(0) <- !acc
  end
  else st.fout.(0) <- st.art_sign.(j - st.n_total) *. v.(j - st.n_total)

(* Zeroes [v], which the solve that last wrote it left nonzero only over
   [sup.(0 .. n-1)] (everywhere when [n = -1]): the zeroed buffer that
   {!Basis.ftran_col} and {!Basis.unit_row} require. *)
let clear_over st v sup n =
  if n < 0 then Array.fill v 0 st.m 0.0
  else
    for t = 0 to n - 1 do
      v.(sup.(t)) <- 0.0
    done

(* Copies the support the last solve reported into [sup]; returns its
   length, [-1] after a dense-path solve. *)
let keep_support st sup =
  let ns = Basis.support_len st.rep in
  if ns > 0 then Lina.Lu.Sparse.copy_ints (Basis.support st.rep) sup ns;
  ns

(* w <- B^-1 A_j.  Bills one solve of the current representation to the
   budget clock and the result's nonzero count to the stats.  [wsup_n]
   reads -1 while the solve runs, so one that raises leaves [w] to a
   full clear. *)
let ftran st j =
  clear_over st st.w st.wsup st.wsup_n;
  st.wsup_n <- -1;
  let work =
    Basis.ftran_col st.rep st.sf.Std_form.a ~unit_sign:st.art_sign j st.w
  in
  st.wsup_n <- keep_support st st.wsup;
  st.stats.Rstats.ftran_nnz <-
    st.stats.Rstats.ftran_nnz + Basis.result_nnz st.rep;
  tick_ftran st work

(* rho <- row r of B^-1, on the support discipline of {!ftran}; returns
   the work for the caller to bill to its category. *)
let unit_row st r =
  clear_over st st.rho st.rhosup st.rhosup_n;
  st.rhosup_n <- -1;
  let work = Basis.unit_row st.rep r st.rho in
  st.rhosup_n <- keep_support st st.rhosup;
  work

(* --- (re)factorization ---------------------------------------------- *)

(* rhs_i = - sum over nonbasic columns of a_ij * x_j.  Fills and returns
   the state's row-space scratch — hot on the session re-solve path, so
   no per-call allocation. *)
let nonbasic_rhs st =
  let rhs = st.rowbuf in
  Array.fill rhs 0 st.m 0.0;
  let a = st.sf.Std_form.a in
  let ptr = a.Lina.Csc.col_ptr and ri = a.Lina.Csc.row_idx
  and va = a.Lina.Csc.value in
  for j = 0 to st.n_total + st.m - 1 do
    if st.vstat.(j) <> Basic && st.xval.(j) <> 0.0 then begin
      let xj = st.xval.(j) in
      if j < st.n_total then
        for e = ptr.(j) to ptr.(j + 1) - 1 do
          let i = ri.(e) in
          rhs.(i) <- rhs.(i) -. (va.(e) *. xj)
        done
      else begin
        let i = j - st.n_total in
        rhs.(i) <- rhs.(i) -. (st.art_sign.(i) *. xj)
      end
    end
  done;
  rhs

(* Recomputes basic values through the current representation (factors
   plus absorbed updates): cheap drift control between full
   refactorizations. *)
let recompute_basics st =
  let rhs = nonbasic_rhs st in
  tick_ftran st (Basis.ftran_in_place st.rep rhs);
  for pos = 0 to st.m - 1 do
    st.xval.(st.basis.(pos)) <- rhs.(pos)
  done

(* Max-norm of A·x over all columns — exact feasibility residual of the
   equality system, O(nnz). *)
let equation_residual st =
  let r = st.rowbuf in
  Array.fill r 0 st.m 0.0;
  let a = st.sf.Std_form.a in
  let ptr = a.Lina.Csc.col_ptr and ri = a.Lina.Csc.row_idx
  and va = a.Lina.Csc.value in
  for j = 0 to st.n_total + st.m - 1 do
    if st.xval.(j) <> 0.0 then begin
      let xj = st.xval.(j) in
      if j < st.n_total then
        for e = ptr.(j) to ptr.(j + 1) - 1 do
          let i = ri.(e) in
          r.(i) <- r.(i) +. (va.(e) *. xj)
        done
      else begin
        let i = j - st.n_total in
        r.(i) <- r.(i) +. (st.art_sign.(i) *. xj)
      end
    end
  done;
  let norm = ref 0.0 in
  for i = 0 to st.m - 1 do
    let a = Float.abs r.(i) in
    if a > !norm then norm := a
  done;
  !norm

(* Refactorizes the basis from scratch (discarding absorbed updates) and
   recomputes basic values from the nonbasic ones. *)
let full_refactorize st =
  st.stats.Rstats.refactorizations <- st.stats.Rstats.refactorizations + 1;
  Basis.factorize st.rep st.sf.Std_form.a ~unit_sign:st.art_sign st.basis;
  st.pivots_since_refactor <- 0;
  tick_factor st (Basis.solve_cost st.rep);
  let rhs = nonbasic_rhs st in
  tick_ftran st (Basis.ftran_in_place st.rep rhs);
  for pos = 0 to st.m - 1 do
    st.xval.(st.basis.(pos)) <- rhs.(pos)
  done

(* Periodic hygiene: recompute basics through the current inverse and only
   pay for a full LU refactorization when the equation residual shows real
   numerical drift. *)
let refactorize st =
  recompute_basics st;
  st.pivots_since_refactor <- 0;
  (* Relative residual: values scale with capacities and the time horizon,
     so an absolute 1e-7 would trigger O(m³) refactorizations constantly. *)
  let scale = ref 1.0 in
  for j = 0 to st.n_total - 1 do
    let a = Float.abs st.xval.(j) in
    if a > !scale then scale := a
  done;
  if equation_residual st > 1e-7 *. !scale then begin
    st.stats.Rstats.refactor_drift <- st.stats.Rstats.refactor_drift + 1;
    full_refactorize st
  end

(* Post-pivot refactorization policy, driven by measured representation
   growth rather than a fixed pivot count: the Forrest–Tomlin factors are
   refactorized when their fill ratio passes [fill_limit] (solve cost only
   grows with actual spike/multiplier fill, so updates keep going while
   the factors stay lean), and every [refactor_every] pivots the
   residual-drift check runs. *)
let after_basis_update st =
  st.pivots_since_refactor <- st.pivots_since_refactor + 1;
  try
    if Basis.fill_exceeds st.rep st.params.fill_limit then begin
      st.stats.Rstats.refactor_fill <- st.stats.Rstats.refactor_fill + 1;
      full_refactorize st
    end
    else if st.pivots_since_refactor >= st.params.refactor_every then
      refactorize st
  with Lina.Lu.Singular _ -> raise (Solver_stop Numerical_failure)

(* Installs the pivot into the basis representation.  A [Rejected] update
   (Forrest–Tomlin singular spike) is not an error: the basis change is
   already recorded in [st.basis], so a full refactorization from the new
   basis both repairs the representation and absorbs the pivot. *)
let commit_pivot st ~r =
  match
    try Basis.update st.rep ~r
    with Invalid_argument _ -> raise (Solver_stop Numerical_failure)
  with
  | true ->
    st.stats.Rstats.basis_updates <- st.stats.Rstats.basis_updates + 1;
    st.stats.Rstats.spike_fill <-
      st.stats.Rstats.spike_fill + Basis.update_added st.rep;
    tick_factor st (Basis.update_work st.rep);
    after_basis_update st
  | false -> (
    st.stats.Rstats.refactor_forced <- st.stats.Rstats.refactor_forced + 1;
    try full_refactorize st
    with Lina.Lu.Singular _ -> raise (Solver_stop Numerical_failure))

(* --- dual pricing workspace ------------------------------------------ *)

(* Capacity for [need] entries: [len] when it suffices, else half again
   as much at least, so a form that keeps growing (column generation)
   reallocates a logarithmic number of times. *)
let grown len need = if need <= len then len else max need (len + (len / 2))

(* [a] when it holds [need] entries, else a longer copy of its first
   [keep]. *)
let widen a ~keep ~need fill =
  if Array.length a >= need then a
  else begin
    let b = Array.make (grown (Array.length a) need) fill in
    Array.blit a 0 b 0 keep;
    b
  end

(* Lazily-built Aᵀ plus scatter scratch; cached on the state so session
   re-solves pay the transpose once.  Shared by the dual simplex's pivot
   row, the primal devex weight propagation (both need the same
   α_j = ρ·A_j row scatter) and the pricing sweeps (a_j·y).  A rebuild grows the buffers as needed; the
   marks stay below the stamp, which only increases, so no reset is
   needed. *)
let dual_ws st =
  let ws = st.dualw in
  if not ws.d_ready then begin
    let a = st.sf.Std_form.a in
    let nnz = Lina.Csc.nnz a in
    if Array.length ws.d_ptr < st.m + 1 then
      ws.d_ptr <- Array.make (st.m + 1) 0;
    if Array.length ws.d_col < nnz then begin
      let len = grown (Array.length ws.d_col) nnz in
      ws.d_col <- Array.make len 0;
      ws.d_val <- Array.make len 0.0
    end;
    if Array.length ws.d_alpha < st.n_total then begin
      let len = grown (Array.length ws.d_alpha) st.n_total in
      ws.d_alpha <- Array.make len 0.0;
      ws.d_mark <- Array.make len (-1);
      ws.d_touch <- Array.make len 0
    end;
    Lina.Csc.transpose_into a ~col_ptr:ws.d_ptr ~row_idx:ws.d_col
      ~value:ws.d_val;
    ws.d_ready <- true
  end;
  ws

(* Scatters the row vector [v] over the cached Aᵀ: α_j = v·A_j for
   every column meeting a nonzero of [v], visiting only those columns.
   The rows of [v] are walked in ascending order — over
   [sup.(0 .. ns-1)] when [ns >= 0], all m otherwise — so each α_j adds
   its terms in the order a dot with column j adds them (rows ascend
   within a CSC column), and skips only zero products; α_j is bitwise
   that dot.  Direct CSC traversal: an [iter_col] callback would
   allocate a closure per touched row and box every coefficient.
   Returns the touched-column count; the alphas and touch list live in
   the workspace under the new stamp. *)
let scatter_rows st ws v ~ns ~sup =
  ws.d_stamp <- ws.d_stamp + 1;
  let stamp = ws.d_stamp in
  let ntouch = ref 0 in
  let ptr = ws.d_ptr and ridx = ws.d_col and rval = ws.d_val in
  for s = 0 to (if ns >= 0 then ns else st.m) - 1 do
    let i = if ns >= 0 then sup.(s) else s in
    let ri = v.(i) in
    if ri <> 0.0 then
      for k = ptr.(i) to ptr.(i + 1) - 1 do
        let j = ridx.(k) in
        if ws.d_mark.(j) <> stamp then begin
          ws.d_mark.(j) <- stamp;
          ws.d_alpha.(j) <- 0.0;
          ws.d_touch.(!ntouch) <- j;
          incr ntouch
        end;
        ws.d_alpha.(j) <- ws.d_alpha.(j) +. (ri *. rval.(k))
      done
  done;
  !ntouch

(* The pivot row α_j = ρ·A_j, over ρ's support when the BTRAN reported
   one — on every dual pivot and every devex weight update. *)
let pivot_row_scatter st ws rho =
  scatter_rows st ws rho ~ns:(Basis.support_len st.rep)
    ~sup:(Basis.support st.rep)

(* --- objective ---------------------------------------------------------- *)

(* The one writer of [cost], which also records its support for the
   pricing sweeps.  Structural and logical columns take the real
   objective, or 0 in phase 1.  An artificial costs 1 exactly while it is
   a phase-1 artificial, i.e. while its upper bound is infinite; fixed
   out (bounds [0, 0]) it costs 0.  So every artificial that is not
   fixed is in the support.  Callers set the artificials' bounds first. *)
let install_costs st ~phase1 =
  let n = st.n_total in
  let k = ref 0 in
  if phase1 then Array.fill st.cost 0 n 0.0
  else
    for j = 0 to n - 1 do
      let c = st.real_cost.(j) in
      st.cost.(j) <- c;
      if c <> 0.0 then begin
        st.csup.(!k) <- j;
        incr k
      end
    done;
  for j = n to n + st.m - 1 do
    if st.ub.(j) = infinity then begin
      st.cost.(j) <- 1.0;
      st.csup.(!k) <- j;
      incr k
    end
    else st.cost.(j) <- 0.0
  done;
  st.csup_n <- !k

(* --- pricing --------------------------------------------------------- *)

(* y = B⁻ᵀ c_B (BTRAN), billed like any other basis solve. *)
let compute_duals st =
  for pos = 0 to st.m - 1 do
    st.y.(pos) <- st.cost.(st.basis.(pos))
  done;
  let work = Basis.btran_in_place st.rep st.y in
  st.stats.Rstats.btran_nnz <-
    st.stats.Rstats.btran_nnz + Basis.result_nnz st.rep;
  tick_btran st work

(* Whether column [j] is nonbasic and not fixed: the columns pricing
   considers. *)
let[@inline] movable st j =
  not (st.vstat.(j) = Basic || st.lb.(j) >= st.ub.(j))

(* Direction in which movable column [j] would improve the objective —
   [1] (increase), [-1] (decrease) or [0] (none beyond [tol]) — given
   a_j·y in [fout.(0)], which it replaces by the reduced cost
   d_j = c_j − a_j·y. *)
let[@inline] reduced_dir st j tol =
  let d = st.cost.(j) -. st.fout.(0) in
  st.fout.(0) <- d;
  match st.vstat.(j) with
  | At_lower -> if d < -.tol then 1 else 0
  | At_upper -> if d > tol then -1 else 0
  | Free_nb -> if d < -.tol then 1 else if d > tol then -1 else 0
  | Basic -> 0

(* Entering direction of column [j] under the current duals — [1]
   (increase), [-1] (decrease) or [0] (not eligible) — with its reduced
   cost d_j left in [fout.(0)]. *)
let entering_dir st j =
  if not (movable st j) then 0
  else begin
    dot_col st j st.y;
    reduced_dir st j dual_feas_tol
  end

(* Candidate-list size bound of a restock. *)
let max_cand = 200

(* Restock heap over [top_s]/[top_j]: [below hs hj a b] holds when entry
   [a] ranks below entry [b] (score desc, index asc — the order is part
   of the deterministic pivot sequence), and the root is the weakest
   entry kept. *)
let below (hs : float array) (hj : int array) a b =
  hs.(a) < hs.(b) || (hs.(a) = hs.(b) && hj.(a) > hj.(b))

let heap_swap (hs : float array) (hj : int array) a b =
  let s = hs.(a) and j = hj.(a) in
  hs.(a) <- hs.(b);
  hj.(a) <- hj.(b);
  hs.(b) <- s;
  hj.(b) <- j

let rec heap_up hs hj i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if below hs hj i p then begin
      heap_swap hs hj i p;
      heap_up hs hj p
    end
  end

let rec heap_down hs hj h i =
  let l = (2 * i) + 1 in
  let w = if l < h && below hs hj l i then l else i in
  let w = if l + 1 < h && below hs hj (l + 1) w then l + 1 else w in
  if w <> i then begin
    heap_swap hs hj i w;
    heap_down hs hj h w
  end

(* Keeps the [target] strongest of the [found] scored candidates in
   [cand], strongest first: the prefix a full sort by (score desc, index
   asc) would keep, selected through a bounded heap instead of a sort of
   every eligible column. *)
let restock st found target =
  let hs = st.top_s and hj = st.top_j in
  let h = ref 0 in
  for k = 0 to found - 1 do
    let j = st.cand.(k) and sc = st.cand_score.(k) in
    if !h < target then begin
      hs.(!h) <- sc;
      hj.(!h) <- j;
      heap_up hs hj !h;
      incr h
    end
    else if sc > hs.(0) || (sc = hs.(0) && j < hj.(0)) then begin
      hs.(0) <- sc;
      hj.(0) <- j;
      heap_down hs hj target 0
    end
  done;
  for t = target - 1 downto 0 do
    st.cand.(t) <- hj.(0);
    decr h;
    hs.(0) <- hs.(!h);
    hj.(0) <- hj.(!h);
    heap_down hs hj !h 0
  done;
  st.cand_n <- target

(* Full sweeps are hypersparse (row-wise PRICE): y is scattered over Aᵀ
   ([scatter_rows]), and a sweep visits only the columns whose reduced
   cost can be nonzero — the structurals meeting a nonzero dual, with
   a_j·y from the scatter, then the columns of nonzero cost the scatter
   did not touch.  Every other column has d_j = 0 − 0 and is never
   eligible; an artificial that is not fixed costs 1 ([install_costs]),
   so no artificial is missed.  [sweep_col st ws ntouch t] is the
   sweep's [t]-th column, with a_j·y in [fout.(0)] — bitwise the column
   dot [dot_col] computes — or [-1] for a cost-support column already
   visited among the touched ones. *)
let sweep_col st ws ntouch t =
  if t < ntouch then begin
    let j = ws.d_touch.(t) in
    st.fout.(0) <- ws.d_alpha.(j);
    j
  end
  else begin
    let j = st.csup.(t - ntouch) in
    if j >= st.n_total then begin
      let i = j - st.n_total in
      st.fout.(0) <- st.art_sign.(i) *. st.y.(i);
      j
    end
    else if ws.d_mark.(j) = ws.d_stamp then -1
    else begin
      st.fout.(0) <- 0.0;
      j
    end
  end

(* Scatters the duals for a sweep; returns the touched-column count. *)
let scatter_duals st ws = scatter_rows st ws st.y ~ns:(-1) ~sup:st.wsup

(* Returns the entering column, its direction of movement in [enter_dir]
   (+1 increase, -1 decrease), or [-1] at (phase) optimality.

   Devex pricing over a candidate list: a full sweep picks the global
   winner and restocks the list with the strongest columns; subsequent
   iterations re-price only the survivors (most stay attractive for
   several pivots), and the next sweep runs when the list dries up — so
   optimality is only ever declared by a full sweep.  The sweep visits
   its columns out of index order ([sweep_col]) and reproduces the
   ascending scan: the winner is the highest score, the smallest index
   on ties, and a list kept whole is sorted by index (its order breaks
   the re-pricing's ties); a restock ranks by score, then index, so its
   order is already fixed.  A sweep bills every column.  Bland's
   anti-cycling rule remains a full first-eligible-index scan. *)
let price st =
  let ncols = st.n_total + st.m in
  if st.bland then begin
    let q = ref (-1) and j = ref 0 in
    while !q < 0 && !j < ncols do
      let dir = entering_dir st !j in
      if dir <> 0 then begin
        q := !j;
        st.enter_dir <- dir
      end;
      incr j
    done;
    tick_pricing st ncols;
    !q
  end
  else begin
    (* Devex scoring d²/γ_j approximates the steepest-edge criterion.
       Eligibility already requires |d| beyond the dual tolerance, so the
       score floor of 0 admits every eligible column. *)
    let best = ref (-1) and best_score = ref 0.0 in
    if st.params.partial_pricing && st.cand_n > 0 then begin
      (* Re-price the surviving candidates, compacting the list. *)
      tick_pricing st st.cand_n;
      let kept = ref 0 in
      for k = 0 to st.cand_n - 1 do
        let j = st.cand.(k) in
        let dir = entering_dir st j in
        if dir <> 0 then begin
          st.cand.(!kept) <- j;
          incr kept;
          let d = st.fout.(0) in
          let score = d *. d /. at_least 1.0 st.refw.(j) in
          if score > !best_score then begin
            best := j;
            best_score := score;
            st.enter_dir <- dir
          end
        end
      done;
      st.cand_n <- !kept
    end;
    if !best >= 0 then begin
      st.stats.Rstats.pricing_hits <- st.stats.Rstats.pricing_hits + 1;
      !best
    end
    else begin
      (* Full sweep; every eligible column is scored for the restock. *)
      st.stats.Rstats.pricing_sweeps <- st.stats.Rstats.pricing_sweeps + 1;
      tick_pricing st ncols;
      let ws = dual_ws st in
      let ntouch = scatter_duals st ws in
      let found = ref 0 in
      for t = 0 to ntouch + st.csup_n - 1 do
        let j = sweep_col st ws ntouch t in
        if j >= 0 && movable st j then begin
          let dir = reduced_dir st j dual_feas_tol in
          if dir <> 0 then begin
            let d = st.fout.(0) in
            let score = d *. d /. at_least 1.0 st.refw.(j) in
            st.cand.(!found) <- j;
            st.cand_score.(!found) <- score;
            incr found;
            if score > !best_score || (score = !best_score && j < !best)
            then begin
              best := j;
              best_score := score;
              st.enter_dir <- dir
            end
          end
        end
      done;
      let target = max 16 (min max_cand (ncols / 8)) in
      if !found <= target then begin
        Lina.Lu.Sparse.sort_prefix ~bits:st.cand_bits st.cand !found;
        st.cand_n <- !found
      end
      else restock st !found target;
      !best
    end
  end

(* --- ratio test ------------------------------------------------------ *)

(* Leaving row of a step along [dir] (an int, ±1) times the pivot column
   [w], or [-1] when no basic variable bounds the step; the step length
   goes to [fout.(1)] and the bound the leaving variable hits to
   [leave_hit].  Walks [w]'s support in ascending order — the rows a
   full scan would visit with a nonzero rate, in the same order. *)
let ratio_test st dir =
  let dir = float_of_int dir in
  let piv_tol = Lina.Tol.pivot in
  let t_best = ref infinity in
  let leave = ref (-1) and leave_hit = ref At_lower in
  let leave_piv = ref 0.0 in
  let ns = Basis.support_len st.rep and sup = Basis.support st.rep in
  for s = 0 to (if ns >= 0 then ns else st.m) - 1 do
    let i = if ns >= 0 then sup.(s) else s in
    let rate = -.dir *. st.w.(i) in
    if Float.abs rate > piv_tol then begin
      let bj = st.basis.(i) in
      let t =
        if rate < 0.0 then
          if st.lb.(bj) > neg_infinity then
            at_least 0.0 ((st.xval.(bj) -. st.lb.(bj)) /. -.rate)
          else infinity
        else if st.ub.(bj) < infinity then
          at_least 0.0 ((st.ub.(bj) -. st.xval.(bj)) /. rate)
        else infinity
      in
      if t < infinity then begin
        let better =
          if st.bland then
            t < !t_best -. 1e-12
            || (t <= !t_best +. 1e-12
               && (!leave < 0 || bj < st.basis.(!leave)))
          else
            t < !t_best -. 1e-12
            || (t <= !t_best +. 1e-12 && Float.abs st.w.(i) > Float.abs !leave_piv)
        in
        if better then begin
          (* [Float.min]: neither is NaN or −0 here *)
          if t < !t_best then t_best := t;
          leave := i;
          leave_hit := (if rate < 0.0 then At_lower else At_upper);
          leave_piv := st.w.(i)
        end
      end
    end
  done;
  st.fout.(1) <- !t_best;
  st.leave_hit <- !leave_hit;
  !leave

(* Primal devex reference-framework propagation: after row [r] is chosen
   for entering column [q], the pivot-row alphas carry the entering
   weight to every nonbasic they price against,
   γ_j ← max(γ_j, (α_j/α_q)²·γ_q), and the leaving variable re-enters
   the nonbasic pool at γ = max(γ_q/α_q², 1).  Must run before the basis
   arrays are mutated (it reads the pre-pivot statuses and
   [st.basis.(r)]); the BTRAN of e_r and the scatter exist only to
   maintain the pricing weights (the pivot itself never consumes the
   row), so all of it is billed to the pricing category, unlike the dual
   pricer's structurally identical computation whose row feeds the ratio
   test.  On framework overflow the weights restart from the unit
   framework (the standard devex reset).

   Returns [true] when it ran: the pivot row ρ it computes doubles as
   the incremental dual update y ← y + (d_q/α_q)·ρ (the same textbook
   step the dual simplex applies), so the caller can skip the per-pivot
   BTRAN of c_B.  [false] (Bland active, or a sub-tolerance
   α_q) means the duals were not maintained and must be recomputed. *)
let devex_primal_update st ~q ~r =
  if not st.bland then begin
    let alpha_q = st.w.(r) in
    if Float.abs alpha_q > Lina.Tol.pivot then begin
      let gq = at_least 1.0 st.refw.(q) in
      let rho = st.rho in
      tick_pricing st (unit_row st r);
      (* Incremental dual step while ρ and y are both pre-pivot, over ρ's
         support (read before the scatter below; both precede any other
         solve). *)
      dot_col st q st.y;
      let d_q = st.cost.(q) -. st.fout.(0) in
      let theta = d_q /. alpha_q in
      if theta <> 0.0 then begin
        let ns = Basis.support_len st.rep and sup = Basis.support st.rep in
        for s = 0 to (if ns >= 0 then ns else st.m) - 1 do
          let i = if ns >= 0 then sup.(s) else s in
          if rho.(i) <> 0.0 then st.y.(i) <- st.y.(i) +. (theta *. rho.(i))
        done
      end;
      let ws = dual_ws st in
      let ntouch = pivot_row_scatter st ws rho in
      tick_pricing st (max 1 ntouch);
      let overflow = ref false in
      for k = 0 to ntouch - 1 do
        let j = ws.d_touch.(k) in
        if j <> q && st.vstat.(j) <> Basic then begin
          let ratio = ws.d_alpha.(j) /. alpha_q in
          let cand = ratio *. ratio *. gq in
          if cand > st.refw.(j) then st.refw.(j) <- cand;
          if cand > 1e12 then overflow := true
        end
      done;
      st.refw.(st.basis.(r)) <- at_least 1.0 (gq /. (alpha_q *. alpha_q));
      if !overflow then Array.fill st.refw 0 (st.n_total + st.m) 1.0;
      true
    end
    else false
  end
  else false

(* Devex weights restart from the unit reference framework at every
   solve start (and when phase 2 installs the real objective): the
   weights approximate steepest-edge norms relative to a reference
   basis, and carrying them across unrelated solves or phases degrades
   them into noise. *)
let reset_devex st =
  Array.fill st.refw 0 (st.n_total + st.m) 1.0;
  Array.fill st.drefw 0 st.m 1.0

(* --- pivot application ----------------------------------------------- *)

let do_pivot st q r hit =
  let duals_maintained = devex_primal_update st ~q ~r in
  let leaving = st.basis.(r) in
  (* Pin the leaving variable exactly onto its bound to stop drift. *)
  (match hit with
  | At_lower -> st.xval.(leaving) <- st.lb.(leaving)
  | At_upper -> st.xval.(leaving) <- st.ub.(leaving)
  | Basic | Free_nb -> ());
  st.vstat.(leaving) <- hit;
  st.basis.(r) <- q;
  st.vstat.(q) <- Basic;
  commit_pivot st ~r;
  (* The devex update already carried y across the pivot; recompute only
     when it could not, or when a refactorization/hygiene pass rebuilt
     the factors the incremental y accumulated against. *)
  if (not duals_maintained) || st.pivots_since_refactor = 0 then
    compute_duals st

(* --- main loop -------------------------------------------------------- *)

let check_limits st =
  if
    st.iterations >= max_iters
    || Budget.iters_exhausted st.budget st.stats.Rstats.simplex_iterations
  then raise (Solver_stop Iter_limit);
  if st.iterations land 15 = 0 && Budget.out_of_time st.budget then
    raise (Solver_stop Time_limit)

(* One pivot of work: the per-solve counter, the solve-wide stats and the
   budget clock (deterministic time advances here).  Each iteration's
   clock charge is assembled from the work actually performed — a basis
   solve ticks the reach-bounded work it returns, pricing ticks the
   columns examined — so work-seconds track wall-seconds across model
   sizes spanning orders of magnitude.  This helper bills the O(m)
   remainder (ratio test, primal update) so every iteration advances the
   clock even when the solves are nearly free. *)
let count_iteration st =
  st.iterations <- st.iterations + 1;
  st.stats.Rstats.simplex_iterations <- st.stats.Rstats.simplex_iterations + 1;
  Budget.charge st.budget (max 1 st.m)

(* Runs simplex iterations on the current cost vector until (phase)
   optimality.  Raises [Solver_stop] on limits or numerical trouble. *)
let optimize st ~allow_unbounded =
  (* One BTRAN of c_B anchors the duals; bound flips leave the basis (and
     hence y) untouched, and pivots carry y forward incrementally inside
     [do_pivot], so the loop only re-solves for y when a pivot could not
     maintain it.  The anchor is deferred past the first [check_limits]
     so a solve entering exactly at its deadline stops before billing
     (nodes at the budget edge keep their pre-update semantics). *)
  let anchored = ref false in
  let continue_ = ref true in
  while !continue_ do
    check_limits st;
    count_iteration st;
    if not !anchored then begin
      compute_duals st;
      anchored := true
    end;
    let q = price st in
    if q < 0 then continue_ := false
    else begin
      let dir = st.enter_dir in
      ftran st q;
      let t_flip =
        if st.lb.(q) > neg_infinity && st.ub.(q) < infinity then
          st.ub.(q) -. st.lb.(q)
        else infinity
      in
      let r = ratio_test st dir in
      let t_leave = st.fout.(1) in
      (* [Float.min]: neither is NaN or −0 *)
      let t = if t_flip < t_leave then t_flip else t_leave in
      if t = infinity then
        if allow_unbounded then raise (Solver_stop Unbounded)
        else raise (Solver_stop Numerical_failure)
      else begin
        if t > 1e-10 then st.degenerate_run <- 0
        else begin
          st.degenerate_run <- st.degenerate_run + 1;
          if st.degenerate_run > 100 + (2 * st.m) then st.bland <- true
        end;
        (* Step: every basic moves by −dir·w_i·t, over w's support (the
           ratio test read it too; no solve ran since the FTRAN). *)
        if t <> 0.0 then begin
          let fdir = float_of_int dir in
          let ns = Basis.support_len st.rep and sup = Basis.support st.rep in
          for s = 0 to (if ns >= 0 then ns else st.m) - 1 do
            let i = if ns >= 0 then sup.(s) else s in
            let rate = -.fdir *. st.w.(i) in
            if rate <> 0.0 then begin
              let bj = st.basis.(i) in
              st.xval.(bj) <- st.xval.(bj) +. (rate *. t)
            end
          done;
          st.xval.(q) <- st.xval.(q) +. (fdir *. t)
        end;
        if t_flip <= t_leave then begin
          (* bound-to-bound flip: no basis change *)
          st.vstat.(q) <-
            (match st.vstat.(q) with
            | At_lower -> At_upper
            | At_upper -> At_lower
            | Free_nb | Basic -> st.vstat.(q));
          st.xval.(q) <- (match st.vstat.(q) with
            | At_upper -> st.ub.(q)
            | _ -> st.lb.(q))
        end
        else if r >= 0 then do_pivot st q r st.leave_hit
        else raise (Solver_stop Numerical_failure)
      end
    end
  done

(* --- phase 1 ---------------------------------------------------------- *)

(* Drives remaining basic artificials out of the basis (or leaves them
   pinned at zero on redundant rows). *)
let expel_artificials st =
  for r = 0 to st.m - 1 do
    if st.basis.(r) >= st.n_total then begin
      (* Row r of the inverse gives the pivot weights of every column. *)
      let rho = st.rho in
      tick_btran st (unit_row st r);
      let best = ref (-1) and best_w = ref Lina.Tol.pivot in
      for j = 0 to st.n_total - 1 do
        if st.vstat.(j) <> Basic then begin
          dot_col st j rho;
          let wj = st.fout.(0) in
          if Float.abs wj > !best_w then begin
            best := j;
            best_w := Float.abs wj
          end
        end
      done;
      if !best >= 0 then begin
        let q = !best in
        ftran st q;
        let art = st.basis.(r) in
        (* Degenerate exchange: the entering variable keeps its value. *)
        st.basis.(r) <- q;
        st.vstat.(q) <- Basic;
        st.vstat.(art) <- At_lower;
        st.xval.(art) <- 0.0;
        commit_pivot st ~r
      end
    end
  done

let phase1 st ~any_artificial =
  if any_artificial then begin
    optimize st ~allow_unbounded:false;
    let infeas = ref 0.0 in
    for i = 0 to st.m - 1 do
      infeas := !infeas +. st.xval.(st.n_total + i)
    done;
    if !infeas > primal_feas_tol *. float_of_int (st.m + 1) then
      raise (Solver_stop Infeasible);
    expel_artificials st
  end;
  (* Fix artificials out of the problem and install the real objective. *)
  for i = 0 to st.m - 1 do
    let j = st.n_total + i in
    st.lb.(j) <- 0.0;
    st.ub.(j) <- 0.0;
    st.xval.(j) <- 0.0
  done;
  install_costs st ~phase1:false;
  (* Phase-1 pivots skewed the devex framework against the wrong
     objective; phase 2 restarts from the unit reference. *)
  reset_devex st

(* --- initial basis construction --------------------------------------- *)

(* The status of a nonbasic column placed at its bound nearest zero
   (free columns at zero).  Inlined: a float argument of a call would be
   boxed. *)
let[@inline] nearest_stat lo hi =
  if lo = neg_infinity && hi = infinity then Free_nb
  else if lo = neg_infinity then At_upper
  else if hi = infinity then At_lower
  else if Float.abs lo <= Float.abs hi then At_lower
  else At_upper

(* Places nonbasic column [j] at its nearest bound.  Writing the value
   here, rather than returning it, keeps the float unboxed. *)
let place_nearest st j =
  let s = nearest_stat st.lb.(j) st.ub.(j) in
  st.vstat.(j) <- s;
  st.xval.(j) <-
    (match s with
    | At_lower -> st.lb.(j)
    | At_upper -> st.ub.(j)
    | Free_nb | Basic -> 0.0)

(* Cold start: structurals at their nearest bound, logicals basic where the
   initial activity is inside the row range, artificials elsewhere. *)
let cold_start st =
  let n_struct = st.sf.Std_form.n_struct in
  let any_artificial = ref false in
  for j = 0 to n_struct - 1 do
    place_nearest st j
  done;
  (* Row activities from structural columns only. *)
  let act = st.rowbuf in
  Array.fill act 0 st.m 0.0;
  let a = st.sf.Std_form.a in
  for j = 0 to n_struct - 1 do
    if st.xval.(j) <> 0.0 then begin
      let xj = st.xval.(j) in
      for e = a.Lina.Csc.col_ptr.(j) to a.Lina.Csc.col_ptr.(j + 1) - 1 do
        let i = a.Lina.Csc.row_idx.(e) in
        act.(i) <- act.(i) +. (a.Lina.Csc.value.(e) *. xj)
      done
    end
  done;
  (* Once row i's activity is read, [act.(i)] takes the sign of its
     basis column: the diagonal of the cold-start basis. *)
  for i = 0 to st.m - 1 do
    let slack = n_struct + i in
    let art = st.n_total + i in
    if act.(i) >= st.lb.(slack) && act.(i) <= st.ub.(slack) then begin
      (* logical basic at the activity value; basis column is -e_i *)
      st.basis.(i) <- slack;
      st.vstat.(slack) <- Basic;
      st.xval.(slack) <- act.(i);
      st.vstat.(art) <- At_lower;
      st.xval.(art) <- 0.0;
      st.lb.(art) <- 0.0;
      st.ub.(art) <- 0.0;
      act.(i) <- -1.0
    end
    else begin
      (* The logical sits on the bound its activity violates. *)
      let below = act.(i) < st.lb.(slack) in
      let target = if below then st.lb.(slack) else st.ub.(slack) in
      st.vstat.(slack) <- (if below then At_lower else At_upper);
      st.xval.(slack) <- target;
      let resid = target -. act.(i) in
      let sign = if resid >= 0.0 then 1.0 else -1.0 in
      st.art_sign.(i) <- sign;
      st.basis.(i) <- art;
      st.vstat.(art) <- Basic;
      st.xval.(art) <- Float.abs resid;
      st.lb.(art) <- 0.0;
      st.ub.(art) <- infinity;
      any_artificial := true;
      act.(i) <- sign
    end
  done;
  Basis.load_identity st.rep act;
  st.cand_n <- 0;
  reset_devex st;
  (* phase-1 objective (artificials at 1, zero on real columns) when an
     artificial is basic *)
  install_costs st ~phase1:!any_artificial;
  !any_artificial

(* Installs a caller-provided basis over the real columns: nonbasics onto
   their (possibly changed) bounds, artificials fixed out, basis matrix
   factorized.  Returns false when the basis is malformed or singular. *)
let install_warm_basis st (warm : basis) =
  if
    Array.length warm.basic <> st.m
    || Array.length warm.stat <> st.n_total
  then false
  else begin
    let ok = ref true in
    Array.iter (fun j -> if j < 0 || j >= st.n_total then ok := false) warm.basic;
    if !ok then begin
      for j = 0 to st.n_total - 1 do
        (* A nonbasic status pointing at an infinite bound is re-homed
           rather than rejected (bounds may differ from the basis' LP). *)
        let stat =
          match warm.stat.(j) with
          | At_lower when st.lb.(j) = neg_infinity ->
            if st.ub.(j) < infinity then At_upper else Free_nb
          | At_upper when st.ub.(j) = infinity ->
            if st.lb.(j) > neg_infinity then At_lower else Free_nb
          | s -> s
        in
        st.vstat.(j) <- stat;
        match stat with
        | At_lower -> st.xval.(j) <- st.lb.(j)
        | At_upper -> st.xval.(j) <- st.ub.(j)
        | Free_nb -> st.xval.(j) <- 0.0
        | Basic -> ()
      done;
      for i = 0 to st.m - 1 do
        let art = st.n_total + i in
        st.vstat.(art) <- At_lower;
        st.xval.(art) <- 0.0;
        st.lb.(art) <- 0.0;
        st.ub.(art) <- 0.0
      done;
      Lina.Lu.Sparse.copy_ints warm.basic st.basis st.m;
      install_costs st ~phase1:false;
      reset_devex st;
      match full_refactorize st with
      | () -> true
      | exception Lina.Lu.Singular _ -> false
    end
    else false
  end

(* Whether the first [st.m] entries of [st.basis] all satisfy [ok]. *)
let all_basic st ok =
  let rec from pos = pos >= st.m || (ok st.basis.(pos) && from (pos + 1)) in
  from 0

let basics_primal_feasible st =
  let tol = primal_feas_tol in
  all_basic st (fun j ->
      st.xval.(j) >= st.lb.(j) -. tol && st.xval.(j) <= st.ub.(j) +. tol)

(* Reduced-cost tolerance of the dual-feasibility check. *)
let dual_check_tol = 10.0 *. dual_feas_tol

(* One pricing pass: is the installed basis dual feasible (so that the
   dual simplex's "no entering candidate" verdict proves infeasibility)?
   A hypersparse sweep over the real columns, as [price]'s. *)
let dual_feasible st =
  compute_duals st;
  let ws = dual_ws st in
  let ntouch = scatter_duals st ws in
  let ok = ref true in
  for t = 0 to ntouch + st.csup_n - 1 do
    let j = sweep_col st ws ntouch t in
    if
      j >= 0 && j < st.n_total && st.vstat.(j) <> Basic
      && st.lb.(j) < st.ub.(j)
      && reduced_dir st j dual_check_tol <> 0
    then ok := false
  done;
  !ok

(* --- dual simplex ------------------------------------------------------ *)

(* Whether basis row [i]'s variable is off its bounds by more than the
   primal tolerance: [Float.max below above > tol], written out — a NaN
   difference never qualifies, as [Float.max] would return NaN. *)
let[@inline] row_infeasible st i =
  let bj = st.basis.(i) in
  let below = st.lb.(bj) -. st.xval.(bj)
  and above = st.xval.(bj) -. st.ub.(bj) in
  (below > primal_feas_tol || above > primal_feas_tol)
  && below = below && above = above

let[@inline] add_infeasible st i =
  st.inf_pos.(i) <- st.inf_n;
  st.inf_rows.(st.inf_n) <- i;
  st.inf_n <- st.inf_n + 1

(* The infeasible rows by one scan of every row. *)
let list_infeasible st =
  st.inf_n <- 0;
  for i = 0 to st.m - 1 do
    if row_infeasible st i then add_infeasible st i else st.inf_pos.(i) <- -1
  done

(* Row [i]'s membership after its value or its variable changed. *)
let[@inline] refresh_infeasible st i =
  let k = st.inf_pos.(i) in
  if row_infeasible st i then (if k < 0 then add_infeasible st i)
  else if k >= 0 then begin
    let last = st.inf_rows.(st.inf_n - 1) in
    st.inf_rows.(k) <- last;
    st.inf_pos.(last) <- k;
    st.inf_pos.(i) <- -1;
    st.inf_n <- st.inf_n - 1
  end

(* Bounded-variable dual simplex: starting from a dual-feasible basis
   (typically the parent LP optimum in branch-and-bound, with child bounds
   installed), repairs primal feasibility while maintaining dual
   feasibility.  Raises [Solver_stop Infeasible] when the dual is
   unbounded, i.e. the primal is infeasible. *)
let dual_optimize st =
  let piv_tol = Lina.Tol.pivot in
  let rho = st.rho in
  (* Duals are maintained incrementally across dual pivots
     (y ← y + (d_q/α_q)·ρ, the textbook dual update along the pivot
     row's BTRAN, which zeroes the entering reduced cost exactly), so the
     loop pays one basis solve per pivot for the pivot row instead of
     two.  A fresh BTRAN of c_B re-anchors y here at entry and after
     every refactorization/hygiene pass (detected below via
     [pivots_since_refactor] returning to 0), so incremental drift never
     outlives the factors it accumulated against.  The anchor is deferred
     past the first [check_limits] so a solve entering exactly at its
     deadline stops before billing. *)
  let anchored = ref false in
  let continue_ = ref true in
  (* Degenerate dual pivots can cycle; after a stall we fall back to a
     Bland-style smallest-index entering rule, and a hard per-call pivot
     budget turns pathological cases into a cold primal restart. *)
  let stall = ref 0 and bland = ref false in
  let budget = 500 + (5 * st.m) in
  let pivots = ref 0 in
  list_infeasible st;
  while !continue_ do
    check_limits st;
    count_iteration st;
    if not !anchored then begin
      compute_duals st;
      anchored := true
    end;
    incr pivots;
    if !pivots > budget then raise (Solver_stop Numerical_failure);
    if !stall > 50 + st.m then bland := true;
    (* Leaving variable: the basic with the worst bound violation, scored
       through the dual devex reference framework (violation²/δ_i — the
       row analogue of the primal's d²/γ_j) unless Bland's rule is
       active, which takes the plain violation.  Only the infeasible
       rows are scored (Hall & McKinnon's hypersparse CHUZR): they are
       listed by a scan of every row at entry and whenever the basic
       values were recomputed, and otherwise kept by each pivot for the
       rows it changes.  The highest score wins, the smallest row on
       ties — the row an ascending scan keeping strict improvements
       picks.  A score is never below zero, and a NaN one never wins. *)
    let r = ref (-1) and best_sc = ref 0.0 and too_high = ref false in
    for k = 0 to st.inf_n - 1 do
      let i = st.inf_rows.(k) in
      let bj = st.basis.(i) in
      let below = st.lb.(bj) -. st.xval.(bj)
      and above = st.xval.(bj) -. st.ub.(bj) in
      (* [Float.max below above], inline: neither difference is NaN in
         an infeasible row, nor are both zeros. *)
      let viol = if below > above then below else above in
      let sc =
        if not !bland then viol *. viol /. at_least 1.0 st.drefw.(i)
        else viol
      in
      if sc > !best_sc || (sc = !best_sc && !r >= 0 && i < !r) then begin
        best_sc := sc;
        r := i;
        too_high := above > below
      end
    done;
    if !r < 0 then continue_ := false
    else begin
      let r = !r in
      let e = if !too_high then 1.0 else -1.0 in
      (* rho = row r of the inverse (the BTRAN of e_r), then the pivot
         row alpha_j = rho · A_j — assembled by scattering the rows of A
         that rho touches over the cached Aᵀ, so only columns actually
         meeting the row are visited (rho is sparse under the factored
         basis). *)
      tick_btran st (unit_row st r);
      st.stats.Rstats.btran_nnz <-
        st.stats.Rstats.btran_nnz + Basis.result_nnz st.rep;
      let ws = dual_ws st in
      let ntouch = pivot_row_scatter st ws rho in
      tick_pricing st (max 1 ntouch);
      (* Dual ratio test: smallest d_j / (e·alpha_j) over admissible j. *)
      let best = ref (-1) and best_ratio = ref infinity and best_alpha = ref 0.0 in
      for k = 0 to ntouch - 1 do
        let j = ws.d_touch.(k) in
        if st.vstat.(j) <> Basic && st.lb.(j) < st.ub.(j) then begin
          let alpha = ws.d_alpha.(j) in
          let alpha' = e *. alpha in
          let admissible =
            match st.vstat.(j) with
            | At_lower -> alpha' > piv_tol
            | At_upper -> alpha' < -.piv_tol
            | Free_nb -> Float.abs alpha' > piv_tol
            | Basic -> false
          in
          if admissible then begin
            dot_col st j st.y;
            let d = st.cost.(j) -. st.fout.(0) in
            let ratio = at_least 0.0 (d /. alpha') in
            let better =
              if !bland then
                ratio < !best_ratio -. 1e-12
                || (ratio <= !best_ratio +. 1e-12
                   && (!best < 0 || j < !best))
              else
                ratio < !best_ratio -. 1e-12
                || (ratio <= !best_ratio +. 1e-12
                   && Float.abs alpha > Float.abs !best_alpha)
            in
            if better then begin
              best := j;
              best_ratio := ratio;
              best_alpha := alpha
            end
          end
        end
      done;
      if !best < 0 then raise (Solver_stop Infeasible)
      else begin
        let q = !best in
        (* Incremental dual step: θ = d_q/α_q along ρ zeroes the entering
           reduced cost; only the rows ρ touches move, walked over ρ's
           support (the FTRAN below replaces it).  Must read ρ and y
           pre-pivot. *)
        dot_col st q st.y;
        let d_q = st.cost.(q) -. st.fout.(0) in
        let theta = d_q /. !best_alpha in
        if theta <> 0.0 then begin
          let ns = Basis.support_len st.rep and sup = Basis.support st.rep in
          for s = 0 to (if ns >= 0 then ns else st.m) - 1 do
            let i = if ns >= 0 then sup.(s) else s in
            if rho.(i) <> 0.0 then st.y.(i) <- st.y.(i) +. (theta *. rho.(i))
          done
        end;
        ftran st q;
        let alpha_q = st.w.(r) in
        if Float.abs alpha_q < piv_tol then raise (Solver_stop Numerical_failure);
        let leaving = st.basis.(r) in
        let target = if !too_high then st.ub.(leaving) else st.lb.(leaving) in
        let delta_q = (st.xval.(leaving) -. target) /. alpha_q in
        if Float.abs delta_q > 1e-10 then stall := 0 else incr stall;
        (* Dual devex propagation: row weights follow the pivot column
           w = B⁻¹a_q, δ_i ← max(δ_i, (w_i/w_r)²·δ_r), leaving row to
           max(δ_r/w_r², 1); unit-framework restart on overflow.  This
           and the primal update walk w's support. *)
        let ns = Basis.support_len st.rep and sup = Basis.support st.rep in
        let nw = if ns >= 0 then ns else st.m in
        if not !bland then begin
          let dr = at_least 1.0 st.drefw.(r) in
          let overflow = ref false in
          for s = 0 to nw - 1 do
            let i = if ns >= 0 then sup.(s) else s in
            if i <> r && st.w.(i) <> 0.0 then begin
              let ratio = st.w.(i) /. alpha_q in
              let cand = ratio *. ratio *. dr in
              if cand > st.drefw.(i) then st.drefw.(i) <- cand;
              if cand > 1e12 then overflow := true
            end
          done;
          st.drefw.(r) <- at_least 1.0 (dr /. (alpha_q *. alpha_q));
          if !overflow then Array.fill st.drefw 0 st.m 1.0
        end;
        (* Primal update: x_q moves off its bound by delta_q; every basic
           moves by -w_i · delta_q (which lands the leaving variable
           exactly on its violated bound).  The rows that moved, and row
           r, which q takes over, are the only ones whose infeasibility
           can change. *)
        for s = 0 to nw - 1 do
          let i = if ns >= 0 then sup.(s) else s in
          if st.w.(i) <> 0.0 then begin
            let bj = st.basis.(i) in
            st.xval.(bj) <- st.xval.(bj) -. (st.w.(i) *. delta_q);
            refresh_infeasible st i
          end
        done;
        st.xval.(q) <- st.xval.(q) +. delta_q;
        st.xval.(leaving) <- target;
        st.vstat.(leaving) <- (if !too_high then At_upper else At_lower);
        st.basis.(r) <- q;
        st.vstat.(q) <- Basic;
        refresh_infeasible st r;
        commit_pivot st ~r;
        (* Any refactorization/hygiene pass resets the counter and
           recomputes the basic values; re-anchor the incremental duals
           against the fresh factors, and list the infeasible rows
           anew. *)
        if st.pivots_since_refactor = 0 then begin
          compute_duals st;
          list_infeasible st
        end
      end
    end
  done

(* --- result extraction ------------------------------------------------ *)

(* The result record from the primal values [xval] (column space, at
   least [n_total] long) and the row duals [y] (internal sense, at least
   [n_rows] long).  Everything it keeps is copied out of the two
   buffers. *)
let result_of sf status ~xval ~y ~iterations ~final_basis =
  let n_struct = sf.Std_form.n_struct in
  let m = sf.Std_form.n_rows in
  let x = Array.sub xval 0 n_struct in
  let internal =
    let acc = ref 0.0 in
    for j = 0 to Std_form.n_total sf - 1 do
      acc := !acc +. (sf.Std_form.cost.(j) *. xval.(j))
    done;
    !acc
  in
  (* Internal duals are in minimization sense; expose them in the model's
     objective sense so that a user dual is d(user obj)/d(rhs). *)
  let factor = sf.Std_form.obj_factor in
  let duals = Array.make m 0.0 in
  for i = 0 to m - 1 do
    duals.(i) <- factor *. y.(i)
  done;
  let reduced =
    (* Lazy: the O(nnz(A)) pricing of every structural column is wasted
       work on the branch-and-bound hot path, which only reads bounds and
       duals.  When forced it rebuilds the internal duals as
       [factor ·. duals] (exact, since [factor] is ±1) instead of keeping
       a copy of [y], a state buffer the next session re-solve recycles,
       and prices against the immutable standard form. *)
    let a = sf.Std_form.a in
    let cost = sf.Std_form.cost in
    lazy
      (let y = Array.map (fun d -> factor *. d) duals in
       Array.init n_struct (fun j ->
           factor *. (cost.(j) -. Lina.Csc.col_dot a j y)))
  in
  {
    status;
    x;
    objective = Std_form.user_objective sf internal;
    internal_objective = internal;
    duals;
    reduced_costs = reduced;
    iterations;
    final_basis;
  }

let extract st status =
  (* Tighten values with one final refactorization when the basis is sane. *)
  (if status = Optimal then
     try refactorize st with Lina.Lu.Singular _ -> ());
  (* Real costs; an artificial a stopped phase 1 left in play keeps its
     phase-1 cost. *)
  install_costs st ~phase1:false;
  compute_duals st;
  let final_basis =
    match status with
    | Optimal | Iter_limit | Time_limit ->
      (* Only meaningful when no artificial remains basic. *)
      if all_basic st (fun j -> j < st.n_total) then
        Some
          {
            basic = Array.sub st.basis 0 st.m;
            stat = Array.sub st.vstat 0 st.n_total;
          }
      else None
    | Infeasible | Unbounded | Numerical_failure -> None
  in
  result_of st.sf status ~xval:st.xval ~y:st.y ~iterations:st.iterations
    ~final_basis

(* Bounds crossed by more than the feasibility tolerance: the LP is
   infeasible before any basis exists.  Crossings within the tolerance
   (propagation round-off) are collapsed later ([repair_crossed_bounds]). *)
let crossed_bounds lb ub n_total =
  let crossed = ref false in
  for j = 0 to n_total - 1 do
    if lb.(j) > ub.(j) then begin
      let scale = Float.max 1.0 (Float.abs lb.(j)) in
      if lb.(j) -. ub.(j) > primal_feas_tol *. scale then
        crossed := true
    end
  done;
  !crossed

(* The answer for crossed bounds, built without a solver state: the
   all-zero point with zero duals and no basis. *)
let crossed_result sf =
  let m = sf.Std_form.n_rows in
  result_of sf Infeasible
    ~xval:(Array.make (Std_form.n_total sf) 0.0)
    ~y:(Array.make m 0.0) ~iterations:0 ~final_basis:None

(* --- solver states: allocation and recycling ---------------------------- *)

(* Buffers for an LP of up to [m] rows and [n_total] columns; their
   contents are set by [install_lp]. *)
let alloc_state sf params budget stats prof ~m ~n_total =
  let nc = n_total + m in
  {
    sf;
    m;
    n_total;
    lb = Array.make nc 0.0;
    ub = Array.make nc 0.0;
    cost = Array.make nc 0.0;
    real_cost = Array.make n_total 0.0;
    csup = Array.make nc 0;
    csup_n = 0;
    xval = Array.make nc 0.0;
    vstat = Array.make nc At_lower;
    basis = Array.make m (-1);
    art_sign = Array.make m 1.0;
    rep = Basis.create m;
    pivots_since_refactor = 0;
    iterations = 0;
    bland = false;
    degenerate_run = 0;
    params;
    budget;
    stats;
    prof;
    ptk = fresh_ptk ();
    w = Array.make m 0.0;
    y = Array.make m 0.0;
    rho = Array.make m 0.0;
    wsup = Array.make m 0;
    wsup_n = 0;
    rhosup = Array.make m 0;
    rhosup_n = 0;
    rowbuf = Array.make m 0.0;
    fout = Array.make 2 0.0;
    enter_dir = 1;
    leave_hit = At_lower;
    cand = Array.make nc 0;
    cand_score = Array.make nc 0.0;
    cand_n = 0;
    cand_bits = Lina.Lu.Sparse.bitmap nc;
    top_j = Array.make max_cand 0;
    top_s = Array.make max_cand 0.0;
    dualw =
      {
        d_ready = false;
        d_ptr = [||];
        d_col = [||];
        d_val = [||];
        d_alpha = [||];
        d_mark = [||];
        d_touch = [||];
        d_stamp = 0;
      };
    refw = Array.make nc 1.0;
    drefw = Array.make m 1.0;
    inf_rows = Array.make m 0;
    inf_pos = Array.make m (-1);
    inf_n = 0;
  }

(* Whether [st]'s buffers hold an LP of [m] rows and [n_total] columns
   (every column-space buffer has [lb]'s length, every row-space one
   [basis]'s). *)
let fits st ~m ~n_total =
  m <= Array.length st.basis
  && n_total <= Array.length st.real_cost
  && n_total + m <= Array.length st.lb

(* Sets [st]'s buffers to exactly what a solve of [sf] under [lb]/[ub]
   finds in a freshly allocated state — bounds and costs (artificials at
   zero), values, statuses, basis, artificial signs, the representation
   (no factors), the zeroed FTRAN/dual/inverse-row buffers, the devex
   weights, an empty candidate list, a dual workspace to rebuild, zero
   counters — and returns the state for [sf].  Beyond the logical
   dimensions nothing is read; the row buffer, the support lists, the
   candidate and restock arrays and [fout] are written before they are
   read. *)
let install_lp st sf params budget stats prof lb ub =
  let m = sf.Std_form.n_rows in
  let n_total = Std_form.n_total sf in
  let nc = n_total + m in
  Array.blit lb 0 st.lb 0 n_total;
  Array.fill st.lb n_total m 0.0;
  Array.blit ub 0 st.ub 0 n_total;
  Array.fill st.ub n_total m 0.0;
  Array.blit sf.Std_form.cost 0 st.real_cost 0 n_total;
  Array.fill st.xval 0 nc 0.0;
  Array.fill st.vstat 0 nc At_lower;
  Array.fill st.basis 0 m (-1);
  Array.fill st.art_sign 0 m 1.0;
  Basis.reset st.rep m;
  reset_ptk st.ptk;
  Array.fill st.w 0 m 0.0;
  Array.fill st.y 0 m 0.0;
  Array.fill st.rho 0 m 0.0;
  Array.fill st.refw 0 nc 1.0;
  Array.fill st.drefw 0 m 1.0;
  st.dualw.d_ready <- false;
  let st =
    {
      st with
      sf;
      m;
      n_total;
      params;
      budget;
      stats;
      prof;
      pivots_since_refactor = 0;
      iterations = 0;
      bland = false;
      degenerate_run = 0;
      wsup_n = 0;
      rhosup_n = 0;
      enter_dir = 1;
      leave_hit = At_lower;
      cand_n = 0;
    }
  in
  install_costs st ~phase1:false;
  st

(* One spare state per domain: a session its owner has finished with
   ({!session_release}) leaves its state here, and the next state this
   domain needs takes it when it is large enough, so the buffers, the
   factor storage and Aᵀ's arrays of one LP serve the next instead of
   churning the major heap.  A state belongs to at most one session or is
   the spare; results copy what they keep, so nothing else refers to its
   buffers. *)
let spare : state option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

(* What a spare refers to besides its buffers: nothing of the LP it last
   held, so the spare keeps no standard form, budget or stats alive. *)
let idle_form =
  {
    Std_form.n_struct = 0;
    n_rows = 0;
    a =
      Lina.Csc.of_arrays ~rows:0 ~cols:0 ~col_ptr:[| 0 |] ~row_idx:[||]
        ~value:[||];
    cost = [||];
    lb = [||];
    ub = [||];
    obj_const = 0.0;
    obj_factor = 1.0;
    integer = [||];
  }

let idle_budget = Budget.create ~deterministic:1.0 ()
let idle_stats = Rstats.create ()

(* Keeps the larger of [st] and the current spare. *)
let store_spare st =
  let slot = Domain.DLS.get spare in
  let keep =
    match !slot with
    | Some sp ->
      fits st ~m:(Array.length sp.basis) ~n_total:(Array.length sp.real_cost)
    | None -> true
  in
  if keep then
    slot :=
      Some
        {
          st with
          sf = idle_form;
          m = 0;
          n_total = 0;
          budget = idle_budget;
          stats = idle_stats;
          prof = None;
        }

(* The state of a session's first solve: the domain's spare when it is
   large enough, else new buffers — either way set up by [install_lp]. *)
let fresh_state sf params budget stats prof lb ub =
  let m = sf.Std_form.n_rows in
  let n_total = Std_form.n_total sf in
  let slot = Domain.DLS.get spare in
  let st =
    match !slot with
    | Some sp when fits sp ~m ~n_total ->
      slot := None;
      sp
    | _ -> alloc_state sf params budget stats prof ~m ~n_total
  in
  install_lp st sf params budget stats prof lb ub

(* Collapses within-tolerance crossed bounds (propagation round-off) on
   the installed state arrays.  True crossings were already rejected by
   the caller's read-only scan, so anything left is a collapse. *)
let repair_crossed_bounds st =
  for j = 0 to st.n_total - 1 do
    if st.lb.(j) > st.ub.(j) then begin
      let mid = 0.5 *. (st.lb.(j) +. st.ub.(j)) in
      st.lb.(j) <- mid;
      st.ub.(j) <- mid
    end
  done

(* Cold two-phase solve in an allocated state.  Everything a cold start
   reads before writing is reset first — bounds, per-solve counters,
   artificial signs, the candidate list, the profile accumulators — so
   the outcome is that of a freshly allocated state: a function of the
   bounds alone. *)
let cold_solve_in st lb ub =
  Array.blit lb 0 st.lb 0 st.n_total;
  Array.blit ub 0 st.ub 0 st.n_total;
  repair_crossed_bounds st;
  st.iterations <- 0;
  st.bland <- false;
  st.degenerate_run <- 0;
  st.pivots_since_refactor <- 0;
  Array.fill st.art_sign 0 st.m 1.0;
  reset_ptk st.ptk;
  try
    let any_artificial = cold_start st in
    phase1 st ~any_artificial;
    optimize st ~allow_unbounded:true;
    Optimal
  with Solver_stop s -> s

let finish st status =
  let res = extract st status in
  emit_prof_leaves st;
  res

(* --- persistent sessions ----------------------------------------------- *)

type session = {
  mutable s_sf : Std_form.t;  (* grows via [session_add_columns] *)
  s_params : params;
  mutable s_state : state option;  (* carries basis + inverse across solves *)
}

let create_session ?(params = default_params) sf =
  { s_sf = sf; s_params = params; s_state = None }

let session_std_form session = session.s_sf

(* Mutable reset of the session state for new bounds, keeping basis, basis
   inverse and variable statuses intact. *)
let rebound_state st lb ub =
  Array.blit lb 0 st.lb 0 st.n_total;
  Array.blit ub 0 st.ub 0 st.n_total;
  repair_crossed_bounds st;
  for j = 0 to st.n_total - 1 do
    if st.vstat.(j) <> Basic then begin
      (* Re-home nonbasics whose bound moved or vanished. *)
      let stat =
        match st.vstat.(j) with
        | At_lower when st.lb.(j) = neg_infinity ->
          if st.ub.(j) < infinity then At_upper else Free_nb
        | At_upper when st.ub.(j) = infinity ->
          if st.lb.(j) > neg_infinity then At_lower else Free_nb
        | s -> s
      in
      st.vstat.(j) <- stat;
      match stat with
      | At_lower -> st.xval.(j) <- st.lb.(j)
      | At_upper -> st.xval.(j) <- st.ub.(j)
      | Free_nb -> st.xval.(j) <- 0.0
      | Basic -> ()
    end
  done

(* Splices freshly generated columns into the live session: the standard
   form is replaced by the enlarged one and the carried state is remapped
   in place — old indices >= old [n_struct] (logicals, artificials) shift
   up by [k], the new columns enter nonbasic at their nearest bound, and
   the factored basis representation survives untouched (the basis matrix
   itself did not change, only the numbering of the columns it indexes).
   The candidate list is cleared so the next pricing pass is a full sweep
   that sees the entrants; the cached transpose of the dual pricer is
   invalidated.  Work billed on the clock: one FTRAN per new column
   against the current factorization — the price-in the entrant pays
   anyway on its first pivot — keeping the tick stream a pure function of
   the column sequence. *)
let session_add_columns session ?budget ?stats cols =
  let k = List.length cols in
  if k = 0 then session.s_sf
  else begin
    let sf' = Std_form.append_columns session.s_sf cols in
    (match session.s_state with
    | None -> ()
    | Some st ->
      let n = st.sf.Std_form.n_struct in
      let m = st.m in
      let n_total' = st.n_total + k in
      let nc = st.n_total + m and nc' = n_total' + m in
      (* Column-space buffers, widened when they cannot hold the grown
         form: logicals and artificials shift up by [k] in place, opening
         the entrants' slots after the structurals. *)
      let shift a fill =
        let a = widen a ~keep:nc ~need:nc' fill in
        Array.blit a n a (n + k) (nc - n);
        a
      in
      let lb = shift st.lb 0.0 and ub = shift st.ub 0.0 in
      let real_cost = widen st.real_cost ~keep:st.n_total ~need:n_total' 0.0 in
      Array.blit real_cost n real_cost (n + k) (st.n_total - n);
      for j = n to n + k - 1 do
        lb.(j) <- sf'.Std_form.lb.(j);
        ub.(j) <- sf'.Std_form.ub.(j);
        real_cost.(j) <- sf'.Std_form.cost.(j)
      done;
      (* [cost] is re-installed below from the real costs, which a
         finished solve's [cost] already equals on real columns. *)
      let cost = widen st.cost ~keep:0 ~need:nc' 0.0 in
      (* The entrants are placed on their nearest bound below. *)
      let xval = shift st.xval 0.0 and vstat = shift st.vstat At_lower in
      let refw = widen st.refw ~keep:0 ~need:nc' 1.0 in
      Array.fill refw 0 nc' 1.0;
      let basis = st.basis in
      for pos = 0 to m - 1 do
        if basis.(pos) >= n then basis.(pos) <- basis.(pos) + k
      done;
      st.dualw.d_ready <- false;
      let st' =
        {
          st with
          sf = sf';
          n_total = n_total';
          lb;
          ub;
          cost;
          real_cost;
          csup = widen st.csup ~keep:0 ~need:nc' 0;
          xval;
          vstat;
          basis;
          budget = (match budget with Some b -> b | None -> st.budget);
          stats = (match stats with Some s -> s | None -> st.stats);
          cand = widen st.cand ~keep:0 ~need:nc' 0;
          cand_score = widen st.cand_score ~keep:0 ~need:nc' 0.0;
          cand_n = 0;
          cand_bits =
            widen st.cand_bits ~keep:0 ~need:((Array.length lb lsr 5) + 1) 0;
          refw;
        }
      in
      install_costs st' ~phase1:false;
      for j = n to n + k - 1 do
        place_nearest st' j
      done;
      session.s_state <- Some st';
      (* Bill the price-in: one basis solve per entrant (skipped when the
         session never built a basis — nothing to price against). *)
      if all_basic st' (fun j -> j >= 0) then
        List.iteri (fun i _ -> ftran st' (n + i)) cols);
    session.s_sf <- sf';
    sf'
  end

(* Validates the bound arrays, counts the solve and settles its budget
   and stats; [true] in the last component when the bounds cross by more
   than the tolerance (an infeasible LP, answered without a state). *)
let session_call session ?time_limit ?budget ?stats ~lb ~ub () =
  let n_total = Std_form.n_total session.s_sf in
  if Array.length lb <> n_total || Array.length ub <> n_total then
    invalid_arg "Simplex: bound array length";
  let params =
    match time_limit with
    | None -> session.s_params
    | Some t -> { session.s_params with time_limit = t }
  in
  let budget = budget_of_params ?budget params in
  let stats = match stats with Some s -> s | None -> Rstats.create () in
  stats.Rstats.lp_solves <- stats.Rstats.lp_solves + 1;
  (params, budget, stats, crossed_bounds lb ub n_total)

(* The session's one state, under this call's settings: allocated on the
   first solve, afterwards the carried one with its per-solve counters
   reset.  The flag is [false] on the first solve: no basis is carried
   yet. *)
let session_state session params budget stats prof lb ub =
  match session.s_state with
  | None ->
    let st = fresh_state session.s_sf params budget stats prof lb ub in
    repair_crossed_bounds st;
    session.s_state <- Some st;
    (st, false)
  | Some st ->
    st.iterations <- 0;
    st.bland <- false;
    st.degenerate_run <- 0;
    reset_ptk st.ptk;
    let st = { st with params; budget; stats; prof } in
    session.s_state <- Some st;
    (st, true)

let session_cold_solve session ?budget ?stats ?prof ~lb ~ub () =
  let params, budget, stats, crossed =
    session_call session ?budget ?stats ~lb ~ub ()
  in
  if crossed then crossed_result session.s_sf
  else
    Span.with_ prof budget "lp" @@ fun () ->
    let st, _ = session_state session params budget stats prof lb ub in
    finish st (cold_solve_in st lb ub)

let session_release session =
  match session.s_state with
  | None -> ()
  | Some st ->
    session.s_state <- None;
    store_spare st

let solve ?(params = default_params) ?budget ?stats ?prof ?lb ?ub sf =
  let lb = Option.value lb ~default:sf.Std_form.lb in
  let ub = Option.value ub ~default:sf.Std_form.ub in
  let session = create_session ~params sf in
  let r = session_cold_solve session ?budget ?stats ?prof ~lb ~ub () in
  session_release session;
  r

let solve_model ?params ?budget ?stats ?prof m =
  let sf = Std_form.of_model m in
  solve ?params ?budget ?stats ?prof sf

let session_solve session ?time_limit ?budget ?stats ?prof ?warm
    ?(primal = false) ~lb ~ub () =
  let params, budget, stats, crossed =
    session_call session ?time_limit ?budget ?stats ~lb ~ub ()
  in
  if crossed then crossed_result session.s_sf
  else
    Span.with_ prof budget "lp" @@ fun () ->
    let st, carried = session_state session params budget stats prof lb ub in
    (* Every fallback restarts cold in this same state: no second state,
       factorization workspace or transpose is built. *)
    let cold () = finish st (cold_solve_in st lb ub) in
    match warm with
    | Some wb ->
      (* Explicit warm basis: reuse the session's allocated state (arrays,
         factorization workspace, cached transpose) but install exactly
         [wb], so the outcome is a function of (warm basis, bounds) alone —
         independent of whatever this session solved before.  This is the
         determinism contract the parallel branch-and-bound relies on when
         nodes land on arbitrary workers. *)
      if carried then begin
        st.cand_n <- 0;
        rebound_state st lb ub
      end;
      if not (install_warm_basis st wb) then cold ()
      else begin
        let status =
          try
            if dual_feasible st then dual_optimize st
            else if not (basics_primal_feasible st) then
              raise (Solver_stop Numerical_failure);
            optimize st ~allow_unbounded:true;
            Optimal
          with Solver_stop s -> s
        in
        match status with
        | Numerical_failure ->
          (* Unusable basis, drift or a bad pivot: one authoritative cold
             retry (itself a function of bounds alone). *)
          cold ()
        | s -> finish st s
      end
    | None ->
      if not carried then cold ()
      else begin
        rebound_state st lb ub;
        reset_devex st;
        let run body =
          match (try body (); Optimal with Solver_stop s -> s) with
          | Numerical_failure ->
            (* Drift or a bad pivot: one authoritative cold retry. *)
            cold ()
          | s -> finish st s
        in
        if not (all_basic st (fun j -> j >= 0 && j < st.n_total)) then cold ()
        else begin
          recompute_basics st;
          (* [~primal] is the column-generation continuation: freshly
             added columns leave the carried basis primal feasible (the
             entrants sit on a bound) but dual {e infeasible} — exactly
             the state the primal simplex resumes from, where the old
             path would have thrown the basis away and cold-started. *)
          if primal && basics_primal_feasible st then
            run (fun () -> optimize st ~allow_unbounded:true)
          else if
            (* A valid basis (no artificial columns) that is still dual
               feasible lets the dual simplex re-solve in place. *)
            dual_feasible st
          then
            run (fun () ->
                dual_optimize st;
                optimize st ~allow_unbounded:true)
          else cold ()
        end
      end
