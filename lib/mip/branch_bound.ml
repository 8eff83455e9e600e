let src = Logs.Src.create "mip" ~doc:"branch and bound"

module Log = (val Logs.src_log src : Logs.LOG)
module Budget = Runtime.Budget
module Rstats = Runtime.Stats
module Pool = Runtime.Pool
module Span = Runtime.Span

type status =
  | Optimal
  | Infeasible
  | Unbounded
  | Time_limit
  | Node_limit
  | Numerical_failure

let status_to_string = function
  | Optimal -> "optimal"
  | Infeasible -> "infeasible"
  | Unbounded -> "unbounded"
  | Time_limit -> "time limit"
  | Node_limit -> "node limit"
  | Numerical_failure -> "numerical failure"

type params = {
  time_limit : float;
  node_limit : int;
  lp_params : Lp.Simplex.params;
  log_every : int;
  propagate : bool;       (* node-level domain propagation *)
  warm_sessions : bool;   (* warm dual-simplex node re-solves *)
  jobs : int;             (* worker domains for node LPs; <= 0 autodetects *)
  batch_size : int;       (* nodes selected per synchronous round *)
}

let default_params =
  {
    time_limit = infinity;
    node_limit = 1_000_000;
    lp_params = Lp.Simplex.default_params;
    log_every = 0;
    propagate = true;
    (* On by default: with the factored basis a dual-simplex session
       re-solve is a handful of sparse BTRAN/FTRAN pivots, far cheaper
       than a cold primal solve from scratch (see the A2 ablation bench
       and BENCH_simplex.json). *)
    warm_sessions = true;
    jobs = 1;
    (* The batch size is deliberately independent of [jobs]: the set of
       nodes selected each round — and hence the whole search — must not
       change with the worker count, or results would differ across
       parallelism levels. *)
    batch_size = 8;
  }

(* Stop once the relative gap is this small; integrality tolerance on LP
   values. *)
let gap_tol = 1e-6
let int_tol = 1e-6

type result = {
  status : status;
  incumbent : float array option;
  objective : float option;
  best_bound : float;
  gap : float;
  nodes : int;
  lp_iterations : int;
  stats : Rstats.t;
}

let gap_of ~incumbent ~bound =
  match incumbent with
  | None -> infinity
  | Some inc ->
    let diff = Float.abs (bound -. inc) in
    if diff <= 1e-12 then 0.0 else diff /. Float.max 1e-10 (Float.abs inc)

(* A node records only its branching decisions; bound arrays are
   reconstructed on demand to keep the queue memory-light.  [warm] is the
   optimal basis of the parent's LP: evaluating the node warm-starts the
   dual simplex from exactly that basis, so the node's LP answer is a
   function of the node alone — not of whichever worker's session solved
   an unrelated node last.  That per-node anchoring is what makes the
   parallel search reproducible. *)
type node = {
  branches : (int * float * float) list;  (* (column, lo, hi) tightenings *)
  depth : int;
  parent_bound : float;  (* internal (minimization) LP bound inherited *)
  warm : Lp.Simplex.basis option;
}

type search = {
  sf : Lp.Std_form.t;
  prop : Propagate.t;
  sessions : Lp.Simplex.session array;
      (* one persistent simplex session per worker domain: allocated
         state (factorization workspace, cached transpose) is reused
         across every LP that worker solves, root included, while each
         solve installs the node's own warm basis (or starts cold) *)
  params : params;
  queue : node Heap.t;
  mutable plunge : node list;
      (* depth-first stack: one child of the last branching is explored
         in the next round, which finds incumbents far faster than pure
         best-bound search on models with weak big-M relaxations *)
  mutable incumbent_x : float array option;
  mutable incumbent_obj : float;  (* internal sense; +inf if none *)
  mutable nodes : int;
  mutable lp_iters : int;
  mutable pending_bound : float;
      (* min inherited bound over nodes popped from the queues but not
         yet merged; [infinity] between rounds.  Without it, stopping
         mid-round would let [global_bound] collapse to the incumbent
         and falsely claim a proved optimum. *)
  budget : Budget.t;
  stats : Rstats.t;
  prof : Span.recorder option;
  mutable counted_bound : float;
      (* last global dual bound counted in [stats.bound_updates]
         (internal sense) *)
  root_lb : float array;  (* full column space *)
  root_ub : float array;
  wlb : float array array;  (* per-worker bound scratch, resident across *)
  wub : float array array;  (* rounds like the sessions they feed *)
  wprop : Propagate.scratch array;  (* per-worker propagation worklist *)
  wround : float array array;  (* per-worker rounded point (n_struct) *)
  wact : float array array;  (* per-worker row activities (n_rows) *)
  mutable round_batch : int;
      (* nodes selected next round; grows geometrically (up to
         [8 × batch_size]) each time a round fills, purely as a function
         of batch-fill history — jobs-invariant by construction *)
}

(* Reconstructing a node's boxes blits the root bounds into the worker's
   resident scratch instead of allocating two fresh arrays per node: the
   simplex copies (cold solve) or blits ([rebound_state]) the bounds on
   entry, so every node evaluated by a worker may share that worker's
   storage. *)
let node_bounds s ~worker node =
  let lb = s.wlb.(worker) and ub = s.wub.(worker) in
  Array.blit s.root_lb 0 lb 0 (Array.length s.root_lb);
  Array.blit s.root_ub 0 ub 0 (Array.length s.root_ub);
  List.iter
    (fun (j, lo, hi) ->
      lb.(j) <- Float.max lb.(j) lo;
      ub.(j) <- Float.min ub.(j) hi)
    node.branches;
  (lb, ub)

let structural_objective sf (x : float array) =
  let acc = ref 0.0 in
  for j = 0 to sf.Lp.Std_form.n_struct - 1 do
    acc := !acc +. (sf.Lp.Std_form.cost.(j) *. x.(j))
  done;
  !acc

let fractional_vars s (x : float array) =
  let sf = s.sf in
  let acc = ref [] in
  for j = sf.Lp.Std_form.n_struct - 1 downto 0 do
    if sf.Lp.Std_form.integer.(j) then begin
      let v = x.(j) in
      let frac = Float.abs (v -. Float.round v) in
      if frac > int_tol then acc := (j, v, frac) :: !acc
    end
  done;
  !acc

(* Nearest-integer rounding probe: cheap primal heuristic applied to every
   fractional LP optimum.  Pure — the candidate is compared against the
   incumbent only during the sequential merge.  The point is rounded and
   checked in the worker's buffers and copied out only when feasible. *)
let rounding_candidate s ~worker (x : float array) =
  let sf = s.sf in
  let cand = s.wround.(worker) in
  for j = 0 to sf.Lp.Std_form.n_struct - 1 do
    cand.(j) <-
      (if sf.Lp.Std_form.integer.(j) then Float.round x.(j) else x.(j))
  done;
  if Lp.Std_form.is_feasible_point ~act:s.wact.(worker) sf cand then begin
    let cand = Array.copy cand in
    Some (cand, structural_objective sf cand)
  end
  else None

let accept_incumbent s (x : float array) obj =
  if obj < s.incumbent_obj -. 1e-12 then begin
    s.incumbent_obj <- obj;
    s.incumbent_x <- Some x;
    s.stats.Rstats.incumbents <- s.stats.Rstats.incumbents + 1;
    Log.debug (fun m -> m "new incumbent: internal obj %g" obj)
  end

let global_bound s pending_bound =
  let qmin = match Heap.peek_key s.queue with Some k -> k | None -> infinity in
  let smin =
    List.fold_left
      (fun acc n -> Float.min acc n.parent_bound)
      infinity s.plunge
  in
  Float.min (Float.min qmin smin) (Float.min pending_bound s.incumbent_obj)

exception Stop of status

let branch_var s (x : float array) =
  match fractional_vars s x with
  | [] -> None
  | fracs ->
    (* most fractional; ties by larger |objective coefficient| *)
    let score (j, _, frac) =
      let dist = Float.abs (frac -. 0.5) in
      (dist, -.Float.abs s.sf.Lp.Std_form.cost.(j))
    in
    let best =
      List.fold_left
        (fun best cand ->
          match best with
          | None -> Some cand
          | Some b -> if score cand < score b then Some cand else Some b)
        None fracs
    in
    (match best with Some (j, v, _) -> Some (j, v) | None -> None)

let prune_margin s = 1e-9 *. Float.max 1.0 (Float.abs s.incumbent_obj)

(* --- selection (sequential) -------------------------------------------- *)

let pop s =
  match s.plunge with
  | n :: rest ->
    s.plunge <- rest;
    Some n
  | [] -> (match Heap.pop s.queue with Some (_, n) -> Some n | None -> None)

(* Pops up to [k] nodes for this round.  All node accounting and limit
   checks live here, on the calling domain, against the shared budget —
   exactly as the sequential search did per node — so stop decisions never
   depend on worker scheduling.  Nodes whose inherited bound is already
   dominated by the incumbent are pruned without being dispatched (they
   still count as processed nodes). *)
let select_batch s k =
  let acc = ref [] in
  (try
     for _ = 1 to k do
       match pop s with
       | None -> raise Exit
       | Some node ->
         s.pending_bound <- Float.min s.pending_bound node.parent_bound;
         s.nodes <- s.nodes + 1;
         s.stats.Rstats.bb_nodes <- s.stats.Rstats.bb_nodes + 1;
         Budget.tick s.budget;
         if
           s.nodes > s.params.node_limit
           || Budget.nodes_exhausted s.budget s.nodes
         then raise (Stop Node_limit);
         if Budget.out_of_time s.budget then raise (Stop Time_limit);
         if node.parent_bound >= s.incumbent_obj -. prune_margin s then ()
         else acc := node :: !acc
     done
   with Exit -> ());
  Array.of_list (List.rev !acc)

(* --- evaluation (one node, any worker) --------------------------------- *)

(* Everything a worker may conclude about a node.  Decisions that touch
   shared search state (incumbent acceptance, pruning, pushing children)
   are *not* taken here — the worker only computes; the merge decides. *)
type eval =
  | Prop_infeasible  (* domain propagation proved the node empty *)
  | Lp_result of {
      status : Lp.Simplex.status;
      bound : float;  (* internal_objective *)
      x : float array;
      iterations : int;
      final_basis : Lp.Simplex.basis option;
      branch : (int * float) option;
      rounding : (float array * float) option;
    }

(* Deterministic per node: reads only immutable search fields (standard
   form, propagator, root bounds, params), bills work to a private budget
   fork and a private stats record, and — when warm-starting — installs
   the node's own parent basis rather than whatever the worker's session
   held.  Search-level counters (incumbents, bound updates) are left to
   the merge, which applies them in node-index order. *)
let eval_node s ~worker ~fork ~fstats ~fprof node =
  Option.iter (fun r -> Span.set_domain r worker) fprof;
  Span.with_ fprof fork "eval" @@ fun () ->
  let lb, ub = node_bounds s ~worker node in
  match
    if s.params.propagate then
      Propagate.run s.prop s.wprop.(worker) ~lb ~ub
    else Propagate.Tightened 0
  with
  | Propagate.Infeasible_node -> Prop_infeasible
  | Propagate.Tightened _ ->
    let r =
      match (s.params.warm_sessions, node.warm) with
      | true, Some wb ->
        Lp.Simplex.session_solve s.sessions.(worker) ~budget:fork
          ~stats:fstats ?prof:fprof ~warm:wb ~lb ~ub ()
      | _ ->
        (* Root node, a parent whose LP left no clean basis, or warm
           sessions disabled: a cold solve, itself a function of the
           bounds alone, in the worker's own session state. *)
        Lp.Simplex.session_cold_solve s.sessions.(worker) ~budget:fork
          ~stats:fstats ?prof:fprof ~lb ~ub ()
    in
    let branch =
      match r.Lp.Simplex.status with
      | Lp.Simplex.Optimal -> branch_var s r.Lp.Simplex.x
      | _ -> None
    in
    let rounding =
      match (r.Lp.Simplex.status, branch) with
      | Lp.Simplex.Optimal, Some _ ->
        rounding_candidate s ~worker r.Lp.Simplex.x
      | _ -> None
    in
    Lp_result
      {
        status = r.Lp.Simplex.status;
        bound = r.Lp.Simplex.internal_objective;
        x = r.Lp.Simplex.x;
        iterations = r.Lp.Simplex.iterations;
        final_basis = r.Lp.Simplex.final_basis;
        branch;
        rounding;
      }

(* --- merge (sequential, node-index order) ------------------------------ *)

let merge_decide s node = function
  | Prop_infeasible -> ()
  | Lp_result r -> (
    match r.status with
    | Lp.Simplex.Infeasible -> ()
    | Lp.Simplex.Unbounded ->
      (* With an unbounded relaxation no finite dual bound exists. *)
      raise (Stop Unbounded)
    | Lp.Simplex.Time_limit -> raise (Stop Time_limit)
    | Lp.Simplex.Iter_limit | Lp.Simplex.Numerical_failure ->
      raise (Stop Numerical_failure)
    | Lp.Simplex.Optimal ->
      let bound = r.bound in
      (* Re-prune: the incumbent may have improved since this node was
         selected (earlier nodes of this very batch included). *)
      if bound >= s.incumbent_obj -. prune_margin s then ()
      else begin
        match r.branch with
        | None ->
          (* integral LP optimum *)
          accept_incumbent s r.x bound
        | Some (j, v) ->
          (match r.rounding with
          | Some (cand, obj) -> accept_incumbent s cand obj
          | None -> ());
          let warm =
            match r.final_basis with Some _ as b -> b | None -> node.warm
          in
          let mk lo hi =
            {
              branches = (j, lo, hi) :: node.branches;
              depth = node.depth + 1;
              parent_bound = bound;
              warm;
            }
          in
          let down = mk neg_infinity (Float.of_int (int_of_float (Float.floor v)))
          and up = mk (Float.of_int (int_of_float (Float.ceil v))) infinity in
          (* Plunge towards the rounding of the fractional value; the
             sibling goes to the best-bound queue. *)
          let first, second =
            if v -. Float.floor v >= 0.5 then (up, down) else (down, up)
          in
          s.plunge <- first :: s.plunge;
          Heap.push s.queue ~key:bound second
      end)

let log_progress s =
  if s.params.log_every > 0 && s.nodes mod s.params.log_every = 0 then
    Log.info (fun m ->
        m "node %d | queue %d | incumbent %s | bound %g" s.nodes
          (Heap.size s.queue)
          (if s.incumbent_obj = infinity then "-"
           else Printf.sprintf "%g" s.incumbent_obj)
          (global_bound s s.pending_bound))

(* One synchronous round: select a batch, evaluate every node on the
   workers, merge in node-index order.  The merge always folds *all*
   per-node budgets and stats back first (phase A) — even when a limit or
   the gap test then stops the search mid-batch — so tick and counter
   totals are identical at every jobs level.  Only then are the search
   decisions replayed (phase B). *)
let batch_cap params = 8 * max 1 params.batch_size

let run_round s dispatch =
  let batch =
    Span.with_ s.prof s.budget "select" @@ fun () ->
    select_batch s s.round_batch
  in
  let n = Array.length batch in
  (* A round that filled (no queue exhaustion, no pruning slack) doubles
     the next round, so fork/merge and worker wake-up overhead amortizes
     on deep trees; a strong incumbent that prunes most selections keeps
     rounds small.  [n] is jobs-invariant, hence so is the growth. *)
  if n = s.round_batch then
    s.round_batch <- min (2 * s.round_batch) (batch_cap s.params);
  if n > 0 then begin
    let iter_rem =
      max 0 (Budget.iter_limit s.budget - s.stats.Rstats.simplex_iterations)
    in
    let forks =
      Array.map (fun _ -> Budget.fork ~iter_limit:iter_rem s.budget) batch
    in
    let fstats = Array.map (fun _ -> Rstats.create ()) batch in
    (* One child recorder per node, its timeline anchored at the fork's
       starting tick count; grafted back below in index order, so the
       profile is as jobs-invariant as the budget accounting. *)
    let fprofs =
      Array.map
        (fun fork ->
          match s.prof with
          | None -> None
          | Some _ -> Some (Span.create ~base:(Budget.ticks fork) ()))
        forks
    in
    let evals =
      dispatch
        (fun ~worker i ->
          eval_node s ~worker ~fork:forks.(i) ~fstats:fstats.(i)
            ~fprof:fprofs.(i) batch.(i))
        n
    in
    (* Phase A: jobs-invariant accounting, unconditionally for the whole
       batch, in index order. *)
    for i = 0 to n - 1 do
      (match (s.prof, fprofs.(i)) with
      | Some into, Some child ->
        Span.graft ~into ~at:(Budget.ticks s.budget) child
      | _ -> ());
      Budget.join ~into:s.budget forks.(i);
      Rstats.merge ~into:s.stats fstats.(i);
      s.lp_iters <-
        (s.lp_iters
        + match evals.(i) with Lp_result r -> r.iterations | Prop_infeasible -> 0)
    done;
    (* Phase B: decisions.  [suffix_min.(i)] is the best inherited bound
       among the not-yet-merged nodes i.., so a stop while merging node i
       still reports a bound that covers the discarded remainder. *)
    let suffix_min = Array.make (n + 1) infinity in
    for i = n - 1 downto 0 do
      suffix_min.(i) <- Float.min batch.(i).parent_bound suffix_min.(i + 1)
    done;
    Span.with_ s.prof s.budget "merge" @@ fun () ->
    for i = 0 to n - 1 do
      s.pending_bound <- suffix_min.(i);
      merge_decide s batch.(i) evals.(i);
      s.pending_bound <- suffix_min.(i + 1);
      log_progress s;
      let bound = global_bound s s.pending_bound in
      if bound > s.counted_bound +. 1e-12 && bound < infinity then begin
        s.counted_bound <- bound;
        s.stats.Rstats.bound_updates <- s.stats.Rstats.bound_updates + 1
      end;
      let gap =
        gap_of
          ~incumbent:
            (if s.incumbent_obj = infinity then None else Some s.incumbent_obj)
          ~bound
      in
      (* Gap-based early stop; the rest of the batch is discarded — a
         deterministic decision, since the merge order is fixed. *)
      if gap <= gap_tol then raise (Stop Optimal)
    done
  end

let solve_form ?(params = default_params) ?initial ?budget ?stats ?prof sf =
  let budget =
    match budget with
    | Some b -> b
    | None ->
      Budget.create ~time_limit:params.time_limit
        ~node_limit:params.node_limit ()
  in
  let stats = match stats with Some s -> s | None -> Rstats.create () in
  let n_total = Lp.Std_form.n_total sf in
  let jobs =
    let requested =
      if params.jobs <= 0 then Pool.recommended_jobs () else params.jobs
    in
    (* More workers than the largest (grown) batch can never be busy at
       once. *)
    max 1 (min requested (batch_cap params))
  in
  let prop = Propagate.prepare sf in
  let s =
    {
      sf;
      prop;
      sessions =
        Array.init jobs (fun _ ->
            Lp.Simplex.create_session ~params:params.lp_params sf);
      params;
      queue = Heap.create ();
      plunge = [];
      pending_bound = infinity;
      incumbent_x = None;
      incumbent_obj = infinity;
      nodes = 0;
      lp_iters = 0;
      budget;
      stats;
      prof;
      counted_bound = neg_infinity;
      root_lb = Array.sub sf.Lp.Std_form.lb 0 n_total;
      root_ub = Array.sub sf.Lp.Std_form.ub 0 n_total;
      wlb = Array.init jobs (fun _ -> Array.make n_total 0.0);
      wub = Array.init jobs (fun _ -> Array.make n_total 0.0);
      wprop = Array.init jobs (fun _ -> Propagate.scratch prop);
      wround = Array.init jobs (fun _ -> Array.make sf.Lp.Std_form.n_struct 0.0);
      wact = Array.init jobs (fun _ -> Array.make sf.Lp.Std_form.n_rows 0.0);
      round_batch = max 1 params.batch_size;
    }
  in
  (match initial with
  | Some x
    when Array.length x = sf.Lp.Std_form.n_struct
         && Lp.Std_form.is_feasible_point sf x
         && Array.for_all2
              (fun is_int v ->
                (not is_int) || Float.abs (v -. Float.round v) <= int_tol)
              sf.Lp.Std_form.integer x ->
    s.incumbent_obj <- structural_objective sf x;
    s.incumbent_x <- Some (Array.copy x);
    s.stats.Rstats.incumbents <- s.stats.Rstats.incumbents + 1;
    Log.info (fun m -> m "seeded incumbent: internal obj %g" s.incumbent_obj)
  | Some _ ->
    Log.warn (fun m -> m "seed incumbent rejected (infeasible or fractional)")
  | None -> ());
  Heap.push s.queue ~key:neg_infinity
    { branches = []; depth = 0; parent_bound = neg_infinity; warm = None };
  let search dispatch =
    let rec loop () =
      if s.plunge = [] && Heap.is_empty s.queue then
        if s.incumbent_x = None then Infeasible else Optimal
      else begin
        run_round s dispatch;
        loop ()
      end
    in
    try loop () with Stop st -> st
  in
  let status =
    if jobs = 1 then
      search (fun f n -> Array.init n (fun i -> f ~worker:0 i))
    else
      Pool.with_pool ~jobs (fun pool ->
          search (fun f n -> Pool.run pool f (Array.init n (fun i -> i))))
  in
  (* The search is over: the workers' solver states go to the next LP
     solved on this domain. *)
  Array.iter Lp.Simplex.session_release s.sessions;
  let internal_bound =
    match status with
    | Optimal -> if s.incumbent_obj = infinity then infinity else s.incumbent_obj
    | Infeasible -> infinity
    | Unbounded -> neg_infinity
    | Time_limit | Node_limit | Numerical_failure ->
      global_bound s s.pending_bound
  in
  let objective =
    match s.incumbent_x with
    | None -> None
    | Some _ -> Some (Lp.Std_form.user_objective sf s.incumbent_obj)
  in
  {
    status;
    incumbent = s.incumbent_x;
    objective;
    best_bound = Lp.Std_form.user_objective sf internal_bound;
    gap =
      gap_of
        ~incumbent:
          (if s.incumbent_obj = infinity then None else Some s.incumbent_obj)
        ~bound:internal_bound;
    nodes = s.nodes;
    lp_iterations = s.lp_iters;
    stats;
  }

let solve ?params ?initial ?budget ?stats ?prof m =
  solve_form ?params ?initial ?budget ?stats ?prof
    (Lp.Std_form.of_model m)
