type model_kind = Delta | Sigma | Csigma

let model_kind_to_string = function
  | Delta -> "delta"
  | Sigma -> "sigma"
  | Csigma -> "csigma"

type method_ = Exact | Greedy | Hybrid | Lp_only | Rounded

let method_to_string = function
  | Exact -> "exact"
  | Greedy -> "greedy"
  | Hybrid -> "hybrid"
  | Lp_only -> "lp_only"
  | Rounded -> "rounded"

let method_of_string = function
  | "exact" -> Some Exact
  | "greedy" -> Some Greedy
  | "hybrid" -> Some Hybrid
  | "lp_only" -> Some Lp_only
  | "rounded" -> Some Rounded
  | _ -> None

type flow_form = Arc | Path

let flow_form_to_string = function Arc -> "arc" | Path -> "path"

let flow_form_of_string = function
  | "arc" -> Some Arc
  | "path" -> Some Path
  | _ -> None

type status =
  | Optimal
  | Feasible
  | Infeasible
  | Unbounded
  | Budget_exhausted
  | Failed

let status_to_string = function
  | Optimal -> "optimal"
  | Feasible -> "feasible"
  | Infeasible -> "infeasible"
  | Unbounded -> "unbounded"
  | Budget_exhausted -> "budget_exhausted"
  | Failed -> "failed"

let status_of_string = function
  | "optimal" -> Some Optimal
  | "feasible" -> Some Feasible
  | "infeasible" -> Some Infeasible
  | "unbounded" -> Some Unbounded
  | "budget_exhausted" -> Some Budget_exhausted
  | "failed" -> Some Failed
  | _ -> None

module Budget = Runtime.Budget
module Rng = Workload.Rng
module Rstats = Runtime.Stats
module Span = Runtime.Span

module Options = struct
  type t = {
    method_ : method_;
    kind : model_kind;
    objective : Objective.t;
    use_cuts : bool;
    pairwise_cuts : bool;
    seed_with_greedy : bool;
    heavy_fraction : float;
    pinned : (int * float) list;
    forced : int list;
    flow_form : flow_form;
    colgen : Colgen_model.params;
    rounding : Rounding.params;
    mip : Mip.Branch_bound.params;
    budget : Runtime.Budget.t option;
    prof : Runtime.Span.recorder option;
  }

  let make ?(method_ = Exact) ?(kind = Csigma)
      ?(objective = Objective.Access_control) ?(use_cuts = true)
      ?(pairwise_cuts = true) ?(seed_with_greedy = false)
      ?(heavy_fraction = 0.3) ?(pinned = []) ?(forced = [])
      ?(flow_form = Arc)
      ?(colgen = Colgen_model.default_params)
      ?(rounding = Rounding.default_params)
      ?(mip = Mip.Branch_bound.default_params) ?budget ?prof () =
    if heavy_fraction < 0.0 || heavy_fraction > 1.0 then
      invalid_arg "Solver.Options.make: heavy_fraction outside [0, 1]";
    Rounding.check_params rounding;
    {
      method_;
      kind;
      objective;
      use_cuts;
      pairwise_cuts;
      seed_with_greedy;
      heavy_fraction;
      pinned;
      forced;
      flow_form;
      colgen;
      rounding;
      mip;
      budget;
      prof;
    }

  let default = make ()
  let with_budget budget o = { o with budget }
  let with_pinned pinned o = { o with pinned }
  let with_forced forced o = { o with forced }
end

type colgen_stats = {
  columns_generated : int;
  pricing_rounds : int;
  master_flow_columns : int;
  arc_flow_columns : int;
  colgen_converged : bool;
}

type outcome = {
  status : status;
  method_used : method_;
  mip_status : Mip.Branch_bound.status option;
  solution : Solution.t option;
  objective : float option;
  bound : float;
  gap : float;
  runtime : float;
  ticks : int;
  nodes : int;
  lp_iterations : int;
  model_vars : int;
  model_rows : int;
  hybrid : hybrid_detail option;
  colgen : colgen_stats option;
  stats : Runtime.Stats.t;
}

and hybrid_detail = { heavy : int list; heavy_outcome : outcome }

(* The outcome of a solve that produced nothing — also, verbatim, the
   outcome of one whose budget was already exhausted when [run] was
   entered (the admission service's fallback chain depends on that clean
   status).  Every method builds its outcome by updating this record;
   [run] stamps the runtime and ticks. *)
let blank method_used stats =
  {
    status = Budget_exhausted;
    method_used;
    mip_status = None;
    solution = None;
    objective = None;
    bound = nan;
    gap = infinity;
    runtime = 0.0;
    ticks = 0;
    nodes = 0;
    lp_iterations = 0;
    model_vars = 0;
    model_rows = 0;
    hybrid = None;
    colgen = None;
    stats;
  }

(* One budget per solve: either the caller's, or a private one derived
   from the MIP parameters.  Everything below — model build, greedy
   seeding, branch-and-bound including its node LPs — runs against this
   single clock, so [outcome.runtime] covers the whole solve. *)
let budget_of_options (o : Options.t) =
  match o.Options.budget with
  | Some b -> b
  | None ->
    Budget.create
      ~time_limit:o.Options.mip.Mip.Branch_bound.time_limit
      ~node_limit:o.Options.mip.Mip.Branch_bound.node_limit ()

let validate_pinned inst pinned =
  let k = Instance.num_requests inst in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (req, start) ->
      if req < 0 || req >= k then
        invalid_arg "Solver.run: pinned request out of range";
      if Hashtbl.mem seen req then
        invalid_arg "Solver.run: request pinned twice";
      Hashtbl.replace seen req ();
      let r = Instance.request inst req in
      if
        start < r.Request.start_min -. 1e-9
        || start +. r.Request.duration > r.Request.end_max +. 1e-9
      then
        invalid_arg
          (Printf.sprintf "Solver.run: pin of %s outside its window"
             r.Request.name))
    pinned

(* Forced requests fix acceptance ([x_R = 1]) while leaving the start
   time a decision variable — the pinned-start relaxation used by the
   service's reconfiguration rung.  A request cannot be both forced and
   pinned: the pin already implies acceptance. *)
let validate_forced inst pinned forced =
  let k = Instance.num_requests inst in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun req ->
      if req < 0 || req >= k then
        invalid_arg "Solver.run: forced request out of range";
      if Hashtbl.mem seen req then
        invalid_arg "Solver.run: request forced twice";
      Hashtbl.replace seen req ();
      if List.mem_assoc req pinned then
        invalid_arg "Solver.run: request both pinned and forced")
    forced

(* ------------------------------------------------------------------ *)
(* The relaxation handle                                              *)
(* ------------------------------------------------------------------ *)

(* What every LP-based method works over: the arc-flow formulation, or
   the path-form restricted master grown by column generation
   ({!Colgen_model}, the Mijumbi et al. path-generation master).  The
   functions below are the only places the two forms differ; the
   methods compose over them.  [converged] tracks whether pricing proved
   that no column can enter, across every generation pass so far. *)
type relaxation =
  | Arc_form of Formulation.t
  | Path_form of { cg : Colgen_model.t; mutable converged : bool }

let formulation = function
  | Arc_form fm -> fm
  | Path_form p -> Colgen_model.formulation p.cg

(* The one model build: the formulation (in path form, the restricted
   master inside a cΣ formulation), the objective, then the pins and
   forced acceptances.  Rows recorded for pricing keep their indices —
   objective and pin edits only append rows or touch bounds. *)
let build_relaxation ?budget inst (o : Options.t) =
  let csigma =
    {
      Csigma_model.use_cuts = o.Options.use_cuts;
      pairwise_cuts = o.Options.pairwise_cuts;
      relax_integrality = false;
    }
  in
  let prof = o.Options.prof in
  let r =
    match (o.Options.flow_form, o.Options.kind) with
    | Arc, Delta -> Arc_form (Delta_model.build inst)
    | Arc, Sigma -> Arc_form (Sigma_model.build inst)
    | Arc, Csigma ->
      Arc_form (Csigma_model.build ~options:csigma ?prof ?budget inst)
    | Path, Csigma ->
      let cg =
        Colgen_model.build ~options:csigma ~params:o.Options.colgen ?prof
          ?budget inst
      in
      Path_form { cg; converged = false }
    | Path, (Delta | Sigma) ->
      invalid_arg "Solver.run: flow_form Path requires the csigma model"
  in
  let fm = formulation r in
  let extras = Objective.apply fm o.Options.objective in
  let fix v x = Lp.Model.fix_var fm.Formulation.model v x in
  let accept req = fix fm.Formulation.embeddings.(req).Embedding.x_r 1.0 in
  (* Pinned requests: accepted, at exactly the given start.  The duration
     equality rows tie the end variable, and the event-mapping binaries
     are free to realize any ordering consistent with the fixed time. *)
  List.iter
    (fun (req, start) ->
      accept req;
      fix fm.Formulation.t_start.(req) start)
    o.Options.pinned;
  List.iter accept o.Options.forced;
  (r, extras)

let build ?budget inst (o : Options.t) =
  let r, extras =
    build_relaxation ?budget inst { o with Options.flow_form = Arc }
  in
  (formulation r, extras)

(* The build as a phase of its own. *)
let relax inst (o : Options.t) ~budget =
  Span.with_ o.Options.prof budget "build" @@ fun () ->
  fst (build_relaxation ~budget inst o)

let generate cg (o : Options.t) ~budget ~stats ?fixed () =
  Span.with_ o.Options.prof budget "colgen" @@ fun () ->
  Colgen_model.generate ~lp_params:o.Options.mip.Mip.Branch_bound.lp_params
    ~stats ?prof:o.Options.prof ?fixed ~budget cg

(* The root LP relaxation.  In path form that is the master after root
   column generation. *)
let root_lp r (o : Options.t) ~budget ~stats =
  match r with
  | Arc_form fm ->
    Lp.Simplex.solve_model ~budget ~stats ?prof:o.Options.prof
      fm.Formulation.model
  | Path_form p ->
    let gen = generate p.cg o ~budget ~stats () in
    p.converged <- gen.Colgen_model.converged;
    gen.Colgen_model.lp

(* The form branch-and-bound searches.  In path form root generation
   runs first, so every node inherits the root's columns. *)
let search_form r o ~budget ~stats =
  match r with
  | Arc_form fm -> Lp.Std_form.of_model fm.Formulation.model
  | Path_form p ->
    ignore (root_lp r o ~budget ~stats);
    Colgen_model.std_form p.cg

(* Branch-and-price-lite ([colgen.price_at_nodes], path form only):
   re-price against the incumbent-fixed master and return the enlarged
   form when new columns entered. *)
let reprice r (o : Options.t) ~budget ~stats x =
  match r with
  | Path_form p
    when o.Options.colgen.Colgen_model.price_at_nodes
         && Budget.remaining budget > 0.0 ->
    let gen = generate p.cg o ~budget ~stats ~fixed:x () in
    p.converged <- p.converged && gen.Colgen_model.converged;
    if gen.Colgen_model.generated = 0 then None else Some gen.Colgen_model.sf
  | _ -> None

(* Once no more generation runs over a path-form master, its solver state
   goes to the next LP this domain solves. *)
let release = function
  | Arc_form _ -> ()
  | Path_form p -> Colgen_model.release p.cg

(* Greedy seeding lifts the heuristic's per-arc flows into the model's
   variables; the path master's column space cannot express them. *)
let seed_lift = function
  | Arc_form fm -> Some fm.Formulation.lift
  | Path_form _ -> None

let extract r ~objective value_of =
  match r with
  | Arc_form fm -> Formulation.extract_solution fm ~objective value_of
  | Path_form p -> Colgen_model.extract_solution p.cg ~objective value_of

(* In path form the enlarged form, not the seed model: generated columns
   count. *)
let size = function
  | Arc_form fm ->
    (Lp.Model.num_vars fm.Formulation.model,
     Lp.Model.num_constrs fm.Formulation.model)
  | Path_form p ->
    let sf = Colgen_model.std_form p.cg in
    (sf.Lp.Std_form.n_struct, sf.Lp.Std_form.n_rows)

(* An unconverged restricted master under-estimates the full LP: its
   optimum is not a valid dual bound for the MIP. *)
let bound_valid = function Arc_form _ -> true | Path_form p -> p.converged

let colgen_stats = function
  | Arc_form _ -> None
  | Path_form p ->
    Some
      {
        columns_generated = Colgen_model.columns_generated p.cg;
        pricing_rounds = Colgen_model.pricing_rounds p.cg;
        master_flow_columns = Colgen_model.flow_columns p.cg;
        arc_flow_columns = Colgen_model.arc_flow_columns p.cg;
        colgen_converged = p.converged;
      }

(* An outcome carrying the relaxation's model size and colgen counters.
   Every method builds it once, after extracting its solution, so this is
   the last read of an arc-form model: its arrays go to the next model
   this domain builds. *)
let relaxed_outcome method_used r stats =
  let model_vars, model_rows = size r in
  (match r with
  | Arc_form fm -> Lp.Model.release fm.Formulation.model
  | Path_form _ -> ());
  { (blank method_used stats) with
    model_vars; model_rows; colgen = colgen_stats r }

(* ------------------------------------------------------------------ *)
(* Methods                                                            *)
(* ------------------------------------------------------------------ *)

let status_of_mip mip_status ~has_incumbent =
  match (mip_status : Mip.Branch_bound.status) with
  | Mip.Branch_bound.Optimal -> Optimal
  | Mip.Branch_bound.Infeasible -> Infeasible
  | Mip.Branch_bound.Unbounded -> Unbounded
  | Mip.Branch_bound.Time_limit | Mip.Branch_bound.Node_limit ->
    if has_incumbent then Feasible else Budget_exhausted
  | Mip.Branch_bound.Numerical_failure -> Failed

(* Build, optional greedy seeding, branch-and-bound.  In path form the
   search runs over the root-generated columns, and with
   [colgen.price_at_nodes] once more after re-pricing (seeded with the
   previous incumbent, zero-extended on the new columns — still
   feasible); the proved bound is then for the MIP over the generated
   columns. *)
let run_exact inst (o : Options.t) ~budget ~stats =
  let prof = o.Options.prof in
  let r = relax inst o ~budget in
  (* Optional greedy seeding (the combination the paper's conclusion
     proposes): lift the heuristic solution into this model's variables as
     the initial incumbent.  Only meaningful under access control; the MIP
     layer re-verifies the point before trusting it.  The heuristic runs
     on the shared budget, so its time counts against the deadline and
     shows up in both [outcome.runtime] and the ["greedy"] phase. *)
  let initial =
    match seed_lift r with
    | Some lift
      when o.Options.seed_with_greedy
           && o.Options.objective = Objective.Access_control
           && Instance.has_fixed_mappings inst -> (
      Span.with_ prof budget "greedy" @@ fun () ->
      match
        Greedy.run ~budget ~stats ?prof ~preplaced:o.Options.pinned inst
      with
      | greedy_sol, _ -> Some (lift greedy_sol)
      | exception Invalid_argument _ ->
        (* e.g. pinned set jointly infeasible for the heuristic — the MIP
           will discover infeasibility itself. *)
        None)
    | _ -> None
  in
  let search sf initial =
    Span.with_ prof budget "search" @@ fun () ->
    Mip.Branch_bound.solve_form ~params:o.Options.mip ?initial ~budget
      ~stats ?prof sf
  in
  let sf = search_form r o ~budget ~stats in
  (* Without node pricing the master is done before the search starts. *)
  if not o.Options.colgen.Colgen_model.price_at_nodes then release r;
  let result = search sf initial in
  let repriced =
    match result.Mip.Branch_bound.incumbent with
    | None -> None
    | Some x -> Option.map (fun sf -> (x, sf)) (reprice r o ~budget ~stats x)
  in
  release r;
  let result =
    match repriced with
    | None -> result
    | Some (x, sf) ->
      let pad = sf.Lp.Std_form.n_struct - Array.length x in
      search sf (Some (Array.append x (Array.make pad 0.0)))
  in
  let objective = result.Mip.Branch_bound.objective in
  let solution =
    Option.map
      (fun x ->
        extract r ~objective:(Option.value objective ~default:nan)
          (fun id -> x.(id)))
      result.Mip.Branch_bound.incumbent
  in
  {
    (relaxed_outcome Exact r stats) with
    status =
      status_of_mip result.Mip.Branch_bound.status
        ~has_incumbent:(solution <> None);
    mip_status = Some result.Mip.Branch_bound.status;
    solution;
    objective;
    bound = result.Mip.Branch_bound.best_bound;
    gap = result.Mip.Branch_bound.gap;
    nodes = result.Mip.Branch_bound.nodes;
    lp_iterations = result.Mip.Branch_bound.lp_iterations;
  }

(* The root LP relaxation.  [Optimal] only when its value is the full LP
   relaxation's: always in arc form, and in path form when generation
   converged — a round-cap/tailing-off exit yields the restricted
   master's optimum, reported as [Feasible]. *)
let run_lp_only inst (o : Options.t) ~budget ~stats =
  let r = relax inst o ~budget in
  let lp = root_lp r o ~budget ~stats in
  release r;
  let status, objective =
    match lp.Lp.Simplex.status with
    | Lp.Simplex.Optimal ->
      ( (if bound_valid r then Optimal else Feasible),
        Some lp.Lp.Simplex.objective )
    | Lp.Simplex.Infeasible -> (Infeasible, None)
    | Lp.Simplex.Unbounded -> (Unbounded, None)
    | Lp.Simplex.Iter_limit | Lp.Simplex.Time_limit -> (Budget_exhausted, None)
    | Lp.Simplex.Numerical_failure -> (Failed, None)
  in
  {
    (relaxed_outcome Lp_only r stats) with
    status;
    objective;
    bound = Option.value objective ~default:nan;
    gap = (if status = Optimal then 0.0 else infinity);
    lp_iterations = stats.Rstats.simplex_iterations;
  }

(* The heuristic proves no bound; [Feasible] unless the clock died
   mid-scan (a partial scan may have skipped admissible requests). *)
let heuristic_status budget =
  if Budget.remaining budget <= 0.0 then Budget_exhausted else Feasible

let run_greedy inst (o : Options.t) ~budget ~stats =
  if not (Instance.has_fixed_mappings inst) then
    invalid_arg "Solver.run: Greedy requires fixed node mappings";
  if o.Options.forced <> [] then
    invalid_arg "Solver.run: forced requests are not supported with Greedy";
  let prof = o.Options.prof in
  let solution, _ =
    Span.with_ prof budget "greedy" @@ fun () ->
    Greedy.run ~budget ~stats ?prof ~preplaced:o.Options.pinned inst
  in
  {
    (blank Greedy stats) with
    status = heuristic_status budget;
    solution = Some solution;
    objective = Some solution.Solution.objective;
    lp_iterations = stats.Rstats.simplex_iterations;
  }

(* --- randomized rounding (Rost–Schmid approximation line) ----------- *)

(* Solve the cΣ LP relaxation (arc form, or the path-form restricted
   master when [flow_form = Path]), decompose the fractional point into a
   convex combination of integral (accept, start) candidates per request
   ({!Rounding.decompose}), and round with bounded validator-checked
   repair: each draw is realized by the greedy with the drawn starts
   pre-placed (the greedy's feasibility LPs are the validity check — an
   infeasible draw raises and is re-drawn).  On repair exhaustion, or an
   LP that produced no usable fractional point, the solve falls through
   to plain greedy so the caller always gets the heuristic's quality as
   a floor.  The LP optimum is a valid dual bound for the MIP (arc form,
   or a converged path master), so the outcome reports a genuine gap —
   unlike [Greedy], which proves nothing. *)
let run_rounded inst (o : Options.t) ~budget ~stats =
  if not (Instance.has_fixed_mappings inst) then
    invalid_arg "Solver.run: Rounded requires fixed node mappings";
  if o.Options.forced <> [] then
    invalid_arg "Solver.run: forced requests are not supported with Rounded";
  let prof = o.Options.prof in
  let params = o.Options.rounding in
  (* Phase 1: the LP relaxation.  The model is built with integrality
     marks (warm-path sharing with the exact solve), which the simplex
     ignores — exactly how [Lp_only] obtains the relaxation. *)
  let r, lp =
    Span.with_ prof budget "lp_relax" @@ fun () ->
    let r = relax inst o ~budget in
    let lp = root_lp r o ~budget ~stats in
    release r;
    (r, lp)
  in
  let finish ~status ~bound solution =
    {
      (relaxed_outcome Rounded r stats) with
      status;
      solution;
      objective = Option.map (fun s -> s.Solution.objective) solution;
      bound;
      gap =
        (match solution with
        | Some s when Float.is_finite bound ->
          let diff = Float.abs (bound -. s.Solution.objective) in
          if diff <= 1e-12 then 0.0
          else diff /. Float.max 1e-10 (Float.abs s.Solution.objective)
        | _ -> infinity);
      lp_iterations = stats.Rstats.simplex_iterations;
    }
  in
  (* Plain greedy, no rounding guidance: the exhaustion fall-through. *)
  let greedy_fallback ~bound () =
    stats.Rstats.rounding_fallbacks <- stats.Rstats.rounding_fallbacks + 1;
    match
      Span.with_ prof budget "greedy" @@ fun () ->
      Greedy.run ~budget ~stats ?prof ~preplaced:o.Options.pinned inst
    with
    | solution, _ ->
      finish ~status:(heuristic_status budget) ~bound (Some solution)
    | exception Invalid_argument _ ->
      (* Pinned set jointly infeasible for the heuristic (possible when
         the clock died under its feasibility LPs). *)
      finish
        ~status:
          (if Budget.remaining budget <= 0.0 then Budget_exhausted else Failed)
        ~bound None
  in
  match lp.Lp.Simplex.status with
  | Lp.Simplex.Infeasible ->
    (* The relaxation is infeasible, hence so is the MIP: a proven
       denial, reported as such so the service chain can stop here. *)
    finish ~status:Infeasible ~bound:nan None
  | Lp.Simplex.Unbounded -> finish ~status:Unbounded ~bound:nan None
  | Lp.Simplex.Iter_limit | Lp.Simplex.Time_limit
  | Lp.Simplex.Numerical_failure ->
    (* No usable fractional point; degrade to the heuristic on whatever
       remains of the clock. *)
    if Budget.remaining budget <= 0.0 then
      finish ~status:Budget_exhausted ~bound:nan None
    else greedy_fallback ~bound:nan ()
  | Lp.Simplex.Optimal ->
    let bound = if bound_valid r then lp.Lp.Simplex.objective else nan in
    (* Phase 2: read the convex combination off the fractional point. *)
    let decomp =
      Span.with_ prof budget "decompose" @@ fun () ->
      let skip r = List.mem_assoc r o.Options.pinned in
      Rounding.decompose ~eps:params.Rounding.eps ~skip inst (formulation r)
        ~value:(fun id -> lp.Lp.Simplex.x.(id))
    in
    stats.Rstats.rounding_candidates <-
      stats.Rstats.rounding_candidates + Rounding.num_candidates decomp;
    (* Phases 3 and 4: draw and realize, then bounded repair.  The
       realization is the greedy with the drawn starts pre-placed: its
       feasibility LPs are the validity check, and the remaining
       requests are completed greedily (they can only add revenue). *)
    let rng = Rng.create params.Rounding.seed in
    let realize chosen =
      if Budget.remaining budget <= 0.0 then None
      else
        match
          Greedy.run ~budget ~stats ?prof
            ~preplaced:(o.Options.pinned @ chosen) inst
        with
        | solution, _ -> Some solution
        | exception Invalid_argument _ -> None
    in
    let rounded =
      match
        Span.with_ prof budget "round" @@ fun () ->
        Rounding.round ~rng ~max_repairs:0 ~stats decomp ~realize
      with
      | Some _ as first -> first
      | None when params.Rounding.max_repairs = 0 -> None
      | None ->
        (* The first retry is a repair too; [Rounding.round] only counts
           the retries between its own attempts. *)
        stats.Rstats.rounding_repairs <- stats.Rstats.rounding_repairs + 1;
        Span.with_ prof budget "repair" @@ fun () ->
        Rounding.round ~rng
          ~max_repairs:(params.Rounding.max_repairs - 1)
          ~stats decomp ~realize
    in
    (match rounded with
    | Some solution ->
      finish ~status:(heuristic_status budget) ~bound (Some solution)
    | None ->
      if Budget.remaining budget <= 0.0 then
        finish ~status:Budget_exhausted ~bound None
      else greedy_fallback ~bound ())

let revenue inst req =
  let r = Instance.request inst req in
  r.Request.duration *. Request.total_node_demand r

let rec run inst (o : Options.t) =
  validate_pinned inst o.Options.pinned;
  validate_forced inst o.Options.pinned o.Options.forced;
  let budget = budget_of_options o in
  let stats = Rstats.create () in
  let ticks0 = Budget.ticks budget in
  let t0 = Budget.elapsed budget in
  (* A dead budget cannot pay for a model build, let alone a search:
     return the clean exhaustion outcome the fallback chain expects. *)
  if Budget.remaining budget <= 0.0 then blank o.Options.method_ stats
  else
    (* The root span opens at the same point [ticks0] was read, so its
       width is exactly [outcome.ticks] — which makes the phase tree's
       self-tick total equal the solve's total work ticks. *)
    let outcome =
      Span.with_ o.Options.prof budget "solve" @@ fun () ->
      match o.Options.method_ with
      | Exact -> run_exact inst o ~budget ~stats
      | Lp_only -> run_lp_only inst o ~budget ~stats
      | Greedy -> run_greedy inst o ~budget ~stats
      | Rounded -> run_rounded inst o ~budget ~stats
      | Hybrid -> run_hybrid inst o ~budget ~stats
    in
    (* One-clock accounting: the elapsed delta on the shared budget
       covers every phase — build, seeding, search, a hybrid's two
       passes — never a sum of independent spans. *)
    {
      outcome with
      runtime = Budget.elapsed budget -. t0;
      ticks = Budget.ticks budget - ticks0;
    }

(* The heavy-hitter split of the paper's conclusion: rank requests by
   revenue (duration × total node demand), solve the top fraction exactly
   on a nested sub-budget, then admit the rest greedily around the fixed
   heavy schedule, re-optimizing all link flows jointly. *)
and run_hybrid inst (o : Options.t) ~budget ~stats =
  if not (Instance.has_fixed_mappings inst) then
    invalid_arg "Solver.run: Hybrid requires fixed node mappings";
  if o.Options.pinned <> [] then
    invalid_arg "Solver.run: pinned requests are not supported with Hybrid";
  if o.Options.forced <> [] then
    invalid_arg "Solver.run: forced requests are not supported with Hybrid";
  let k = Instance.num_requests inst in
  let by_revenue =
    List.sort
      (fun a b -> compare (revenue inst b, a) (revenue inst a, b))
      (List.init k (fun i -> i))
  in
  let n_heavy =
    min k
      (int_of_float
         (Float.round (o.Options.heavy_fraction *. float_of_int k)))
  in
  let heavy = List.filteri (fun i _ -> i < n_heavy) by_revenue in
  let heavy = List.sort compare heavy in
  let heavy_requests =
    Array.of_list (List.map (Instance.request inst) heavy)
  in
  let heavy_mappings =
    Array.of_list
      (List.map (fun i -> Option.get (Instance.node_mapping inst i)) heavy)
  in
  let heavy_outcome =
    if heavy = [] then
      (* Nothing heavy: a degenerate, trivially-optimal outcome. *)
      {
        (blank Exact (Rstats.create ())) with
        status = Optimal;
        mip_status = Some Mip.Branch_bound.Optimal;
        objective = Some 0.0;
        bound = 0.0;
        gap = 0.0;
      }
    else
      (* The exact pass gets [mip.time_limit] of whatever remains on the
         shared clock — a nested budget, so both the inner deadline and
         the overall one are honoured. *)
      run
        (Instance.with_requests inst heavy_requests
           ~node_mappings:heavy_mappings ())
        (Options.make ~method_:Exact ~kind:o.Options.kind
           ~use_cuts:o.Options.use_cuts ~pairwise_cuts:o.Options.pairwise_cuts
           ~flow_form:o.Options.flow_form ~colgen:o.Options.colgen
           ~mip:o.Options.mip
           ~budget:
             (Budget.sub ~time_limit:o.Options.mip.Mip.Branch_bound.time_limit
                budget)
           ?prof:o.Options.prof ())
  in
  Rstats.merge ~into:stats heavy_outcome.stats;
  (* Fix the schedules the exact pass chose.  Heavy requests it rejected
     get a second chance in the greedy scan — they can only add revenue. *)
  let preplaced =
    match heavy_outcome.solution with
    | None -> []
    | Some sol ->
      List.mapi (fun pos req -> (pos, req)) heavy
      |> List.filter_map (fun (pos, req) ->
             let a = sol.Solution.assignments.(pos) in
             if a.Solution.accepted then Some (req, a.Solution.t_start)
             else None)
  in
  let solution, _ =
    Span.with_ o.Options.prof budget "greedy" @@ fun () ->
    Greedy.run ~budget ~stats ?prof:o.Options.prof ~preplaced inst
  in
  {
    (blank Hybrid stats) with
    status = heuristic_status budget;
    mip_status = heavy_outcome.mip_status;
    solution = Some solution;
    objective = Some solution.Solution.objective;
    nodes = heavy_outcome.nodes;
    lp_iterations = stats.Rstats.simplex_iterations;
    model_vars = heavy_outcome.model_vars;
    model_rows = heavy_outcome.model_rows;
    hybrid = Some { heavy; heavy_outcome };
    colgen = heavy_outcome.colgen;
  }

(* ------------------------------------------------------------------ *)
(* Versioned JSON encoding                                            *)
(* ------------------------------------------------------------------ *)

module Json = Statsutil.Json

let schema_version = 1

let ( let* ) = Result.bind

let float_field name doc =
  let* v = Json.field name doc in
  Result.map_error (fun e -> name ^ ": " ^ e) (Json.to_float_exact v)

let int_field name doc =
  let* v = Json.field name doc in
  Result.map_error (fun e -> name ^ ": " ^ e) (Json.to_int v)

let assignment_to_json (a : Solution.assignment) =
  Json.Obj
    [
      ("accepted", Json.Bool a.Solution.accepted);
      ( "node_map",
        Json.List
          (Array.to_list
             (Array.map (fun v -> Json.Num (float_of_int v)) a.Solution.node_map))
      );
      ( "link_flows",
        Json.List
          (Array.to_list
             (Array.map
                (fun flows ->
                  Json.List
                    (List.map
                       (fun (edge, flow) ->
                         Json.List
                           [
                             Json.Num (float_of_int edge);
                             Json.of_float_exact flow;
                           ])
                       flows))
                a.Solution.link_flows)) );
      ("t_start", Json.of_float_exact a.Solution.t_start);
      ("t_end", Json.of_float_exact a.Solution.t_end);
    ]

let assignment_of_json doc =
  let* accepted =
    match Json.member "accepted" doc with
    | Some (Json.Bool b) -> Ok b
    | _ -> Error "assignment: missing boolean \"accepted\""
  in
  let* node_map =
    match Option.bind (Json.member "node_map" doc) Json.to_list with
    | Some l ->
      let* ids =
        List.fold_right
          (fun v acc ->
            let* acc = acc in
            let* n = Json.to_int v in
            Ok (n :: acc))
          l (Ok [])
      in
      Ok (Array.of_list ids)
    | None -> Error "assignment: missing \"node_map\""
  in
  let* link_flows =
    match
      Option.bind (Json.member "link_flows" doc) Json.to_list
    with
    | Some l ->
      let* flows =
        List.fold_right
          (fun per_link acc ->
            let* acc = acc in
            match Json.to_list per_link with
            | None -> Error "assignment: link flow list expected"
            | Some pairs ->
              let* pairs =
                List.fold_right
                  (fun p acc ->
                    let* acc = acc in
                    match Json.to_list p with
                    | Some [ e; f ] ->
                      let* e = Json.to_int e in
                      let* f = Json.to_float_exact f in
                      Ok ((e, f) :: acc)
                    | _ -> Error "assignment: flow pair expected")
                  pairs (Ok [])
              in
              Ok (pairs :: acc))
          l (Ok [])
      in
      Ok (Array.of_list flows)
    | None -> Error "assignment: missing \"link_flows\""
  in
  let* t_start = float_field "t_start" doc in
  let* t_end = float_field "t_end" doc in
  Ok { Solution.accepted; node_map; link_flows; t_start; t_end }

let solution_to_json (sol : Solution.t) =
  Json.Obj
    [
      ("objective", Json.of_float_exact sol.Solution.objective);
      ( "assignments",
        Json.List
          (Array.to_list (Array.map assignment_to_json sol.Solution.assignments))
      );
    ]

let solution_of_json doc =
  let* objective = float_field "objective" doc in
  match
    Option.bind (Json.member "assignments" doc) Json.to_list
  with
  | None -> Error "solution: missing \"assignments\""
  | Some l ->
    let* assignments =
      List.fold_right
        (fun a acc ->
          let* acc = acc in
          let* a = assignment_of_json a in
          Ok (a :: acc))
        l (Ok [])
    in
    Ok { Solution.assignments = Array.of_list assignments; objective }

let mip_status_of_string = function
  | "optimal" -> Some Mip.Branch_bound.Optimal
  | "infeasible" -> Some Mip.Branch_bound.Infeasible
  | "unbounded" -> Some Mip.Branch_bound.Unbounded
  | "time limit" -> Some Mip.Branch_bound.Time_limit
  | "node limit" -> Some Mip.Branch_bound.Node_limit
  | "numerical failure" -> Some Mip.Branch_bound.Numerical_failure
  | _ -> None

let rec outcome_to_json o =
  Json.Obj
    [
      ("schema", Json.Str "tvnep-outcome/1");
      ("schema_version", Json.Num (float_of_int schema_version));
      ("status", Json.Str (status_to_string o.status));
      ("method", Json.Str (method_to_string o.method_used));
      ( "mip_status",
        match o.mip_status with
        | Some s -> Json.Str (Mip.Branch_bound.status_to_string s)
        | None -> Json.Null );
      ( "objective",
        match o.objective with
        | Some v -> Json.of_float_exact v
        | None -> Json.Null );
      ("bound", Json.of_float_exact o.bound);
      ("gap", Json.of_float_exact o.gap);
      ("runtime", Json.of_float_exact o.runtime);
      ("ticks", Json.Num (float_of_int o.ticks));
      ("nodes", Json.Num (float_of_int o.nodes));
      ("lp_iterations", Json.Num (float_of_int o.lp_iterations));
      ("model_vars", Json.Num (float_of_int o.model_vars));
      ("model_rows", Json.Num (float_of_int o.model_rows));
      ( "solution",
        match o.solution with
        | Some sol -> solution_to_json sol
        | None -> Json.Null );
      ( "hybrid",
        match o.hybrid with
        | None -> Json.Null
        | Some h ->
          Json.Obj
            [
              ( "heavy",
                Json.List
                  (List.map (fun i -> Json.Num (float_of_int i)) h.heavy) );
              ("heavy_outcome", outcome_to_json h.heavy_outcome);
            ] );
      (* Added without a schema bump: decoders treat absence (old
         documents) and [null] (arc-form solves) identically. *)
      ( "colgen",
        match o.colgen with
        | None -> Json.Null
        | Some c ->
          Json.Obj
            [
              ( "columns_generated",
                Json.Num (float_of_int c.columns_generated) );
              ("pricing_rounds", Json.Num (float_of_int c.pricing_rounds));
              ( "master_flow_columns",
                Json.Num (float_of_int c.master_flow_columns) );
              ( "arc_flow_columns",
                Json.Num (float_of_int c.arc_flow_columns) );
              ("converged", Json.Bool c.colgen_converged);
            ] );
      ("stats", Rstats.to_json o.stats);
    ]

let rec outcome_of_json doc =
  let* version = int_field "schema_version" doc in
  if version <> schema_version then
    Error (Printf.sprintf "unsupported schema_version %d" version)
  else
    let* status =
      match Json.member "status" doc with
      | Some (Json.Str s) -> (
        match status_of_string s with
        | Some st -> Ok st
        | None -> Error (Printf.sprintf "unknown status %S" s))
      | _ -> Error "missing \"status\""
    in
    let* method_used =
      match Json.member "method" doc with
      | Some (Json.Str s) -> (
        match method_of_string s with
        | Some m -> Ok m
        | None -> Error (Printf.sprintf "unknown method %S" s))
      | _ -> Error "missing \"method\""
    in
    let* mip_status =
      match Json.member "mip_status" doc with
      | None | Some Json.Null -> Ok None
      | Some (Json.Str s) -> (
        match mip_status_of_string s with
        | Some st -> Ok (Some st)
        | None -> Error (Printf.sprintf "unknown mip_status %S" s))
      | Some _ -> Error "mip_status: expected a string or null"
    in
    let* objective =
      match Json.member "objective" doc with
      | None | Some Json.Null -> Ok None
      | Some v -> Result.map Option.some (Json.to_float_exact v)
    in
    let* solution =
      match Json.member "solution" doc with
      | None | Some Json.Null -> Ok None
      | Some v -> Result.map Option.some (solution_of_json v)
    in
    let* hybrid =
      match Json.member "hybrid" doc with
      | None | Some Json.Null -> Ok None
      | Some h ->
        let* heavy =
          match Option.bind (Json.member "heavy" h) Json.to_list with
          | None -> Error "hybrid: missing \"heavy\""
          | Some l ->
            List.fold_right
              (fun v acc ->
                let* acc = acc in
                let* n = Json.to_int v in
                Ok (n :: acc))
              l (Ok [])
        in
        let* heavy_outcome =
          match Json.member "heavy_outcome" h with
          | None -> Error "hybrid: missing \"heavy_outcome\""
          | Some v -> outcome_of_json v
        in
        Ok (Some { heavy; heavy_outcome })
    in
    let* colgen =
      match Json.member "colgen" doc with
      (* Absent in pre-colgen documents — same schema version, so both
         forms must decode. *)
      | None | Some Json.Null -> Ok None
      | Some c ->
        let* columns_generated = int_field "columns_generated" c in
        let* pricing_rounds = int_field "pricing_rounds" c in
        let* master_flow_columns = int_field "master_flow_columns" c in
        let* arc_flow_columns = int_field "arc_flow_columns" c in
        let* colgen_converged =
          match Json.member "converged" c with
          | Some (Json.Bool b) -> Ok b
          | _ -> Error "colgen: missing boolean \"converged\""
        in
        Ok
          (Some
             {
               columns_generated;
               pricing_rounds;
               master_flow_columns;
               arc_flow_columns;
               colgen_converged;
             })
    in
    let* stats =
      match Json.member "stats" doc with
      | None -> Ok (Rstats.create ())
      | Some v -> Rstats.of_json v
    in
    let* bound = float_field "bound" doc in
    let* gap = float_field "gap" doc in
    let* runtime = float_field "runtime" doc in
    let* ticks = int_field "ticks" doc in
    let* nodes = int_field "nodes" doc in
    let* lp_iterations = int_field "lp_iterations" doc in
    let* model_vars = int_field "model_vars" doc in
    let* model_rows = int_field "model_rows" doc in
    Ok
      {
        status;
        method_used;
        mip_status;
        solution;
        objective;
        bound;
        gap;
        runtime;
        ticks;
        nodes;
        lp_iterations;
        model_vars;
        model_rows;
        hybrid;
        colgen;
        stats;
      }
