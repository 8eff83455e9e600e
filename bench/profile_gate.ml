(* Profiling smoke gate: the contended cΣ solve of the branch-and-bound
   benchmark, run with a span recorder attached, at jobs = 1 and 4, then
   the path-form root LP of the column-generation benchmark through the
   same checks plus a check of its generation loop's phase shape.

   The run *fails* (exit 1) when any part of the observability contract
   breaks:

   - profiling perturbs the solve: the profiled run must return the same
     (status, objective, nodes, LP iterations, ticks) as an unprofiled
     one;
   - the recorder is unbalanced or spans do not nest (a child interval
     escaping its parent's);
   - the accounting identity fails: per-phase self ticks must sum to
     exactly the solve's total work ticks, at every jobs level;
   - the exports break: the Chrome trace document must round-trip
     through the JSON parser, and the JSONL export must be one valid
     document per line;
   - the exported spans differ across jobs levels once the worker-domain
     tag (the one legitimately scheduling-dependent field) is zeroed. *)

module Span = Runtime.Span

let jobs_levels = [ 1; 4 ]

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("PROFILE GATE: " ^ msg);
      exit 1)
    fmt

(* One solve: its work fingerprint (status, objective, ticks; nodes, LP
   iterations and generated columns as counters) and its spans. *)
type run = {
  jobs : int;
  work : Record.t;
  spans : Span.span list;
  tree : Span.tree list;
}

(* A gated solve: the instance, the method, and the checks on each
   profiled run beyond the shared ones.  [what] prefixes its failure
   messages ("" or "colgen "). *)
type pass = {
  title : string;
  what : string;
  instance : unit -> Tvnep.Instance.t;
  options :
    mip:Mip.Branch_bound.params ->
    budget:Runtime.Budget.t ->
    prof:Span.recorder option ->
    Tvnep.Solver.Options.t;
  check : run -> unit;
  summary : run -> string;
}

let solve pass inst ~time_limit ~profiled jobs =
  let mip =
    { Mip.Branch_bound.default_params with time_limit; jobs; log_every = 0 }
  in
  let budget =
    Runtime.Budget.create ~deterministic:Figures.work_rate ~time_limit ()
  in
  let prof = if profiled then Some (Span.create ()) else None in
  let o = Tvnep.Solver.run inst (pass.options ~mip ~budget ~prof) in
  let spans =
    match prof with
    | None -> []
    | Some r ->
      if Span.open_spans r <> 0 then
        fail "%srecorder left %d open span(s) at jobs=%d" pass.what
          (Span.open_spans r) jobs;
      Span.spans r
  in
  let count n = float_of_int n in
  {
    jobs;
    work =
      {
        Record.label = Printf.sprintf "jobs=%d" jobs;
        status = Tvnep.Solver.status_to_string o.Tvnep.Solver.status;
        objective = Option.value o.Tvnep.Solver.objective ~default:Float.nan;
        ticks = o.Tvnep.Solver.ticks;
        wall_s = Float.nan;
        minor_words = Float.nan;
        counters =
          [
            ("nodes", count o.Tvnep.Solver.nodes);
            ("lp_iterations", count o.Tvnep.Solver.lp_iterations);
            ( "columns_generated",
              count
                (match o.Tvnep.Solver.colgen with
                | Some c -> c.Tvnep.Solver.columns_generated
                | None -> 0) );
          ];
        detail = None;
      };
    spans;
    tree = Span.tree_of spans;
  }

(* Every span's interval must lie inside its parent's.  Spans come in
   [seq] order (parents precede children), so the innermost open ancestor
   of a span is the latest preceding span of smaller depth. *)
let check_nesting spans =
  let stack : (int * int * int) list ref = ref [] in
  List.for_all
    (fun (s : Span.span) ->
      while
        match !stack with (d, _, _) :: _ -> d >= s.Span.depth | [] -> false
      do
        stack := List.tl !stack
      done;
      let ok =
        s.Span.t0 <= s.Span.t1
        &&
        match !stack with
        | (_, pt0, pt1) :: _ -> pt0 <= s.Span.t0 && s.Span.t1 <= pt1
        | [] -> true
      in
      stack := (s.Span.depth, s.Span.t0, s.Span.t1) :: !stack;
      ok)
    spans

(* The exported span stream with the worker-domain tag zeroed — the only
   field allowed to vary with scheduling. *)
let domainless spans =
  List.map (fun (s : Span.span) -> { s with Span.domain = 0 }) spans

let check_exports ~jobs spans =
  let chrome = Statsutil.Json.to_string (Span.to_chrome spans) in
  (match Statsutil.Json.of_string chrome with
  | Ok _ -> ()
  | Error msg ->
    fail "jobs=%d Chrome trace does not parse back: %s" jobs msg);
  List.iteri
    (fun i line ->
      if line <> "" then
        match Statsutil.Json.of_string line with
        | Ok _ -> ()
        | Error msg ->
          fail "jobs=%d JSONL line %d does not parse: %s" jobs (i + 1) msg)
    (String.split_on_char '\n' (Span.to_jsonl spans))

(* The whole contract for one pass: an unprofiled baseline at jobs 1,
   then a profiled solve per jobs level. *)
let gate ~time_limit pass =
  Printf.printf "\n== %s ==\n" pass.title;
  let solve = solve pass (pass.instance ()) ~time_limit in
  let baseline = solve ~profiled:false 1 in
  let runs = List.map (solve ~profiled:true) jobs_levels in
  let base = List.hd runs in
  (* Zero perturbation: profiling must not change the solve. *)
  if not (Record.same_work base.work baseline.work) then
    fail "profiling perturbed the %ssolve — unprofiled (%s) vs profiled (%s)"
      pass.what
      (Record.to_string baseline.work)
      (Record.to_string base.work);
  List.iter
    (fun r ->
      if not (Record.same_work r.work base.work) then
        fail "jobs=%d %ssolve differs from jobs=%d" r.jobs pass.what base.jobs;
      if not (check_nesting r.spans) then
        fail
          "jobs=%d %sspans do not nest (a child interval escapes its parent)"
          r.jobs pass.what;
      let self = Span.sum_self r.tree in
      if self <> r.work.Record.ticks then
        fail
          "jobs=%d %sper-phase self ticks (%d) do not sum to the solve's work \
           ticks (%d)"
          r.jobs pass.what self r.work.Record.ticks;
      pass.check r;
      check_exports ~jobs:r.jobs r.spans;
      (* Jobs invariance of the exported stream, domain tags aside. *)
      if
        Span.to_jsonl (domainless r.spans)
        <> Span.to_jsonl (domainless base.spans)
      then
        fail "jobs=%d %sexported spans differ from jobs=%d (domains zeroed)"
          r.jobs pass.what base.jobs)
    runs;
  print_endline (pass.summary base);
  print_string (Span.render_tree ~rate:Figures.work_rate base.tree)

(* The contended cΣ solve of the branch-and-bound gate: a real search
   tree, several rounds of node batches, so grafted per-node recorders
   and the merged timeline are actually exercised. *)
let exact_pass =
  {
    title = "Profiling smoke gate (contended c\xce\xa3 solve)";
    what = "";
    instance = Bnb.bench_instance;
    options =
      (fun ~mip ~budget ~prof ->
        Tvnep.Solver.Options.make ~method_:Tvnep.Solver.Exact ~mip ~budget
          ?prof ());
    check = ignore;
    summary =
      (fun r ->
        Printf.sprintf
          "profile gate: %d spans, %d ticks attributed (= solve ticks), \
           nesting ok, exports parse, jobs levels identical"
          (List.length r.spans) (Span.sum_self r.tree));
  }

(* --- column-generation profiling pass ------------------------------- *)

let rec find_tree name = function
  | [] -> None
  | (t : Span.tree) :: rest ->
    if t.Span.tree_name = name then Some t
    else (
      match find_tree name t.Span.children with
      | Some _ as hit -> hit
      | None -> find_tree name rest)

let generated r = int_of_float (Record.counter r.work "columns_generated")

(* The generation loop's phase shape: a "colgen" phase holding "master"
   and "price" leaves (every round solves then prices) and — whenever
   columns actually entered — "add_col" splices, with one call per
   round-level occurrence telescoping into the aggregated tree. *)
let check_colgen_tree r =
  let jobs = r.jobs in
  (* The instance is chosen to force pricing; silently passing with an
     idle loop would gate nothing. *)
  if generated r = 0 then fail "colgen pass generated no columns";
  match find_tree "colgen" r.tree with
  | None -> fail "jobs=%d has no \"colgen\" phase" jobs
  | Some cg ->
    let need name =
      match find_tree name cg.Span.children with
      | Some t -> t
      | None -> fail "jobs=%d \"colgen\" phase lacks a %S leaf" jobs name
    in
    let master = need "master" and price = need "price" in
    (* One master solve and one pricing sweep per round, plus the
       convergence round's final solve/sweep; splices happen on the
       non-final rounds only. *)
    let add_col = need "add_col" in
    if add_col.Span.calls >= master.Span.calls then
      fail "jobs=%d add_col ran %d times >= %d master solves" jobs
        add_col.Span.calls master.Span.calls;
    if price.Span.calls <> master.Span.calls then
      fail
        "jobs=%d %d pricing sweeps do not telescope with %d master solves"
        jobs price.Span.calls master.Span.calls

(* The path-form root LP on the colgen benchmark's large instance: the
   generation loop telescopes into per-round master / price / add_col
   leaves under the "colgen" phase, and the per-commodity pricing
   fan-out is the one place worker domains touch this solve — so the
   domain-stripped export must still be byte-identical across jobs. *)
let colgen_pass =
  {
    title = "Profiling gate, column-generation pass (path-form root LP)";
    what = "colgen ";
    instance = Colgen_bench.bench_instance;
    options =
      (fun ~mip ~budget ~prof ->
        Tvnep.Solver.Options.make ~method_:Tvnep.Solver.Lp_only
          ~flow_form:Tvnep.Solver.Path ~mip ~budget ?prof ());
    check = check_colgen_tree;
    summary =
      (fun r ->
        Printf.sprintf
          "colgen profiling: %d spans, %d columns generated, \
           master/price/add_col telescope, jobs levels identical"
          (List.length r.spans) (generated r));
  }

(* --- allocation pass --------------------------------------------------- *)

(* Minor-heap words a warm node-LP re-solve may allocate, on average over
   the measured window.  The sparse-kernel path currently runs ~35k words
   per re-solve (preallocated reach scratch, closure-free pivot scatter,
   inlined eta extraction); the budget sits at about twice that, far
   below the ~140k words of the boxing-heavy path it replaced — so a
   regression that reintroduces per-solve [Array.make], float boxing
   through cross-module calls, or closure-per-row column traversal trips
   the gate while honest drift does not. *)
let minor_words_per_resolve_budget = 70_000.0

let run_alloc () =
  Printf.printf
    "\n== Profiling gate, allocation pass (warm node-LP re-solves) ==\n";
  let rng_inst = Workload.Rng.create 3L in
  let inst =
    Tvnep.Scenario.generate rng_inst
      { Tvnep.Scenario.scaled with num_requests = 4; flexibility = 1.0 }
  in
  let fm = Tvnep.Csigma_model.build inst in
  ignore (Tvnep.Objective.apply fm Tvnep.Objective.Access_control);
  let sf = Lp.Std_form.of_model fm.Tvnep.Formulation.model in
  let n_total = Lp.Std_form.n_total sf in
  let root_lb = Array.sub sf.Lp.Std_form.lb 0 n_total in
  let root_ub = Array.sub sf.Lp.Std_form.ub 0 n_total in
  let int_cols =
    Array.of_list
      (List.filter
         (fun j -> sf.Lp.Std_form.integer.(j))
         (List.init sf.Lp.Std_form.n_struct (fun j -> j)))
  in
  let session = Lp.Simplex.create_session sf in
  let budget = Runtime.Budget.create ~deterministic:1.0 () in
  let stats = Runtime.Stats.create () in
  ignore
    (Lp.Simplex.session_solve session ~budget ~stats ~lb:root_lb ~ub:root_ub ());
  let rng = Workload.Rng.create 17L in
  let lb = Array.copy root_lb and ub = Array.copy root_ub in
  let warmup = 10 and measured = 30 and plunge_depth = 5 in
  let gw0 = ref 0.0 in
  for step = 0 to warmup + measured - 1 do
    if step = warmup then gw0 := Gc.minor_words ();
    if step mod plunge_depth = 0 then begin
      Array.blit root_lb 0 lb 0 n_total;
      Array.blit root_ub 0 ub 0 n_total
    end;
    let j = int_cols.(Workload.Rng.int rng (Array.length int_cols)) in
    if Workload.Rng.bool rng then ub.(j) <- lb.(j) else lb.(j) <- ub.(j);
    ignore (Lp.Simplex.session_solve session ~budget ~stats ~lb ~ub ())
  done;
  let per_resolve =
    (Gc.minor_words () -. !gw0) /. float_of_int measured
  in
  if per_resolve > minor_words_per_resolve_budget then
    fail
      "ALLOCATION REGRESSION: warm node-LP re-solve allocates %.0f minor \
       words on average (budget %.0f) over %d measured re-solves"
      per_resolve minor_words_per_resolve_budget measured;
  Printf.printf
    "allocation: %.0f minor words per warm re-solve (budget %.0f, %d \
     re-solves measured after %d warm-up)\n"
    per_resolve minor_words_per_resolve_budget measured warmup

let run ?(time_limit = 30.0) () =
  gate ~time_limit exact_pass;
  gate ~time_limit colgen_pass;
  run_alloc ()
