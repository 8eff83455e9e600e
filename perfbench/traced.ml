(* The traced run: per-layer metrics.

   On a third of the run's units it runs each unit three times: untraced
   (the reference wall time), with a wall-stamped span recorder on every
   call, and as layer probes: direct calls into each layer's public
   functions on the same inputs, timed from here.  The counters come
   from what the library already exposes ([Solver.outcome.stats],
   [Engine.summary], the span trees); nothing is instrumented inside the
   library. *)

open Workloads

let csigma_options =
  { Tvnep.Csigma_model.use_cuts = true; pairwise_cuts = true;
    relax_integrality = false }

(* Outside wall time per layer function, summed over the probe pass. *)
type probes = {
  mutable build_s : float;     (** Csigma_model.build + Objective.apply *)
  mutable std_form_s : float;  (** Std_form.of_model *)
  mutable root_lp_s : float;   (** cold Simplex.solve of the relaxation *)
  mutable bnb_s : float;       (** Branch_bound.solve_form at the tick budget *)
  mutable greedy_s : float;    (** Greedy.run *)
  mutable validate_s : float;  (** Validator.check *)
  mutable colgen_s : float;    (** Colgen_model.build + generate *)
  mutable bnb_nodes : int;
  mutable bnb_minor_words : float;
  mutable bnb_ticks : int;
  mutable replay_ticks : int;  (** work of the calls that replay the pass *)
  mutable colgen_rounds : int;
  mutable colgen_columns : int;
  mutable master_columns : int;
  mutable arc_columns : int;
}

let create_probes () =
  {
    build_s = 0.0; std_form_s = 0.0; root_lp_s = 0.0; bnb_s = 0.0;
    greedy_s = 0.0; validate_s = 0.0; colgen_s = 0.0; bnb_nodes = 0;
    bnb_minor_words = 0.0; bnb_ticks = 0; replay_ticks = 0; colgen_rounds = 0;
    colgen_columns = 0; master_columns = 0; arc_columns = 0;
  }

let time_into (field : float -> unit) f =
  let v, dt = timed f in
  field dt;
  v

let build_arc p inst =
  time_into (fun dt -> p.build_s <- p.build_s +. dt) @@ fun () ->
  let fm = Tvnep.Csigma_model.build ~options:csigma_options inst in
  ignore (Tvnep.Objective.apply fm Tvnep.Objective.Access_control);
  fm

let std_form p model =
  time_into (fun dt -> p.std_form_s <- p.std_form_s +. dt) @@ fun () ->
  Lp.Std_form.of_model model

let root_lp p ~ticks sf =
  let budget = tick_budget ticks in
  time_into (fun dt -> p.root_lp_s <- p.root_lp_s +. dt) @@ fun () ->
  ignore (Lp.Simplex.solve ~budget sf);
  Runtime.Budget.ticks budget

let greedy p ~budget inst =
  time_into (fun dt -> p.greedy_s <- p.greedy_s +. dt) @@ fun () ->
  fst (Tvnep.Greedy.run ~budget inst)

let validate p inst sol =
  time_into (fun dt -> p.validate_s <- p.validate_s +. dt) @@ fun () ->
  ignore (Tvnep.Validator.check inst sol)

let bnb p ?initial ~budget sf =
  let w0 = Gc.minor_words () and k0 = Runtime.Budget.ticks budget in
  let r =
    time_into (fun dt -> p.bnb_s <- p.bnb_s +. dt) @@ fun () ->
    Mip.Branch_bound.solve_form ~params:mip_params ?initial ~budget sf
  in
  p.bnb_nodes <- p.bnb_nodes + r.Mip.Branch_bound.nodes;
  p.bnb_minor_words <- p.bnb_minor_words +. (Gc.minor_words () -. w0);
  p.bnb_ticks <- p.bnb_ticks + (Runtime.Budget.ticks budget - k0)

(* Path-form master built and priced to convergence; returns the
   enlarged standard form. *)
let colgen p ~ticks inst =
  time_into (fun dt -> p.colgen_s <- p.colgen_s +. dt) @@ fun () ->
  let cg = Tvnep.Colgen_model.build ~options:csigma_options inst in
  ignore
    (Tvnep.Objective.apply (Tvnep.Colgen_model.formulation cg)
       Tvnep.Objective.Access_control);
  let budget = tick_budget ticks in
  let r = Tvnep.Colgen_model.generate ~budget cg in
  p.colgen_rounds <- p.colgen_rounds + Tvnep.Colgen_model.pricing_rounds cg;
  p.colgen_columns <- p.colgen_columns + Tvnep.Colgen_model.columns_generated cg;
  p.master_columns <- p.master_columns + Tvnep.Colgen_model.flow_columns cg;
  p.arc_columns <- p.arc_columns + Tvnep.Colgen_model.arc_flow_columns cg;
  (r.Tvnep.Colgen_model.sf, Runtime.Budget.ticks budget)

(* One exact cΣ solve with greedy seeding, replayed layer by layer as
   [Solver.run] composes it: build, greedy on the solve budget, standard
   form, branch-and-bound from the lifted greedy point on the same
   budget.  The root LP and the path form are timed on the side. *)
let probe_exact p ~ticks inst =
  let budget = tick_budget ticks in
  let fm = build_arc p inst in
  let sol = greedy p ~budget inst in
  let sf = std_form p fm.Tvnep.Formulation.model in
  bnb p ~initial:(fm.Tvnep.Formulation.lift sol) ~budget sf;
  p.replay_ticks <- p.replay_ticks + Runtime.Budget.ticks budget;
  validate p inst sol;
  ignore (root_lp p ~ticks sf);
  ignore (colgen p ~ticks inst)

(* The three grid solves replayed: arc LP (build, standard form, cold
   root LP), path LP (column generation), path exact (column generation,
   then branch-and-bound on the enlarged form).  Greedy and validation
   are timed on the side. *)
let probe_large p ~ticks inst =
  let fm = build_arc p inst in
  let sf = std_form p fm.Tvnep.Formulation.model in
  let arc_ticks = root_lp p ~ticks sf in
  let _, lp_ticks = colgen p ~ticks inst in
  let sf_path, exact_ticks = colgen p ~ticks inst in
  let budget = tick_budget ticks in
  bnb p ~budget sf_path;
  p.replay_ticks <-
    p.replay_ticks + arc_ticks + lp_ticks + exact_ticks + Runtime.Budget.ticks budget;
  let sol = greedy p ~budget:(tick_budget ticks) inst in
  validate p inst sol

(* The first [n] requests of a stream as an offline instance. *)
let prefix inst n =
  let n = min n (Tvnep.Instance.num_requests inst) in
  Tvnep.Instance.with_requests inst
    (Array.sub inst.Tvnep.Instance.requests 0 n)
    ?node_mappings:
      (Option.map (fun m -> Array.sub m 0 n) inst.Tvnep.Instance.node_mappings)
    ()

let probe_unit p = function
  | Sweep (c, cells) -> List.iter (probe_exact p ~ticks:c.o_ticks) cells
  | Large (c, inst) -> probe_large p ~ticks:c.g_ticks inst
  | Stream (c, inst) ->
    (* The service solves small pinned instances per arrival; the probes
       use the stream's first requests at one slice of work. *)
    let ticks = int_of_float (c.s_slice *. work_rate) in
    probe_exact p ~ticks (prefix inst 8)

(* {1 Span trees} *)

let leaf_ticks recorders name =
  List.fold_left
    (fun n r ->
      List.fold_left
        (fun n (s : Runtime.Span.span) ->
          if s.Runtime.Span.name = name then n + (s.Runtime.Span.t1 - s.Runtime.Span.t0)
          else n)
        n (Runtime.Span.spans r))
    0 recorders

(* Tick totals of the rung spans directly under each service
   ["arrival"] span, by rung name. *)
let rung_ticks recorders =
  let tbl = Hashtbl.create 8 in
  let rec walk (t : Runtime.Span.tree) =
    if t.Runtime.Span.tree_name = "arrival" then
      List.iter
        (fun (c : Runtime.Span.tree) ->
          let k = c.Runtime.Span.tree_name in
          Hashtbl.replace tbl k
            ((try Hashtbl.find tbl k with Not_found -> 0) + c.Runtime.Span.total))
        t.Runtime.Span.children
    else List.iter walk t.Runtime.Span.children
  in
  List.iter
    (fun r -> List.iter walk (Runtime.Span.tree_of (Runtime.Span.spans r)))
    recorders;
  fun name -> try Hashtbl.find tbl name with Not_found -> 0

let quantile q = function
  | [] -> 0.0
  | l -> Statsutil.Stats.quantile q l

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* {1 The traced run} *)

let run config ~seed ~seconds =
  let count = max 2 (unit_count config ~seconds / 3) in
  let units, _ = Measure.setup config ~seed ~count in
  let plain = create_acc () and traced = create_acc () in
  let p = create_probes () in
  let recorders = ref [] in
  let prof_for _label =
    let r = Runtime.Span.create ~wall:true () in
    recorders := r :: !recorders;
    r
  in
  let plain_elapsed = ref 0.0 and cpu = ref 0.0 and minor = ref 0.0 in
  (* Unit by unit, so drift in the host's speed hits all three alike:
     untraced (the reference wall time), traced with a wall-stamped
     recorder on every call, then the layer probes. *)
  List.iter
    (fun ((_, u) as unit_) ->
      let cpu0 = Measure.cpu_time () and w0 = Gc.minor_words () in
      let (), dt = timed (fun () -> run_unit plain unit_) in
      plain_elapsed := !plain_elapsed +. dt;
      cpu := !cpu +. (Measure.cpu_time () -. cpu0);
      minor := !minor +. (Gc.minor_words () -. w0);
      run_unit traced ~prof_for unit_;
      probe_unit p u)
    units;
  let recorders = List.rev !recorders in
  let plain_elapsed = !plain_elapsed and cpu = !cpu and minor = !minor in
  let plain_ops = ops plain and traced_ops = ops traced in
  let attempted = Array.length plain_ops + Array.length traced_ops in
  let failed =
    Measure.count_bad plain_ops + Measure.count_bad traced_ops
    + mismatches ~reference:plain_ops traced_ops
  in
  let st = traced.stats in
  let wall_s = wall plain in
  let arrival_records =
    List.concat_map
      (fun (s : Service.Engine.summary) ->
        List.filter
          (fun (r : Service.Engine.record) ->
            r.Service.Engine.event = Service.Event.Arrival)
          (Array.to_list s.Service.Engine.records))
      traced.summaries
  in
  let arrivals = List.length arrival_records in
  let arrival_ticks =
    List.map (fun (r : Service.Engine.record) -> float_of_int r.Service.Engine.ticks)
      arrival_records
  in
  let rung_count rung =
    List.length
      (List.filter (fun (r : Service.Engine.record) -> r.Service.Engine.rung = rung)
         arrival_records)
  in
  let rungs = rung_ticks recorders in
  let fi = float_of_int in
  (* Attribution of the untraced wall time.  Offline and grid: the
     probes replay each solve's phases, so their outside wall times
     partition it.  Service: the rung spans' work ticks, converted to
     seconds at the rate the probes' branch-and-bound ran at (the spans
     inside the engine carry no wall stamps). *)
  let replayed =
    Printf.sprintf "  (probes replayed %d work ticks; the untraced calls billed %d)"
      p.replay_ticks plain.ticks
  in
  let rows, notes =
    match List.hd units with
    | _, Sweep _ ->
      ( [ ("tvnep build", p.build_s); ("lp std_form", p.std_form_s);
          ("tvnep greedy", p.greedy_s); ("mip b&b", p.bnb_s) ],
        [ replayed ] )
    | _, Large _ ->
      ( [ ("tvnep build", p.build_s); ("lp std_form", p.std_form_s);
          ("lp root lp", p.root_lp_s); ("tvnep colgen (x2)", p.colgen_s);
          ("mip b&b", p.bnb_s) ],
        [ replayed ] )
    | _, Stream _ ->
      let rate = ratio (fi p.bnb_ticks) p.bnb_s in
      ( List.map
          (fun n -> (Printf.sprintf "service %s (ticks)" n, ratio (fi (rungs n)) rate))
          [ "exact"; "reconfigure"; "rounded"; "greedy"; "validate" ],
        [ Printf.sprintf
            "  (rung spans' work ticks at the probes' B&B rate, %.1f ticks/us)"
            (rate /. 1e6) ] )
  in
  (* The grid probes price the path form twice (path LP and path exact),
     as the pass does; the per-layer colgen time is one of them. *)
  let colgen_once =
    match List.hd units with _, Large _ -> p.colgen_s /. 2.0 | _ -> p.colgen_s
  in
  let attributed = List.fold_left (fun s (_, v) -> s +. v) 0.0 rows in
  let unattributed = wall_s -. attributed in
  let overhead = wall traced -. wall_s in
  let metrics =
    [
      ("lina.factorize_ticks", fi (leaf_ticks recorders "factorize"), "ticks");
      ("lina.ftran_ticks", fi (leaf_ticks recorders "ftran"), "ticks");
      ("lina.btran_ticks", fi (leaf_ticks recorders "btran"), "ticks");
      ("lina.ftran_nnz", fi st.Runtime.Stats.ftran_nnz, "count");
      ("lina.btran_nnz", fi st.Runtime.Stats.btran_nnz, "count");
      ("lina.spike_fill", fi st.Runtime.Stats.spike_fill, "count");
      ("lp.std_form_s", p.std_form_s, "s");
      ("lp.root_lp_s", p.root_lp_s, "s");
      ("lp.pivots", fi st.Runtime.Stats.simplex_iterations, "count");
      ("lp.lp_solves", fi st.Runtime.Stats.lp_solves, "count");
      ("lp.pivots_per_lp",
       ratio (fi st.Runtime.Stats.simplex_iterations) (fi st.Runtime.Stats.lp_solves),
       "ratio");
      ("lp.refactorizations", fi st.Runtime.Stats.refactorizations, "count");
      ("lp.refactor_forced", fi st.Runtime.Stats.refactor_forced, "count");
      ("lp.basis_updates", fi st.Runtime.Stats.basis_updates, "count");
      ("lp.pricing_ticks", fi (leaf_ticks recorders "pricing"), "ticks");
      ("lp.pricing_hit_ratio",
       ratio (fi st.Runtime.Stats.pricing_hits)
         (fi (st.Runtime.Stats.pricing_hits + st.Runtime.Stats.pricing_sweeps)),
       "ratio");
      ("mip.bnb_s", p.bnb_s, "s");
      ("mip.nodes", fi st.Runtime.Stats.bb_nodes, "count");
      ("mip.nodes_per_s", ratio (fi p.bnb_nodes) p.bnb_s, "1/s");
      ("mip.incumbents", fi st.Runtime.Stats.incumbents, "count");
      ("mip.minor_words_per_node", ratio p.bnb_minor_words (fi p.bnb_nodes), "words");
      ("graphs.price_ticks", fi (leaf_ticks recorders "price"), "ticks");
      ("tvnep.colgen.pricing_rounds", fi p.colgen_rounds, "count");
      ("tvnep.colgen.columns_generated", fi p.colgen_columns, "count");
      ("tvnep.colgen.column_ratio", ratio (fi p.master_columns) (fi p.arc_columns), "ratio");
      ("tvnep.build_s", p.build_s, "s");
      ("tvnep.greedy_s", p.greedy_s, "s");
      ("tvnep.validate_s", p.validate_s, "s");
      ("tvnep.colgen_s", colgen_once, "s");
      ("tvnep.greedy_lp_solves", fi st.Runtime.Stats.greedy_lp_solves, "count");
      ("tvnep.rounding.attempts", fi st.Runtime.Stats.rounding_attempts, "count");
      ("tvnep.rounding.repairs", fi st.Runtime.Stats.rounding_repairs, "count");
      ("tvnep.rounding.fallbacks", fi st.Runtime.Stats.rounding_fallbacks, "count");
      ("service.arrival_ticks_p50", quantile 0.5 arrival_ticks, "ticks");
      ("service.arrival_ticks_p99", quantile 0.99 arrival_ticks, "ticks");
      ("service.rung.exact", fi (rung_count Service.Engine.Exact), "count");
      ("service.rung.rounded", fi (rung_count Service.Engine.Rounded), "count");
      ("service.rung.greedy", fi (rung_count Service.Engine.Greedy), "count");
      ("service.rung.migrated", fi (rung_count Service.Engine.Migrated), "count");
      ("service.rung.budget", fi (rung_count Service.Engine.Budget), "count");
      ("service.rung.priced", fi (rung_count Service.Engine.Priced), "count");
      ("service.exact_ticks", fi (rungs "exact"), "ticks");
      ("service.rounded_ticks", fi (rungs "rounded"), "ticks");
      ("service.reconfigure_ticks", fi (rungs "reconfigure"), "ticks");
      ("service.greedy_ticks", fi (rungs "greedy"), "ticks");
      ("service.reevals", fi st.Runtime.Stats.service_reevals, "count");
      ("service.spec_hit_ratio",
       ratio (fi arrivals) (fi (arrivals + st.Runtime.Stats.service_reevals)),
       "ratio");
      ("service.minor_words_per_arrival", ratio minor (fi arrivals), "words");
      ("runtime.ticks_per_us", ratio (fi plain.ticks) (wall_s *. 1e6), "ticks/us");
      ("runtime.trace_overhead_s", overhead, "s");
      ("runtime.descheduled_s", plain_elapsed -. cpu, "s");
      ("runtime.unattributed_s", unattributed, "s");
    ]
  in
  let row (name, v) =
    Printf.sprintf "  %-28s %10.4f s %6.1f%%" name v (100.0 *. v /. wall_s)
  in
  let lines =
    [ Printf.sprintf "%d units; fingerprint %s" count (fingerprint plain_ops);
      Printf.sprintf "attribution of the untraced wall_s = %.4f s:" wall_s ]
    @ List.map row rows
    @ notes
    @ [ row ("unattributed", unattributed);
        Printf.sprintf "  tracing overhead %+.4f s (traced %.4f s)" overhead
          (wall traced) ]
  in
  {
    Measure.correct = failed = 0;
    attempted;
    failed;
    metrics = List.map Measure.mk metrics;
    lines;
  }
