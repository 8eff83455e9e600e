(* Command-line interface to the TVNEP library.

     tvnep_solve generate -o day.tvnep --requests 5 --flexibility 2
     tvnep_solve solve day.tvnep --model csigma --objective access
     tvnep_solve greedy day.tvnep
     tvnep_solve serve --seed 1 --events
     tvnep_solve show day.tvnep *)

open Cmdliner

(* ---- shared arguments ------------------------------------------------- *)

let file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"Instance file (see Tvnep.Instance_io).")

let time_limit_arg =
  Arg.(
    value & opt float 60.0
    & info [ "time-limit" ] ~docv:"SECONDS" ~doc:"Solver time limit.")

let model_arg =
  Arg.(
    value
    & opt
        (enum
           [ ("delta", `Delta); ("sigma", `Sigma); ("csigma", `Csigma);
             ("discrete", `Discrete) ])
        `Csigma
    & info [ "model" ] ~docv:"MODEL"
        ~doc:"Formulation: delta, sigma, csigma (default) or the \
              discrete-time baseline.")

let objective_arg =
  Arg.(
    value
    & opt
        (enum
           [ ("access", `Access); ("earliness", `Earliness);
             ("balance", `Balance); ("disable", `Disable);
             ("makespan", `Makespan) ])
        `Access
    & info [ "objective" ] ~docv:"OBJ"
        ~doc:"access (control, default), earliness, balance (node load, \
              f=0.5), disable (links) or makespan.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:"Worker domains (default 1 = solve in the calling domain; 0 = \
              autodetect the core count).  The branch-and-bound is \
              deterministic: any value returns identical results — jobs \
              only trades wall-clock time.")

let no_cuts_arg =
  Arg.(
    value & flag
    & info [ "no-cuts" ]
        ~doc:"Disable the temporal dependency graph cuts (cΣ only).")

let flow_form_arg =
  Arg.(
    value
    & opt (enum [ ("arc", Tvnep.Solver.Arc); ("path", Tvnep.Solver.Path) ])
        Tvnep.Solver.Arc
    & info [ "flow-form" ] ~docv:"FORM"
        ~doc:"Link-flow formulation: arc (default, one variable per \
              (virtual link, substrate arc)) or path (column generation: \
              a path-based restricted master grown by shortest-path \
              pricing; csigma model with fixed node mappings only).")

let seed_greedy_arg =
  Arg.(
    value & flag
    & info [ "seed-greedy" ]
        ~doc:"Seed the exact search with the greedy solution.")

let slot_arg =
  Arg.(
    value & opt float 1.0
    & info [ "slot-width" ] ~docv:"HOURS"
        ~doc:"Slot width for --model discrete.")

let verbose_arg =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Log solver progress.")

let gantt_arg =
  Arg.(
    value & flag
    & info [ "gantt" ] ~doc:"Render the schedule as an ASCII Gantt chart.")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:"Print the result as a versioned JSON document (schema_version \
              1) instead of the human-readable report.")

let profile_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile" ] ~docv:"PATH"
        ~doc:"Write a span profile of the solve to $(docv): a Chrome trace \
              JSON document (load it in chrome://tracing or ui.perfetto.dev), \
              or newline-delimited JSON when $(docv) ends in .jsonl.  \
              Profiling reads the work clock without advancing it, so the \
              reported result is identical with or without this flag.")

(* Format is chosen by extension; tick stamps convert to trace microseconds
   at the deterministic work-clock rate, so durations read as solver time. *)
let write_profile path recorder =
  let rate = Service.Engine.default_work_rate in
  let spans = Runtime.Span.spans recorder in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      if Filename.check_suffix path ".jsonl" then
        output_string oc (Runtime.Span.to_jsonl ~rate spans)
      else begin
        output_string oc
          (Statsutil.Json.to_string (Runtime.Span.to_chrome ~rate spans));
        output_char oc '\n'
      end)

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Info else Logs.Warning))

(* ---- solve ------------------------------------------------------------ *)

let print_solution ?(gantt = false) inst (sol : Tvnep.Solution.t) =
  if gantt then Tvnep.Gantt.print inst sol;
  Printf.printf "schedule:\n";
  Array.iteri
    (fun i (a : Tvnep.Solution.assignment) ->
      let r = Tvnep.Instance.request inst i in
      if a.Tvnep.Solution.accepted then
        Printf.printf "  %-8s accepted  [%8.3f, %8.3f]  hosts: %s\n"
          r.Tvnep.Request.name a.Tvnep.Solution.t_start a.Tvnep.Solution.t_end
          (String.concat ","
             (Array.to_list (Array.map string_of_int a.Tvnep.Solution.node_map)))
      else Printf.printf "  %-8s rejected\n" r.Tvnep.Request.name)
    sol.Tvnep.Solution.assignments;
  Printf.printf "validator: %s\n" (Tvnep.Validator.explain inst sol)

let report_outcome ?gantt ~json inst (o : Tvnep.Solver.outcome) =
  if json then begin
    print_endline (Statsutil.Json.to_string (Tvnep.Solver.outcome_to_json o));
    match o.Tvnep.Solver.solution with
    | Some sol -> if Tvnep.Validator.is_feasible inst sol then 0 else 3
    | None -> if o.Tvnep.Solver.status = Tvnep.Solver.Infeasible then 2 else 1
  end
  else begin
    Printf.printf "status:    %s\n"
      (Tvnep.Solver.status_to_string o.Tvnep.Solver.status);
    (match o.Tvnep.Solver.objective with
    | Some v -> Printf.printf "objective: %g (bound %g, gap %.4f)\n" v
                  o.Tvnep.Solver.bound o.Tvnep.Solver.gap
    | None -> Printf.printf "objective: none (bound %g)\n" o.Tvnep.Solver.bound);
    Printf.printf "model:     %d vars, %d rows | %d nodes, %d LP iterations, \
                   %.2fs\n"
      o.Tvnep.Solver.model_vars o.Tvnep.Solver.model_rows o.Tvnep.Solver.nodes
      o.Tvnep.Solver.lp_iterations o.Tvnep.Solver.runtime;
    (match o.Tvnep.Solver.colgen with
    | None -> ()
    | Some c ->
      Printf.printf
        "colgen:    %d columns in %d rounds (%d master flow columns vs %d \
         arc-form)%s\n"
        c.Tvnep.Solver.columns_generated c.Tvnep.Solver.pricing_rounds
        c.Tvnep.Solver.master_flow_columns c.Tvnep.Solver.arc_flow_columns
        (if c.Tvnep.Solver.colgen_converged then ", converged"
         else ", round cap"));
    Printf.printf "counters:  %s\n"
      (Runtime.Stats.to_string o.Tvnep.Solver.stats);
    match o.Tvnep.Solver.solution with
    | Some sol ->
      print_solution ?gantt inst sol;
      if Tvnep.Validator.is_feasible inst sol then 0 else 3
    | None -> if o.Tvnep.Solver.status = Tvnep.Solver.Infeasible then 2 else 1
  end

let solve_cmd =
  let run file model objective no_cuts flow_form seed_greedy slot time_limit
      jobs verbose gantt json profile =
    setup_logs verbose;
    let inst = Tvnep.Instance_io.load file in
    let mip =
      { Mip.Branch_bound.default_params with time_limit; jobs }
    in
    match model with
    | `Discrete ->
      (if profile <> None then
         Logs.warn (fun m ->
             m "--profile is not supported by --model discrete; ignored"));
      let o =
        Tvnep.Discrete_model.solve
          ~options:
            { Tvnep.Discrete_model.default_options with slot_width = slot }
          ~mip inst
      in
      report_outcome ~gantt ~json inst o
    | (`Delta | `Sigma | `Csigma) as kind ->
      let objective =
        match objective with
        | `Access -> Tvnep.Objective.Access_control
        | `Earliness -> Tvnep.Objective.Max_earliness
        | `Balance -> Tvnep.Objective.Balance_node_load 0.5
        | `Disable -> Tvnep.Objective.Disable_links
        | `Makespan -> Tvnep.Objective.Min_makespan
      in
      let kind =
        match kind with
        | `Delta -> Tvnep.Solver.Delta
        | `Sigma -> Tvnep.Solver.Sigma
        | `Csigma -> Tvnep.Solver.Csigma
      in
      let prof = Option.map (fun _ -> Runtime.Span.create ()) profile in
      let o =
        Tvnep.Solver.run inst
          (Tvnep.Solver.Options.make ~method_:Tvnep.Solver.Exact ~kind
             ~objective ~use_cuts:(not no_cuts) ~pairwise_cuts:(not no_cuts)
             ~flow_form ~seed_with_greedy:seed_greedy ~mip ?prof ())
      in
      let code = report_outcome ~gantt ~json inst o in
      (match (profile, prof) with
      | Some path, Some r -> write_profile path r
      | _ -> ());
      code
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Solve an instance exactly with a chosen model")
    Term.(
      const run $ file_arg $ model_arg $ objective_arg $ no_cuts_arg
      $ flow_form_arg $ seed_greedy_arg $ slot_arg $ time_limit_arg $ jobs_arg
      $ verbose_arg $ gantt_arg $ json_arg $ profile_arg)

(* ---- greedy ------------------------------------------------------------ *)

let greedy_cmd =
  let run file verbose gantt json profile =
    setup_logs verbose;
    let inst = Tvnep.Instance_io.load file in
    let prof = Option.map (fun _ -> Runtime.Span.create ()) profile in
    let o =
      Tvnep.Solver.run inst
        (Tvnep.Solver.Options.make ~method_:Tvnep.Solver.Greedy ?prof ())
    in
    (match (profile, prof) with
    | Some path, Some r -> write_profile path r
    | _ -> ());
    if json then report_outcome ~json:true inst o
    else
      match o.Tvnep.Solver.solution with
      | Some sol ->
        Printf.printf
          "greedy cΣ_A^G: revenue %g, %d/%d accepted (%d LPs, %.0f ms)\n"
          sol.Tvnep.Solution.objective
          (Tvnep.Solution.num_accepted sol)
          (Tvnep.Instance.num_requests inst)
          o.Tvnep.Solver.stats.Runtime.Stats.greedy_lp_solves
          (o.Tvnep.Solver.runtime *. 1000.0);
        print_solution ~gantt inst sol;
        if Tvnep.Validator.is_feasible inst sol then 0 else 3
      | None -> 1
  in
  Cmd.v
    (Cmd.info "greedy" ~doc:"Run the greedy heuristic on an instance")
    Term.(
      const run $ file_arg $ verbose_arg $ gantt_arg $ json_arg $ profile_arg)

(* ---- serve ------------------------------------------------------------- *)

let serve_cmd =
  let file_opt_arg =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:"Instance file to serve; omitted, a scaled scenario is \
                generated from --seed/--requests.")
  in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"RNG seed for the generated scenario (ignored with FILE).")
  in
  let requests_arg =
    Arg.(
      value & opt int 8
      & info [ "requests" ] ~docv:"K"
          ~doc:"Request count for the generated scenario (ignored with \
                FILE).")
  in
  let slice_arg =
    Arg.(
      value & opt float 0.5
      & info [ "slice" ] ~docv:"SECONDS"
          ~doc:"Per-request deadline in budget seconds.")
  in
  let exact_fraction_arg =
    Arg.(
      value & opt float 0.7
      & info [ "exact-fraction" ] ~docv:"F"
          ~doc:"Share of each slice the exact solve may spend before the \
                greedy fallback takes over.")
  in
  let global_limit_arg =
    Arg.(
      value & opt float infinity
      & info [ "time-limit" ] ~docv:"SECONDS"
          ~doc:"Global budget for the whole stream (default: none); \
                arrivals past it are denied at the budget rung.")
  in
  let wall_clock_arg =
    Arg.(
      value & flag
      & info [ "wall-clock" ]
          ~doc:"Use the wall clock instead of the deterministic work clock \
                (results then depend on machine speed).")
  in
  let events_arg =
    Arg.(
      value & flag
      & info [ "events" ]
          ~doc:"Serve the full event stream: committed requests depart at \
                their t_end and release capacity (plus any --cancel-prob \
                cancellations).  Without this flag the historical \
                arrival-only service runs.")
  in
  let cancel_prob_arg =
    Arg.(
      value & opt float 0.0
      & info [ "cancel-prob" ] ~docv:"P"
          ~doc:"With --events: cancel each arrival with probability P at a \
                uniform time inside its window (drawn from --seed).")
  in
  let reconfigure_arg =
    Arg.(
      value & opt int 0
      & info [ "reconfigure" ] ~docv:"N"
          ~doc:"Enable the reconfiguration rung: on a proven denial, \
                re-optimize up to N not-yet-started committed requests with \
                a move-cost objective (0 = off).")
  in
  let move_cost_arg =
    Arg.(
      value & opt float 0.1
      & info [ "move-cost" ] ~docv:"W"
          ~doc:"Objective weight per unit of schedule displacement in \
                reconfiguration solves.")
  in
  let rounding_arg =
    Arg.(
      value & flag
      & info [ "rounding" ]
          ~doc:"Enable the LP-rounding rung between exact and greedy: solve \
                the cΣ relaxation of the pinned instance, decompose it into \
                a convex combination of start-time candidates and round \
                with validator-checked repair; an infeasible relaxation is \
                a proven denial.")
  in
  let pricing_arg =
    Arg.(
      value & flag
      & info [ "pricing" ]
          ~doc:"Enable price-based admission: arrivals whose revenue does \
                not cover the priced cost of their assignment (from \
                committed utilization) are denied.")
  in
  let price_floor_arg =
    Arg.(
      value & opt float 0.0
      & info [ "price-floor" ] ~docv:"F"
          ~doc:"Baseline resource price per demand-hour under --pricing.")
  in
  let run file seed requests slice exact_fraction time_limit wall_clock events
      cancel_prob reconfigure move_cost rounding pricing price_floor verbose
      json profile =
    setup_logs verbose;
    let inst =
      match file with
      | Some f -> Tvnep.Instance_io.load f
      | None ->
        let rng = Workload.Rng.create (Int64.of_int seed) in
        Tvnep.Scenario.generate rng
          { Tvnep.Scenario.scaled with num_requests = requests }
    in
    let prof = Option.map (fun _ -> Runtime.Span.create ()) profile in
    let config =
      Service.Engine.Config.make ~slice ~exact_fraction ~time_limit
        ~deterministic:
          (if wall_clock then None else Some Service.Engine.default_work_rate)
        ~departures:events ~reconfigure:(reconfigure > 0)
        ~reconfigure_limit:(max 0 reconfigure) ~move_cost ~rounding ~pricing
        ~price:(Service.Pricing.make_params ~floor:price_floor ())
        ?prof ()
    in
    let stream =
      if events && cancel_prob > 0.0 then
        Some
          (Service.Event.with_cancellations
             (Workload.Rng.create (Int64.of_int (seed + 0x5eed)))
             ~prob:cancel_prob inst
             (Service.Event.arrivals inst))
      else None
    in
    let s = Service.Engine.serve ~config ?events:stream inst in
    (match (profile, prof) with
    | Some path, Some r -> write_profile path r
    | _ -> ());
    if json then
      print_endline (Statsutil.Json.to_string (Service.Engine.summary_to_json s))
    else begin
      Printf.printf "event stream: %d events (%d arrivals)\n"
        s.Service.Engine.events
        (s.Service.Engine.accepted + s.Service.Engine.denied);
      Printf.printf
        "  %-8s %9s  %-9s %-8s %-9s %10s %10s %12s\n"
        "request" "time" "event" "decision" "rung" "t_start" "revenue" "ticks";
      Array.iter
        (fun (r : Service.Engine.record) ->
          let decision =
            match r.Service.Engine.event with
            | Service.Event.Departure -> "release"
            | Service.Event.Arrival ->
              if r.Service.Engine.admitted then "admit" else "deny"
          in
          Printf.printf "  %-8s %9.3f  %-9s %-8s %-9s %10s %10g %12d\n"
            r.Service.Engine.name r.Service.Engine.time
            (Service.Event.kind_to_string r.Service.Engine.event)
            decision
            (Service.Engine.rung_to_string r.Service.Engine.rung)
            (if Float.is_finite r.Service.Engine.t_start then
               Printf.sprintf "%.3f" r.Service.Engine.t_start
             else "-")
            r.Service.Engine.revenue r.Service.Engine.ticks)
        s.Service.Engine.records;
      Printf.printf
        "summary: %d/%d admitted (%.0f%%), revenue %g | rungs: %d exact, %d \
         rounded, %d greedy, %d migrated, %d budget-denied, %d priced-denied \
         | %d departed, %d migrations | ticks p50 %d, p99 %d | %.3fs\n"
        s.Service.Engine.accepted
        (s.Service.Engine.accepted + s.Service.Engine.denied)
        (100.0 *. s.Service.Engine.acceptance_ratio)
        s.Service.Engine.revenue s.Service.Engine.admitted_exact
        s.Service.Engine.admitted_rounded s.Service.Engine.admitted_greedy
        s.Service.Engine.admitted_migrated
        s.Service.Engine.denied_budget s.Service.Engine.denied_priced
        s.Service.Engine.departed s.Service.Engine.migrations
        s.Service.Engine.ticks_p50 s.Service.Engine.ticks_p99
        s.Service.Engine.runtime;
      if pricing then
        Printf.printf "prices: nodes [%s] links [%s]\n"
          (String.concat ", "
             (Array.to_list
                (Array.map (Printf.sprintf "%.3f")
                   s.Service.Engine.node_prices)))
          (String.concat ", "
             (Array.to_list
                (Array.map (Printf.sprintf "%.3f")
                   s.Service.Engine.link_prices)));
      Printf.printf "counters:  %s\n"
        (Runtime.Stats.to_string s.Service.Engine.stats)
    end;
    if Tvnep.Validator.is_feasible inst s.Service.Engine.solution then 0 else 3
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve the instance's requests as an online event stream with \
             deadline-budgeted admission (exact, optional reconfiguration, \
             optional LP rounding, greedy fallback, optional pricing, then \
             denial) and validator-gated departures")
    Term.(
      const run $ file_opt_arg $ seed_arg $ requests_arg $ slice_arg
      $ exact_fraction_arg $ global_limit_arg $ wall_clock_arg $ events_arg
      $ cancel_prob_arg $ reconfigure_arg $ move_cost_arg $ rounding_arg
      $ pricing_arg $ price_floor_arg $ verbose_arg $ json_arg $ profile_arg)

(* ---- explain ------------------------------------------------------------ *)

let explain_cmd =
  let file_opt_arg =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:"Instance file to explain; omitted, a contended scenario is \
                generated from --seed/--requests/--flexibility.")
  in
  let seed_arg =
    Arg.(
      value & opt int 23
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"RNG seed for the generated scenario (ignored with FILE).")
  in
  let requests_arg =
    Arg.(
      value & opt int 8
      & info [ "requests" ] ~docv:"K"
          ~doc:"Request count for the generated scenario (ignored with \
                FILE).")
  in
  let flex_arg =
    Arg.(
      value & opt float 2.0
      & info [ "flexibility" ] ~docv:"HOURS"
          ~doc:"Temporal flexibility of the generated scenario (ignored \
                with FILE).")
  in
  let run file seed requests flex time_limit jobs no_cuts flow_form verbose
      profile =
    setup_logs verbose;
    let inst =
      match file with
      | Some f -> Tvnep.Instance_io.load f
      | None ->
        let rng = Workload.Rng.create (Int64.of_int seed) in
        Tvnep.Scenario.generate rng
          {
            Tvnep.Scenario.scaled with
            num_requests = requests;
            flexibility = flex;
          }
    in
    let rate = Service.Engine.default_work_rate in
    (* A deterministic budget: the same instance attributes the same ticks
       to the same phases on every run, at every --jobs level. *)
    let budget = Runtime.Budget.create ~deterministic:rate ~time_limit () in
    let prof = Runtime.Span.create () in
    let mip = { Mip.Branch_bound.default_params with time_limit; jobs } in
    let o =
      Tvnep.Solver.run inst
        (Tvnep.Solver.Options.make ~method_:Tvnep.Solver.Exact
           ~use_cuts:(not no_cuts) ~pairwise_cuts:(not no_cuts) ~flow_form
           ~mip ~budget ~prof ())
    in
    (match profile with Some path -> write_profile path prof | None -> ());
    let spans = Runtime.Span.spans prof in
    let tree = Runtime.Span.tree_of spans in
    Printf.printf "status:    %s" (Tvnep.Solver.status_to_string o.Tvnep.Solver.status);
    (match o.Tvnep.Solver.objective with
    | Some v -> Printf.printf "  objective: %g\n" v
    | None -> print_newline ());
    Printf.printf "work:      %d ticks (%.3f budget seconds), %d nodes, %d LP \
                   iterations\n\n"
      o.Tvnep.Solver.ticks
      (float_of_int o.Tvnep.Solver.ticks /. rate)
      o.Tvnep.Solver.nodes o.Tvnep.Solver.lp_iterations;
    print_string (Runtime.Span.render_tree ~rate tree);
    (match Runtime.Span.domain_ticks spans with
    | [] | [ _ ] -> ()
    | per ->
      Printf.printf "\nper-domain ticks (worker attribution varies with \
                     scheduling; totals do not):\n";
      List.iter
        (fun (d, t) -> Printf.printf "  domain %d: %d ticks\n" d t)
        per);
    let metrics = Runtime.Metrics.to_string (Runtime.Span.metrics prof) in
    if metrics <> "" then begin
      Printf.printf "\nmetrics:\n";
      String.split_on_char '\n' metrics
      |> List.iter (fun l -> if l <> "" then Printf.printf "  %s\n" l)
    end;
    (* The accounting invariant the profiler is built around: per-phase
       self ticks partition the solve's work ticks exactly. *)
    let self = Runtime.Span.sum_self tree in
    if self <> o.Tvnep.Solver.ticks then begin
      Printf.eprintf
        "explain: phase self ticks (%d) do not sum to the solve's ticks \
         (%d)\n"
        self o.Tvnep.Solver.ticks;
      4
    end
    else 0
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Solve an instance with profiling on and print a top-down phase \
             tree: per phase the work-clock ticks spent below it, its own \
             self ticks, and call counts.  Per-phase self ticks sum exactly \
             to the solve's total work ticks (the command fails otherwise).")
    Term.(
      const run $ file_opt_arg $ seed_arg $ requests_arg $ flex_arg
      $ time_limit_arg $ jobs_arg $ no_cuts_arg $ flow_form_arg $ verbose_arg
      $ profile_arg)

(* ---- generate ----------------------------------------------------------- *)

let generate_cmd =
  let out_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output instance file.")
  in
  let requests_arg =
    Arg.(value & opt int 5 & info [ "requests" ] ~docv:"K" ~doc:"Request count.")
  in
  let rows_arg =
    Arg.(value & opt int 3 & info [ "rows" ] ~docv:"R" ~doc:"Grid rows.")
  in
  let cols_arg =
    Arg.(value & opt int 3 & info [ "cols" ] ~docv:"C" ~doc:"Grid columns.")
  in
  let leaves_arg =
    Arg.(
      value & opt int 2
      & info [ "star-leaves" ] ~docv:"L" ~doc:"Leaves per request star.")
  in
  let flex_arg =
    Arg.(
      value & opt float 1.0
      & info [ "flexibility" ] ~docv:"HOURS" ~doc:"Temporal flexibility.")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")
  in
  let paper_arg =
    Arg.(
      value & flag
      & info [ "paper" ]
          ~doc:"Use the paper's parameters (4x5 grid, 5-node stars, 20 \
                requests) instead of the scaled defaults.")
  in
  let run output requests rows cols leaves flex seed paper =
    let base =
      if paper then Tvnep.Scenario.paper
      else
        {
          Tvnep.Scenario.scaled with
          num_requests = requests;
          grid_rows = rows;
          grid_cols = cols;
          star_leaves = leaves;
        }
    in
    let rng = Workload.Rng.create (Int64.of_int seed) in
    let inst =
      Tvnep.Scenario.generate rng
        { base with Tvnep.Scenario.flexibility = flex }
    in
    Tvnep.Instance_io.save output inst;
    Printf.printf "wrote %s (%d requests, %d substrate nodes, horizon %g)\n"
      output
      (Tvnep.Instance.num_requests inst)
      (Tvnep.Substrate.num_nodes inst.Tvnep.Instance.substrate)
      inst.Tvnep.Instance.horizon;
    0
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a synthetic workload instance")
    Term.(
      const run $ out_arg $ requests_arg $ rows_arg $ cols_arg $ leaves_arg
      $ flex_arg $ seed_arg $ paper_arg)

(* ---- show --------------------------------------------------------------- *)

let show_cmd =
  let run file =
    let inst = Tvnep.Instance_io.load file in
    Format.printf "%a@." Tvnep.Instance.pp inst;
    0
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Pretty-print an instance file")
    Term.(const run $ file_arg)

let () =
  let info =
    Cmd.info "tvnep_solve"
      ~doc:"Temporal virtual network embedding (TVNEP) toolkit"
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            solve_cmd; greedy_cmd; serve_cmd; explain_cmd; generate_cmd;
            show_cmd;
          ]))
