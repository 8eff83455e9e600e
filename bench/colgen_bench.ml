(* Column-generation benchmark: the path-form restricted master against
   the full arc-form LP on a substrate ~10x the scaled default (a 9x10
   grid, 90 nodes / 322 directed links) with 9-node star requests (8
   virtual links each) — the regime the path form exists for, where the
   arc flow block dwarfs the rest of the model.

   This is a regression gate as much as a perf tracker; the run *fails*
   (exit 1) when any of these bars breaks:

   - objective agreement: the converged master LP must equal the arc-form
     LP optimum (flow decomposition — the whole point of the method);
   - work: the colgen solve must cost strictly fewer deterministic work
     ticks than the arc-form solve;
   - size: flow-carrying master columns must stay <= 20% of the arc
     form's flow-variable count.

   Both forms solve at jobs = 1: pricing is serial, so the path form has
   no parallel code to exercise.  Each form is one {!Record.t} labelled
   by its flow form; results land in BENCH_colgen.json. *)

(* Maximum allowed master-to-arc flow-column ratio. *)
let max_column_ratio = 0.20

let bench_instance () =
  let rng = Workload.Rng.create 29L in
  Tvnep.Scenario.generate rng
    {
      Tvnep.Scenario.scaled with
      grid_rows = 9;
      grid_cols = 10;
      star_leaves = 8;
      num_requests = 3;
      flexibility = 2.0;
    }

let solve_at ~inst ~time_limit ~flow_form =
  let mip =
    { Mip.Branch_bound.default_params with time_limit; jobs = 1; log_every = 0 }
  in
  let budget =
    Runtime.Budget.create ~deterministic:Figures.work_rate ~time_limit ()
  in
  let o, wall_s, minor_words =
    Record.measure (fun () ->
        Tvnep.Solver.run inst
          (Tvnep.Solver.Options.make ~method_:Tvnep.Solver.Lp_only ~flow_form
             ~mip ~budget ()))
  in
  let n v = float_of_int v in
  let colgen =
    match o.Tvnep.Solver.colgen with
    | None -> []
    | Some c ->
      [
        ("columns_generated", n c.Tvnep.Solver.columns_generated);
        ("pricing_rounds", n c.Tvnep.Solver.pricing_rounds);
        ("master_flow_columns", n c.Tvnep.Solver.master_flow_columns);
        ("arc_flow_columns", n c.Tvnep.Solver.arc_flow_columns);
      ]
  in
  {
    Record.label = Tvnep.Solver.flow_form_to_string flow_form;
    status = Tvnep.Solver.status_to_string o.Tvnep.Solver.status;
    objective = Option.value o.Tvnep.Solver.objective ~default:Float.nan;
    ticks = o.Tvnep.Solver.ticks;
    wall_s;
    minor_words;
    counters =
      ("lp_iterations", n o.Tvnep.Solver.lp_iterations)
      :: ("model_vars", n o.Tvnep.Solver.model_vars)
      :: colgen;
    detail = None;
  }

let gates : Record.gate list =
  let forms runs = (Record.find "arc" runs, Record.find "path" runs) in
  [
    (* Both LPs solved to proved optimality (for the path form that means
       pricing converged: Feasible would be a round-cap exit). *)
    ( "optimal",
      fun runs ->
        let optimal (r : Record.t) = r.status = "optimal" in
        match List.filter (fun r -> not (optimal r)) runs with
        | [] -> Ok ()
        | r :: _ ->
          Error (Printf.sprintf "%s form finished %s" r.label r.status) );
    (* Objective agreement: flow decomposition made observable. *)
    ( "objective_agreement",
      fun runs ->
        let arc, path = forms runs in
        let tol = 1e-6 *. Float.max 1.0 (Float.abs arc.objective) in
        if Float.abs (arc.objective -. path.objective) <= tol then Ok ()
        else
          Error
            (Printf.sprintf "converged master LP %.9g, arc-form LP %.9g"
               path.objective arc.objective) );
    (* The whole point: fewer work ticks than the arc form. *)
    ( "fewer_ticks",
      fun runs ->
        let arc, path = forms runs in
        if path.ticks < arc.ticks then Ok ()
        else
          Error
            (Printf.sprintf "colgen spent %d ticks, arc form only %d"
               path.ticks arc.ticks) );
    (* The master stays small. *)
    ( "master_size",
      fun runs ->
        let _, path = forms runs in
        let master = Record.counter path "master_flow_columns"
        and arc = Record.counter path "arc_flow_columns" in
        if master <= max_column_ratio *. arc then Ok ()
        else
          Error
            (Printf.sprintf
               "%.0f master flow columns exceed %.0f%% of the %.0f arc flow \
                variables"
               master (100.0 *. max_column_ratio) arc) );
  ]

let run ~json_dir ?(time_limit = 120.0) () =
  Printf.printf
    "\n== Column-generation benchmark (9x10 grid, 8-vlink requests, \
     deterministic work clock) ==\n";
  let inst = bench_instance () in
  let runs =
    List.map
      (fun flow_form -> solve_at ~inst ~time_limit ~flow_form)
      [ Tvnep.Solver.Arc; Tvnep.Solver.Path ]
  in
  let table =
    Statsutil.Table.create
      ~headers:
        [ "form"; "status"; "objective"; "LP iters"; "ticks";
          "flow cols"; "gen"; "rounds"; "wall" ]
  in
  List.iter
    (fun (r : Record.t) ->
      let c k =
        match List.assoc_opt k r.counters with
        | Some v -> Printf.sprintf "%.0f" v
        | None -> "-"
      in
      Statsutil.Table.add_row table
        [
          r.label;
          r.status;
          Printf.sprintf "%g" r.objective;
          c "lp_iterations";
          string_of_int r.ticks;
          (if List.mem_assoc "master_flow_columns" r.counters then
             c "master_flow_columns" ^ "/" ^ c "arc_flow_columns"
           else "-");
          c "columns_generated";
          c "pricing_rounds";
          Printf.sprintf "%.3f s" r.wall_s;
        ])
    runs;
  Statsutil.Table.print table;
  Record.enforce ~bench:"colgen" gates runs;
  Record.emit ~dir:json_dir
    { Record.bench = "colgen"; clock = Record.work_clock Figures.work_rate;
      runs }
