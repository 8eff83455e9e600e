(* Column-generation benchmark: the path-form restricted master against
   the full arc-form LP on a substrate ~10x the scaled default (a 9x10
   grid, 90 nodes / 322 directed links) with 9-node star requests (8
   virtual links each) — the regime the path form exists for, where the
   arc flow block dwarfs the rest of the model.

   This is a regression gate as much as a perf tracker; the run *fails*
   (exit 1) when any of the ISSUE's acceptance bars breaks:

   - objective agreement: the converged master LP must equal the arc-form
     LP optimum (flow decomposition — the whole point of the method);
   - work: the colgen solve must cost strictly fewer deterministic work
     ticks than the arc-form solve;
   - size: flow-carrying master columns must stay <= 20% of the arc
     form's flow-variable count.

   Both forms solve at jobs = 1: pricing is serial, so the path form has
   no parallel code to exercise.  Results land in BENCH_colgen.json
   (validated after writing). *)

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

type run = {
  flow_form : string;
  status : string;
  objective : float;  (* nan = none *)
  ticks : int;
  lp_iterations : int;
  model_vars : int;
  columns_generated : int;    (* -1 for the arc form *)
  pricing_rounds : int;       (* -1 for the arc form *)
  master_flow_columns : int;  (* -1 for the arc form *)
  arc_flow_columns : int;     (* -1 for the arc form *)
  wall_s : float;
  gc_minor_words : float;
}

let solve_at ~inst ~time_limit ~flow_form =
  let mip =
    { Mip.Branch_bound.default_params with time_limit; jobs = 1; log_every = 0 }
  in
  let budget =
    Runtime.Budget.create ~deterministic:Figures.work_rate ~time_limit ()
  in
  let gw0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let o =
    Tvnep.Solver.run inst
      (Tvnep.Solver.Options.make ~method_:Tvnep.Solver.Lp_only ~flow_form ~mip
         ~budget ())
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let gc_minor_words = Gc.minor_words () -. gw0 in
  let cg = o.Tvnep.Solver.colgen in
  let stat f = match cg with Some c -> f c | None -> -1 in
  {
    flow_form = Tvnep.Solver.flow_form_to_string flow_form;
    status = Tvnep.Solver.status_to_string o.Tvnep.Solver.status;
    objective = Option.value o.Tvnep.Solver.objective ~default:Float.nan;
    ticks = o.Tvnep.Solver.ticks;
    lp_iterations = o.Tvnep.Solver.lp_iterations;
    model_vars = o.Tvnep.Solver.model_vars;
    columns_generated = stat (fun c -> c.Tvnep.Solver.columns_generated);
    pricing_rounds = stat (fun c -> c.Tvnep.Solver.pricing_rounds);
    master_flow_columns = stat (fun c -> c.Tvnep.Solver.master_flow_columns);
    arc_flow_columns = stat (fun c -> c.Tvnep.Solver.arc_flow_columns);
    wall_s;
    gc_minor_words;
  }

let json_of_runs runs =
  let open Statsutil.Json in
  Obj
    [
      ("schema", Str "tvnep-bench-colgen/3");
      ("schema_version", Num 3.0);
      ( "clock",
        Str
          (Printf.sprintf
             "deterministic work ticks (%.0e ticks = 1 budget second)"
             Figures.work_rate) );
      ( "runs",
        List
          (List.map
             (fun r ->
               Obj
                 [
                   ("flow_form", Str r.flow_form);
                   ("status", Str r.status);
                   ("objective", Num r.objective);
                   ("ticks", Num (float_of_int r.ticks));
                   ("lp_iterations", Num (float_of_int r.lp_iterations));
                   ("model_vars", Num (float_of_int r.model_vars));
                   ( "columns_generated",
                     Num (float_of_int r.columns_generated) );
                   ("pricing_rounds", Num (float_of_int r.pricing_rounds));
                   ( "master_flow_columns",
                     Num (float_of_int r.master_flow_columns) );
                   ( "arc_flow_columns",
                     Num (float_of_int r.arc_flow_columns) );
                   ("wall_s", Num r.wall_s);
                   ("gc_minor_words", Num r.gc_minor_words);
                 ])
             runs) );
    ]

let validate_json_string s =
  let open Statsutil.Json in
  match of_string s with
  | Error msg -> Error ("not valid JSON: " ^ msg)
  | Ok doc -> (
    match (member "schema" doc, member "schema_version" doc) with
    | Some (Str "tvnep-bench-colgen/3"), Some (Num 3.0) -> (
      match Option.bind (member "runs" doc) to_list with
      | None | Some [] -> Error "missing or empty \"runs\" list"
      | Some runs ->
        let bad =
          List.filter
            (fun r ->
              let num k = Option.bind (member k r) to_float <> None in
              not
                ((match member "flow_form" r with
                 | Some (Str ("arc" | "path")) -> true
                 | _ -> false)
                && (match member "status" r with
                   | Some (Str _) -> true
                   | _ -> false)
                && num "objective" && num "ticks"
                && num "lp_iterations" && num "model_vars"
                && num "columns_generated" && num "pricing_rounds"
                && num "master_flow_columns" && num "arc_flow_columns"
                && num "wall_s" && num "gc_minor_words"))
            runs
        in
        if bad = [] then Ok (List.length runs)
        else Error "a run is missing a required field")
    | _ -> Error "missing or unexpected \"schema\"/\"schema_version\"")

let run ?json_path ?(time_limit = 120.0) () =
  Printf.printf
    "\n== Column-generation benchmark (9x10 grid, 8-vlink requests, \
     deterministic work clock) ==\n";
  let inst = bench_instance () in
  let arc = solve_at ~inst ~time_limit ~flow_form:Tvnep.Solver.Arc in
  let path = solve_at ~inst ~time_limit ~flow_form:Tvnep.Solver.Path in
  let table =
    Statsutil.Table.create
      ~headers:
        [ "form"; "status"; "objective"; "LP iters"; "ticks";
          "flow cols"; "gen"; "rounds"; "wall" ]
  in
  List.iter
    (fun r ->
      Statsutil.Table.add_row table
        [
          r.flow_form;
          r.status;
          Printf.sprintf "%g" r.objective;
          string_of_int r.lp_iterations;
          string_of_int r.ticks;
          (if r.master_flow_columns >= 0 then
             Printf.sprintf "%d/%d" r.master_flow_columns r.arc_flow_columns
           else "-");
          (if r.columns_generated >= 0 then string_of_int r.columns_generated
           else "-");
          (if r.pricing_rounds >= 0 then string_of_int r.pricing_rounds
           else "-");
          Printf.sprintf "%.3f s" r.wall_s;
        ])
    [ arc; path ];
  Statsutil.Table.print table;
  (* Gate 1: both LPs solved to proved optimality (for the path form that
     means pricing converged — Feasible would be a round-cap exit). *)
  List.iter
    (fun r ->
      if r.status <> "optimal" then begin
        Printf.eprintf "COLGEN GATE: %s form finished %s, not optimal\n"
          r.flow_form r.status;
        exit 1
      end)
    [ arc; path ];
  (* Gate 2: objective agreement — flow decomposition made observable. *)
  let tol = 1e-6 *. Float.max 1.0 (Float.abs arc.objective) in
  if Float.abs (arc.objective -. path.objective) > tol then begin
    Printf.eprintf
      "COLGEN GATE: converged master LP (%.9g) differs from the arc-form LP \
       (%.9g)\n"
      path.objective arc.objective;
    exit 1
  end;
  (* Gate 3: the whole point — fewer work ticks than the arc form. *)
  if path.ticks >= arc.ticks then begin
    Printf.eprintf
      "COLGEN GATE: colgen spent %d ticks, arc form only %d — no win\n"
      path.ticks arc.ticks;
    exit 1
  end;
  (* Gate 4: the master stays small. *)
  if
    float_of_int path.master_flow_columns
    > max_column_ratio *. float_of_int path.arc_flow_columns
  then begin
    Printf.eprintf
      "COLGEN GATE: %d master flow columns exceed %.0f%% of the %d arc flow \
       variables\n"
      path.master_flow_columns
      (100.0 *. max_column_ratio)
      path.arc_flow_columns;
    exit 1
  end;
  Printf.printf
    "colgen gate: objective %g matches arc form, %d vs %d ticks (%.2fx), \
     %d/%d flow columns (%.0f%% of arc)\n"
    path.objective path.ticks arc.ticks
    (float_of_int arc.ticks /. Float.max 1.0 (float_of_int path.ticks))
    path.master_flow_columns path.arc_flow_columns
    (100.0 *. float_of_int path.master_flow_columns
    /. Float.max 1.0 (float_of_int path.arc_flow_columns));
  match json_path with
  | Some json_path ->
    Bench_json.emit ~path:json_path ~noun:"runs"
      ~validate:validate_json_string (json_of_runs [ arc; path ])
  | None -> ()
