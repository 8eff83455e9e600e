(* The deprecated pre-[run] entry points (Solver.solve,
   Solver.solve_lp_relaxation, Greedy.solve, Hybrid.solve) are thin
   wrappers over Solver.run; these tests pin the equivalence — every
   optional argument must reach run, so a wrapper call and the
   corresponding run call produce identical outcomes on identical
   deterministic budgets.  A dropped argument shows up as a tick or
   status mismatch here. *)

[@@@alert "-deprecated"]
[@@@warning "-3"]

module Solver = Tvnep.Solver

let work_rate = 2e9

let scenario ?(k = 3) ?(flex = 1.0) seed =
  let rng = Workload.Rng.create seed in
  Tvnep.Scenario.generate rng
    { Tvnep.Scenario.scaled with num_requests = k; flexibility = flex }

let det_budget ?(time_limit = 10.0) () =
  Runtime.Budget.create ~deterministic:work_rate ~time_limit ()

let mip = { Mip.Branch_bound.default_params with time_limit = 10.0 }

let fingerprint (o : Solver.outcome) =
  ( Solver.status_to_string o.Solver.status,
    o.Solver.objective,
    o.Solver.nodes,
    o.Solver.lp_iterations,
    o.Solver.ticks )

let solution_string = function
  | None -> "<none>"
  | Some sol -> Statsutil.Json.to_string (Solver.solution_to_json sol)

let check_outcomes_equal name (a : Solver.outcome) (b : Solver.outcome) =
  Alcotest.(check (triple string (option (float 1e-9)) (triple int int int)))
    name
    (let s, obj, n, i, t = fingerprint a in
     (s, obj, (n, i, t)))
    (let s, obj, n, i, t = fingerprint b in
     (s, obj, (n, i, t)));
  Alcotest.(check string)
    (name ^ " solution") (solution_string a.Solver.solution)
    (solution_string b.Solver.solution)

let suite =
  [
    ( "wrappers",
      [
        Alcotest.test_case "Solver.solve == run Exact" `Quick (fun () ->
            let inst = scenario ~k:4 ~flex:1.5 11L in
            let o_wrap =
              Solver.solve inst
                {
                  Solver.default_options with
                  seed_with_greedy = true;
                  mip;
                  budget = Some (det_budget ());
                }
            in
            let o_run =
              Solver.run inst
                (Solver.Options.make ~method_:Solver.Exact
                   ~seed_with_greedy:true ~mip ~budget:(det_budget ()) ())
            in
            check_outcomes_equal "exact" o_wrap o_run);
        Alcotest.test_case
          "solve_lp_relaxation honours mip.time_limit without a budget"
          `Quick (fun () ->
            (* Regression: the wrapper used to pass its (absent) budget
               straight through, so an exhausted/zero time limit was
               silently ignored and the LP ran unlimited. *)
            let inst = scenario ~k:3 7L in
            let r =
              Solver.solve_lp_relaxation inst
                {
                  Solver.default_options with
                  mip = { mip with Mip.Branch_bound.time_limit = 0.0 };
                }
            in
            Alcotest.(check string)
              "stopped by the derived budget" "time limit"
              (Lp.Simplex.status_to_string r.Lp.Simplex.status));
        Alcotest.test_case "solve_lp_relaxation == run Lp_only" `Quick
          (fun () ->
            let inst = scenario ~k:3 7L in
            let r =
              Solver.solve_lp_relaxation inst
                {
                  Solver.default_options with
                  mip;
                  budget = Some (det_budget ());
                }
            in
            let o =
              Solver.run inst
                (Solver.Options.make ~method_:Solver.Lp_only ~mip
                   ~budget:(det_budget ()) ())
            in
            Alcotest.(check string)
              "status" "optimal"
              (Lp.Simplex.status_to_string r.Lp.Simplex.status);
            Alcotest.(check (option (float 1e-6)))
              "objective" (Some r.Lp.Simplex.objective) o.Solver.objective);
        Alcotest.test_case "Greedy.solve == Greedy.run" `Quick (fun () ->
            let inst = scenario ~k:4 ~flex:2.0 5L in
            let stats_a = Runtime.Stats.create () in
            let stats_b = Runtime.Stats.create () in
            let sol_a, gs_a =
              Tvnep.Greedy.solve ~budget:(det_budget ()) ~stats:stats_a inst
            in
            let sol_b, gs_b =
              Tvnep.Greedy.run ~budget:(det_budget ()) ~stats:stats_b inst
            in
            Alcotest.(check string)
              "solution" (solution_string (Some sol_a))
              (solution_string (Some sol_b));
            Alcotest.(check int)
              "lp_solves" gs_a.Tvnep.Greedy.lp_solves
              gs_b.Tvnep.Greedy.lp_solves;
            Alcotest.(check int)
              "candidates" gs_a.Tvnep.Greedy.candidates_tried
              gs_b.Tvnep.Greedy.candidates_tried;
            Alcotest.(check int)
              "pivots" stats_a.Runtime.Stats.simplex_iterations
              stats_b.Runtime.Stats.simplex_iterations);
        Alcotest.test_case "Hybrid.solve == run Hybrid" `Quick (fun () ->
            let inst = scenario ~k:4 ~flex:1.5 9L in
            let sol_wrap, hs =
              Tvnep.Hybrid.solve ~heavy_fraction:0.5 ~mip
                ~budget:(det_budget ()) inst
            in
            let o =
              Solver.run inst
                (Solver.Options.make ~method_:Solver.Hybrid
                   ~heavy_fraction:0.5 ~mip ~budget:(det_budget ()) ())
            in
            Alcotest.(check string)
              "solution" (solution_string (Some sol_wrap))
              (solution_string o.Solver.solution);
            (match o.Solver.hybrid with
            | Some h ->
              Alcotest.(check (list int))
                "heavy set" h.Solver.heavy hs.Tvnep.Hybrid.heavy
            | None -> Alcotest.fail "run Hybrid returned no hybrid detail");
            Alcotest.(check (float 1e-9))
              "runtime" o.Solver.runtime hs.Tvnep.Hybrid.runtime);
      ] );
  ]
