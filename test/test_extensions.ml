(* Coverage for the extension features: free node mappings, the
   discrete-time baseline, greedy seeding and the LP-format writer. *)

let feq tol = Alcotest.(check (float tol))

(* A small instance WITHOUT fixed node mappings: the solver must also
   place the virtual nodes (the full VNEP subproblem, x_V binaries). *)
let free_mapping_instance () =
  let g = Graphs.Generators.grid ~rows:1 ~cols:3 in
  let substrate = Tvnep.Substrate.uniform g ~node_cap:1.0 ~link_cap:1.0 in
  let rg = Graphs.Generators.star ~leaves:1 ~orientation:Graphs.Generators.From_center in
  let mk name =
    (* Each virtual node needs a full substrate node: the two requests can
       only coexist if the solver spreads them over distinct hosts. *)
    Tvnep.Request.make ~name ~graph:rg ~node_demand:[| 1.0; 1.0 |]
      ~link_demand:[| 0.4 |] ~duration:1.0 ~start_min:0.0 ~end_max:2.0
  in
  Tvnep.Instance.make ~substrate
    ~requests:[| mk "A"; mk "B" |]
    ~horizon:2.0 ()

let free_mapping_tests =
  [
    Alcotest.test_case "solver places virtual nodes itself" `Slow (fun () ->
        let inst = free_mapping_instance () in
        let o =
          Tvnep.Solver.run inst
            (Tvnep.Solver.Options.make
               ~mip:{ Mip.Branch_bound.default_params with time_limit = 120.0 }
               ())
        in
        match o.Tvnep.Solver.solution with
        | Some sol ->
          (* Three unit-capacity hosts, four unit-demand virtual nodes in
             total: overlapping both is impossible, but with flexibility
             both fit sequentially; hosts must be distinct per request. *)
          Alcotest.(check int) "both accepted" 2 (Tvnep.Solution.num_accepted sol);
          Alcotest.(check bool) "valid" true (Tvnep.Validator.is_feasible inst sol);
          Array.iter
            (fun (a : Tvnep.Solution.assignment) ->
              Alcotest.(check bool) "distinct hosts" true
                (a.Tvnep.Solution.node_map.(0) <> a.Tvnep.Solution.node_map.(1)))
            sol.Tvnep.Solution.assignments
        | None -> Alcotest.fail "no solution");
    Alcotest.test_case "free-mapping relaxation bounds the integer optimum"
      `Quick (fun () ->
        let inst = free_mapping_instance () in
        let lp =
          Tvnep.Solver.run inst
            (Tvnep.Solver.Options.make ~method_:Tvnep.Solver.Lp_only ())
        in
        Alcotest.(check bool) "lp optimal" true
          (lp.Tvnep.Solver.status = Tvnep.Solver.Optimal);
        (* Revenue of both requests = 2 * (1 * 2.0) = 4; the relaxation
           must be at least that. *)
        Alcotest.(check bool) "bound dominates" true
          (match lp.Tvnep.Solver.objective with
          | Some v -> v >= 4.0 -. 1e-6
          | None -> false));
  ]

let discrete_tests =
  [
    Alcotest.test_case "slot counting" `Quick (fun () ->
        let inst = free_mapping_instance () in
        Alcotest.(check int) "2h horizon, 0.5h slots" 4
          (Tvnep.Discrete_model.num_slots inst
             { Tvnep.Discrete_model.default_options with slot_width = 0.5 }));
    Alcotest.test_case "discrete never beats continuous" `Slow (fun () ->
        let rng = Workload.Rng.create 41L in
        let p = { Tvnep.Scenario.scaled with num_requests = 3; flexibility = 1.5 } in
        let inst = Tvnep.Scenario.generate rng p in
        let mip = { Mip.Branch_bound.default_params with time_limit = 90.0 } in
        let cont = Tvnep.Solver.run inst (Tvnep.Solver.Options.make ~mip ()) in
        let disc =
          Tvnep.Discrete_model.solve
            ~options:{ Tvnep.Discrete_model.default_options with slot_width = 1.0 }
            ~mip inst
        in
        match (cont.Tvnep.Solver.objective, disc.Tvnep.Solver.objective) with
        | Some c, Some d
          when cont.Tvnep.Solver.status = Tvnep.Solver.Optimal
               && disc.Tvnep.Solver.status = Tvnep.Solver.Optimal ->
          Alcotest.(check bool)
            (Printf.sprintf "discrete %g <= continuous %g" d c)
            true (d <= c +. 1e-6)
        | _ -> ());
    Alcotest.test_case "discrete solutions validate" `Slow (fun () ->
        let rng = Workload.Rng.create 43L in
        let p = { Tvnep.Scenario.scaled with num_requests = 3; flexibility = 2.0 } in
        let inst = Tvnep.Scenario.generate rng p in
        let o =
          Tvnep.Discrete_model.solve
            ~mip:{ Mip.Branch_bound.default_params with time_limit = 60.0 }
            inst
        in
        match o.Tvnep.Solver.solution with
        | Some sol ->
          Alcotest.(check bool) "valid" true (Tvnep.Validator.is_feasible inst sol)
        | None -> ());
    Alcotest.test_case "requests without admissible slots are rejected" `Quick
      (fun () ->
        (* Duration 1h in a [0.3, 1.4] window: no integer slot boundary
           admits it at width 1.0, so the only feasible choice is
           rejection. *)
        let g = Graphs.Generators.grid ~rows:1 ~cols:2 in
        let substrate = Tvnep.Substrate.uniform g ~node_cap:5.0 ~link_cap:5.0 in
        let rg = Graphs.Generators.star ~leaves:1 ~orientation:Graphs.Generators.From_center in
        let r =
          Tvnep.Request.make ~name:"r" ~graph:rg ~node_demand:[| 1.0; 1.0 |]
            ~link_demand:[| 0.5 |] ~duration:1.0 ~start_min:0.3 ~end_max:1.4
        in
        let inst =
          Tvnep.Instance.make
            ~node_mappings:[| [| 0; 1 |] |]
            ~substrate ~requests:[| r |] ~horizon:2.0 ()
        in
        let o = Tvnep.Discrete_model.solve inst in
        match o.Tvnep.Solver.objective with
        | Some v -> feq 1e-9 "rejected" 0.0 v
        | None -> Alcotest.fail "expected an (empty) solution");
    Alcotest.test_case "without a budget, ticks are counted" `Quick (fun () ->
        (* No [?budget]: the solve derives one from [mip] and reads ticks
           and runtime off it, as it does off a caller's budget. *)
        let rng = Workload.Rng.create 43L in
        let p = { Tvnep.Scenario.scaled with num_requests = 2; flexibility = 1.0 } in
        let inst = Tvnep.Scenario.generate rng p in
        let own = Tvnep.Discrete_model.solve inst in
        let given =
          Tvnep.Discrete_model.solve
            ~budget:(Runtime.Budget.create ~deterministic:2e9 ())
            inst
        in
        Alcotest.(check bool) "ticks > 0" true (own.Tvnep.Solver.ticks > 0);
        Alcotest.(check int) "same ticks as on a caller's budget"
          given.Tvnep.Solver.ticks own.Tvnep.Solver.ticks;
        Alcotest.(check bool) "runtime > 0" true
          (own.Tvnep.Solver.runtime > 0.0));
  ]

let seeding_tests =
  [
    Alcotest.test_case "lifted greedy seeds are model-feasible" `Slow (fun () ->
        (* The lifted greedy solution must satisfy all three formulations'
           constraints — this pins the lifting construction itself. *)
        let rng = Workload.Rng.create 47L in
        let p = { Tvnep.Scenario.scaled with num_requests = 4; flexibility = 1.5 } in
        let inst = Tvnep.Scenario.generate rng p in
        let greedy_sol, _ = Tvnep.Greedy.run inst in
        List.iter
          (fun kind ->
            let fm, _ =
              Tvnep.Solver.build inst (Tvnep.Solver.Options.make ~kind ())
            in
            let arr = fm.Tvnep.Formulation.lift greedy_sol in
            let sf = Lp.Std_form.of_model fm.Tvnep.Formulation.model in
            Alcotest.(check bool)
              (Tvnep.Solver.model_kind_to_string kind ^ " lift feasible")
              true
              (Lp.Std_form.is_feasible_point sf arr))
          [ Tvnep.Solver.Delta; Tvnep.Solver.Sigma; Tvnep.Solver.Csigma ]);
    Alcotest.test_case "seeded solve never ends below the greedy" `Slow
      (fun () ->
        let rng = Workload.Rng.create 53L in
        let p = { Tvnep.Scenario.scaled with num_requests = 4; flexibility = 2.0 } in
        let inst = Tvnep.Scenario.generate rng p in
        let greedy_sol, _ = Tvnep.Greedy.run inst in
        let o =
          Tvnep.Solver.run inst
            (Tvnep.Solver.Options.make ~seed_with_greedy:true
               ~mip:{ Mip.Branch_bound.default_params with time_limit = 10.0 }
               ())
        in
        match o.Tvnep.Solver.objective with
        | Some v ->
          Alcotest.(check bool) "at least greedy" true
            (v >= greedy_sol.Tvnep.Solution.objective -. 1e-6)
        | None -> Alcotest.fail "seed should guarantee an incumbent");
  ]

(* Two unit-duration requests forced onto the same host pair: back-to-back
   is the best any schedule can do. *)
let makespan_fixture () =
  let g = Graphs.Generators.grid ~rows:1 ~cols:2 in
  let substrate = Tvnep.Substrate.uniform g ~node_cap:2.0 ~link_cap:2.0 in
  let rg = Graphs.Generators.star ~leaves:1 ~orientation:Graphs.Generators.From_center in
  let mk name =
    Tvnep.Request.make ~name ~graph:rg ~node_demand:[| 1.5; 1.5 |]
      ~link_demand:[| 0.5 |] ~duration:1.0 ~start_min:0.0 ~end_max:4.0
  in
  Tvnep.Instance.make
    ~node_mappings:[| [| 0; 1 |]; [| 0; 1 |] |]
    ~substrate
    ~requests:[| mk "A"; mk "B" |]
    ~horizon:4.0 ()

let makespan_tests =
  [
    Alcotest.test_case "minimal makespan of a forced sequence" `Quick (fun () ->
        let inst = makespan_fixture () in
        let o =
          Tvnep.Solver.run inst
            (Tvnep.Solver.Options.make ~objective:Tvnep.Objective.Min_makespan
               ~mip:{ Mip.Branch_bound.default_params with time_limit = 60.0 }
               ())
        in
        (match o.Tvnep.Solver.objective with
        | Some v -> feq 1e-5 "back-to-back makespan" 2.0 v
        | None -> Alcotest.fail "no solution");
        match o.Tvnep.Solver.solution with
        | Some sol ->
          Alcotest.(check bool) "valid" true (Tvnep.Validator.is_feasible inst sol)
        | None -> Alcotest.fail "no solution");
    Alcotest.test_case "makespan objective name and embedding policy" `Quick
      (fun () ->
        Alcotest.(check string) "name" "makespan"
          (Tvnep.Objective.name Tvnep.Objective.Min_makespan);
        Alcotest.(check bool) "fixes x_R" true
          (Tvnep.Objective.requires_full_embedding Tvnep.Objective.Min_makespan));
  ]

(* A hose-model virtual cluster (the paper's remark that such requests
   fit the same formulations): a star whose centre is a zero-demand
   switch, with a link in each direction between the switch and every
   VM. *)
let virtual_cluster ~name ~start =
  let graph = Graphs.Digraph.create 3 in
  List.iter
    (fun (src, dst) -> ignore (Graphs.Digraph.add_edge graph ~src ~dst))
    [ (1, 0); (0, 1); (2, 0); (0, 2) ];
  Tvnep.Request.make ~name ~graph ~node_demand:[| 0.0; 1.0; 1.0 |]
    ~link_demand:[| 0.5; 0.5; 0.5; 0.5 |] ~duration:1.0 ~start_min:start
    ~end_max:(start +. 2.0)

let hose_tests =
  [
    Alcotest.test_case "clusters solve end to end" `Slow (fun () ->
        let g = Graphs.Generators.grid ~rows:2 ~cols:2 in
        let substrate = Tvnep.Substrate.uniform g ~node_cap:2.0 ~link_cap:2.0 in
        let inst =
          Tvnep.Instance.make
            ~node_mappings:[| [| 0; 1; 2 |]; [| 3; 1; 2 |] |]
            ~substrate
            ~requests:
              [| virtual_cluster ~name:"vc1" ~start:0.0;
                 virtual_cluster ~name:"vc2" ~start:0.5 |]
            ~horizon:3.0 ()
        in
        let o =
          Tvnep.Solver.run inst
            (Tvnep.Solver.Options.make
               ~mip:{ Mip.Branch_bound.default_params with time_limit = 60.0 }
               ())
        in
        match o.Tvnep.Solver.solution with
        | Some sol ->
          Alcotest.(check bool) "valid" true (Tvnep.Validator.is_feasible inst sol);
          Alcotest.(check int) "both clusters fit" 2
            (Tvnep.Solution.num_accepted sol)
        | None -> Alcotest.fail "no solution");
  ]

let hybrid_and_preplaced_tests =
  [
    Alcotest.test_case "greedy honours preplacements" `Quick (fun () ->
        let inst = makespan_fixture () in
        (* Force request 1 to the front; request 0 must then be scheduled
           after it. *)
        let sol, _ = Tvnep.Greedy.run ~preplaced:[ (1, 0.0) ] inst in
        Alcotest.(check bool) "valid" true (Tvnep.Validator.is_feasible inst sol);
        let a0 = sol.Tvnep.Solution.assignments.(0) in
        let a1 = sol.Tvnep.Solution.assignments.(1) in
        feq 1e-9 "preplaced start" 0.0 a1.Tvnep.Solution.t_start;
        Alcotest.(check bool) "other follows" true
          (a0.Tvnep.Solution.t_start >= a1.Tvnep.Solution.t_end -. 1e-9));
    Alcotest.test_case "bad preplacements rejected" `Quick (fun () ->
        let inst = makespan_fixture () in
        Alcotest.(check bool) "window violation raises" true
          (try
             ignore (Tvnep.Greedy.run ~preplaced:[ (0, 99.0) ] inst);
             false
           with Invalid_argument _ -> true);
        Alcotest.(check bool) "out of range raises" true
          (try
             ignore (Tvnep.Greedy.run ~preplaced:[ (7, 0.0) ] inst);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "hybrid solves and validates" `Slow (fun () ->
        let rng = Workload.Rng.create 61L in
        let p = { Tvnep.Scenario.scaled with num_requests = 5; flexibility = 2.0 } in
        let inst = Tvnep.Scenario.generate rng p in
        let o =
          Tvnep.Solver.run inst
            (Tvnep.Solver.Options.make ~method_:Tvnep.Solver.Hybrid
               ~heavy_fraction:0.4
               ~mip:{ Mip.Branch_bound.default_params with time_limit = 30.0 }
               ())
        in
        let sol =
          match o.Tvnep.Solver.solution with
          | Some sol -> sol
          | None -> Alcotest.fail "no solution"
        in
        let heavy =
          match o.Tvnep.Solver.hybrid with
          | Some h -> h.Tvnep.Solver.heavy
          | None -> Alcotest.fail "no hybrid detail"
        in
        Alcotest.(check bool) "valid" true (Tvnep.Validator.is_feasible inst sol);
        Alcotest.(check int) "two heavy hitters" 2 (List.length heavy);
        (* heavy hitters are the highest-revenue requests *)
        let revenue i =
          let r = Tvnep.Instance.request inst i in
          r.Tvnep.Request.duration *. Tvnep.Request.total_node_demand r
        in
        let heavy_min =
          List.fold_left (fun acc i -> Float.min acc (revenue i)) infinity heavy
        in
        List.iter
          (fun i ->
            if not (List.mem i heavy) then
              Alcotest.(check bool) "light below heavy" true
                (revenue i <= heavy_min +. 1e-9))
          (List.init (Tvnep.Instance.num_requests inst) (fun i -> i)));
    Alcotest.test_case "hybrid at least matches plain greedy" `Slow (fun () ->
        let rng = Workload.Rng.create 67L in
        let p = { Tvnep.Scenario.scaled with num_requests = 5; flexibility = 2.0 } in
        let inst = Tvnep.Scenario.generate rng p in
        let plain, _ = Tvnep.Greedy.run inst in
        let hybrid =
          let o =
            Tvnep.Solver.run inst
              (Tvnep.Solver.Options.make ~method_:Tvnep.Solver.Hybrid
                 ~mip:{ Mip.Branch_bound.default_params with time_limit = 30.0 }
                 ())
          in
          match o.Tvnep.Solver.solution with
          | Some sol -> sol
          | None -> Alcotest.fail "no solution"
        in
        (* Not a theorem in general, but the exact heavy pass plus a
           second greedy chance should not collapse on these seeds; treat
           a large regression as a bug. *)
        Alcotest.(check bool) "no collapse" true
          (hybrid.Tvnep.Solution.objective
          >= 0.8 *. plain.Tvnep.Solution.objective));
  ]

let gantt_tests =
  [
    Alcotest.test_case "render shape" `Quick (fun () ->
        let inst = makespan_fixture () in
        let sol, _ = Tvnep.Greedy.run inst in
        let text = Tvnep.Gantt.render ~width:40 inst sol in
        let lines = String.split_on_char '\n' text in
        (* header + one row per request + trailing newline *)
        Alcotest.(check int) "line count" 4 (List.length lines);
        Alcotest.(check bool) "marks execution" true
          (String.contains text '#');
        Alcotest.(check bool) "marks windows" true (String.contains text '.'));
    Alcotest.test_case "rejected requests show window only" `Quick (fun () ->
        let inst = makespan_fixture () in
        let sol =
          {
            Tvnep.Solution.assignments =
              Array.map Tvnep.Solution.rejected inst.Tvnep.Instance.requests;
            objective = 0.0;
          }
        in
        let text = Tvnep.Gantt.render ~width:30 inst sol in
        Alcotest.(check bool) "no execution marks" false
          (String.contains text '#');
        Alcotest.(check bool) "labelled rejected" true
          (String.length text > 0
          && String.split_on_char '\n' text
             |> List.exists (fun l ->
                    String.length l >= 8
                    && String.sub l (String.length l - 8) 8 = "rejected")));
  ]

let suite =
  [
    ("tvnep.free_mapping", free_mapping_tests);
    ("tvnep.discrete", discrete_tests);
    ("tvnep.seeding", seeding_tests);
    ("tvnep.makespan", makespan_tests);
    ("tvnep.hose", hose_tests);
    ("tvnep.hybrid", hybrid_and_preplaced_tests);
    ("tvnep.gantt", gantt_tests);
  ]
