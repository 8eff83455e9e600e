(* Cross-model tests: Δ, Σ and cΣ must agree on optima; every solver
   solution must pass the independent validator; objectives behave. *)

let feq tol = Alcotest.(check (float tol))

let quick_mip time_limit =
  { Mip.Branch_bound.default_params with time_limit }

let solve ?(objective = Tvnep.Objective.Access_control) ?(time_limit = 60.0)
    kind inst =
  Tvnep.Solver.run inst
    (Tvnep.Solver.Options.make ~kind ~objective ~mip:(quick_mip time_limit) ())

(* Tiny deterministic instance: single-node substrate pair, two requests
   competing for one node. *)
let contention_instance ~flex =
  let g = Graphs.Generators.grid ~rows:1 ~cols:2 in
  let substrate = Tvnep.Substrate.uniform g ~node_cap:2.0 ~link_cap:1.0 in
  let request name =
    let rg = Graphs.Generators.star ~leaves:1 ~orientation:Graphs.Generators.From_center in
    Tvnep.Request.make ~name ~graph:rg ~node_demand:[| 1.5; 1.5 |]
      ~link_demand:[| 0.8 |] ~duration:1.0 ~start_min:0.0 ~end_max:(1.0 +. flex)
  in
  Tvnep.Instance.make
    ~node_mappings:[| [| 0; 1 |]; [| 0; 1 |] |]
    ~substrate
    ~requests:[| request "A"; request "B" |]
    ~horizon:(1.0 +. flex) ()

let contention_tests =
  [
    Alcotest.test_case "zero flexibility forces rejection" `Quick (fun () ->
        (* Both requests need node 0 (demand 1.5 each, cap 2.0) in the same
           unit window: only one fits.  Revenue per request = 3. *)
        let inst = contention_instance ~flex:0.0 in
        let o = solve Tvnep.Solver.Csigma inst in
        (match o.Tvnep.Solver.objective with
        | Some v -> feq 1e-6 "one accepted" 3.0 v
        | None -> Alcotest.fail "no solution");
        match o.Tvnep.Solver.solution with
        | Some sol ->
          Alcotest.(check int) "accepted" 1 (Tvnep.Solution.num_accepted sol)
        | None -> Alcotest.fail "no solution");
    Alcotest.test_case "flexibility enables both" `Quick (fun () ->
        (* With one unit of slack the requests can run back to back. *)
        let inst = contention_instance ~flex:1.0 in
        let o = solve Tvnep.Solver.Csigma inst in
        (match o.Tvnep.Solver.objective with
        | Some v -> feq 1e-6 "both accepted" 6.0 v
        | None -> Alcotest.fail "no solution");
        match o.Tvnep.Solver.solution with
        | Some sol ->
          Alcotest.(check int) "accepted" 2 (Tvnep.Solution.num_accepted sol);
          (match Tvnep.Validator.check inst sol with
          | Ok () -> ()
          | Error es -> Alcotest.fail (String.concat "; " es))
        | None -> Alcotest.fail "no solution");
    Alcotest.test_case "all three models agree on the contention pair" `Slow
      (fun () ->
        List.iter
          (fun flex ->
            let inst = contention_instance ~flex in
            let expected = if flex >= 1.0 then 6.0 else 3.0 in
            List.iter
              (fun kind ->
                let o = solve kind inst in
                match o.Tvnep.Solver.objective with
                | Some v ->
                  feq 1e-5
                    (Printf.sprintf "%s at flex %g"
                       (Tvnep.Solver.model_kind_to_string kind) flex)
                    expected v
                | None ->
                  Alcotest.fail
                    (Tvnep.Solver.model_kind_to_string kind ^ ": no solution"))
              [ Tvnep.Solver.Delta; Tvnep.Solver.Sigma; Tvnep.Solver.Csigma ])
          [ 0.0; 1.0 ]);
  ]

let link_bottleneck_tests =
  [
    Alcotest.test_case "link capacity forces sequencing" `Quick (fun () ->
        (* Two requests each needing 0.8 of the single 1.0-capacity link:
           they cannot overlap, but fit sequentially with flexibility. *)
        let g = Graphs.Digraph.create 2 in
        ignore (Graphs.Digraph.add_edge g ~src:0 ~dst:1);
        let substrate = Tvnep.Substrate.uniform g ~node_cap:10.0 ~link_cap:1.0 in
        let request name =
          let rg = Graphs.Generators.star ~leaves:1 ~orientation:Graphs.Generators.From_center in
          Tvnep.Request.make ~name ~graph:rg ~node_demand:[| 0.1; 0.1 |]
            ~link_demand:[| 0.8 |] ~duration:1.0 ~start_min:0.0 ~end_max:2.0
        in
        let inst =
          Tvnep.Instance.make
            ~node_mappings:[| [| 0; 1 |]; [| 0; 1 |] |]
            ~substrate
            ~requests:[| request "A"; request "B" |]
            ~horizon:2.0 ()
        in
        let o = solve Tvnep.Solver.Csigma inst in
        (match o.Tvnep.Solver.solution with
        | Some sol ->
          Alcotest.(check int) "both accepted" 2 (Tvnep.Solution.num_accepted sol);
          Alcotest.(check bool) "valid" true (Tvnep.Validator.is_feasible inst sol);
          (* verify they do not overlap *)
          let a = sol.Tvnep.Solution.assignments.(0) in
          let b = sol.Tvnep.Solution.assignments.(1) in
          Alcotest.(check bool) "sequenced" true
            (a.Tvnep.Solution.t_end <= b.Tvnep.Solution.t_start +. 1e-6
            || b.Tvnep.Solution.t_end <= a.Tvnep.Solution.t_start +. 1e-6)
        | None -> Alcotest.fail "no solution"));
    Alcotest.test_case "splittable flow uses parallel paths" `Quick (fun () ->
        (* Demand 1.5 on links of capacity 1: must split across the two
           disjoint paths of a 2x2 grid. *)
        let g = Graphs.Generators.grid ~rows:2 ~cols:2 in
        let substrate = Tvnep.Substrate.uniform g ~node_cap:10.0 ~link_cap:1.0 in
        let rg = Graphs.Generators.star ~leaves:1 ~orientation:Graphs.Generators.From_center in
        let request =
          Tvnep.Request.make ~name:"split" ~graph:rg ~node_demand:[| 0.5; 0.5 |]
            ~link_demand:[| 1.5 |] ~duration:1.0 ~start_min:0.0 ~end_max:1.0
        in
        let inst =
          Tvnep.Instance.make
            ~node_mappings:[| [| 0; 3 |] |]  (* opposite corners *)
            ~substrate ~requests:[| request |] ~horizon:1.0 ()
        in
        let o = solve Tvnep.Solver.Csigma inst in
        match o.Tvnep.Solver.solution with
        | Some sol ->
          Alcotest.(check int) "accepted" 1 (Tvnep.Solution.num_accepted sol);
          Alcotest.(check bool) "valid" true (Tvnep.Validator.is_feasible inst sol)
        | None -> Alcotest.fail "no solution");
  ]

(* Cross-model agreement on random instances — the central equivalence
   property of the three formulations. *)
let cross_model_properties =
  [
    Seeded.to_alcotest ~seed:6101
      (QCheck2.Test.make ~name:"delta = sigma = csigma on random instances"
         ~count:6
         QCheck2.Gen.(int_bound 10_000)
         (fun seed ->
           let rng = Workload.Rng.create (Int64.of_int (seed + 101)) in
           let p =
             { Tvnep.Scenario.scaled with
               num_requests = 2;
               grid_rows = 2;
               grid_cols = 2;
               flexibility = Workload.Rng.float_range rng 0.0 2.0 }
           in
           let inst = Tvnep.Scenario.generate rng p in
           let objective kind =
             (solve ~time_limit:120.0 kind inst).Tvnep.Solver.objective
           in
           match
             ( objective Tvnep.Solver.Delta,
               objective Tvnep.Solver.Sigma,
               objective Tvnep.Solver.Csigma )
           with
           | Some a, Some b, Some c ->
             let close x y =
               Float.abs (x -. y) < 1e-5 *. Float.max 1.0 (Float.abs x)
             in
             close a b && close b c
           | _ -> false));
    Seeded.to_alcotest ~seed:6102
      (QCheck2.Test.make
         ~name:"csigma solutions always pass the validator" ~count:8
         QCheck2.Gen.(int_bound 10_000)
         (fun seed ->
           let rng = Workload.Rng.create (Int64.of_int (seed + 303)) in
           let p =
             { Tvnep.Scenario.scaled with
               num_requests = 3;
               flexibility = Workload.Rng.float_range rng 0.0 3.0 }
           in
           let inst = Tvnep.Scenario.generate rng p in
           let o = solve ~time_limit:90.0 Tvnep.Solver.Csigma inst in
           match o.Tvnep.Solver.solution with
           | Some sol -> Tvnep.Validator.is_feasible inst sol
           | None -> o.Tvnep.Solver.status <> Tvnep.Solver.Optimal));
  ]

let objective_tests =
  [
    Alcotest.test_case "earliness prefers the earliest schedule" `Quick
      (fun () ->
        let inst = contention_instance ~flex:2.0 in
        let o = solve ~objective:Tvnep.Objective.Max_earliness Tvnep.Solver.Csigma inst in
        match o.Tvnep.Solver.solution with
        | Some sol ->
          Alcotest.(check bool) "valid" true (Tvnep.Validator.is_feasible inst sol);
          (* one request starts at 0, the other right after (node clash) *)
          let starts =
            Array.to_list sol.Tvnep.Solution.assignments
            |> List.map (fun (a : Tvnep.Solution.assignment) -> a.Tvnep.Solution.t_start)
            |> List.sort compare
          in
          (match starts with
          | [ s1; s2 ] ->
            feq 1e-5 "first at window open" 0.0 s1;
            feq 1e-5 "second back-to-back" 1.0 s2
          | _ -> Alcotest.fail "two requests")
        | None -> Alcotest.fail "no solution");
    Alcotest.test_case "load balance counts quiet nodes" `Quick (fun () ->
        let inst = contention_instance ~flex:2.0 in
        let o =
          solve ~objective:(Tvnep.Objective.Balance_node_load 0.9)
            Tvnep.Solver.Csigma inst
        in
        (* Node 0 carries 1.5 <= 0.9*2.0 = 1.8 when the requests do not
           overlap, node 1 likewise: both nodes can stay below the
           fraction. *)
        match o.Tvnep.Solver.objective with
        | Some v -> feq 1e-5 "both nodes balanced" 2.0 v
        | None -> Alcotest.fail "no solution");
    Alcotest.test_case "disable links counts idle links" `Quick (fun () ->
        let inst = contention_instance ~flex:2.0 in
        let o = solve ~objective:Tvnep.Objective.Disable_links Tvnep.Solver.Csigma inst in
        (* Substrate 1x2 grid has 2 directed links; both requests need the
           0->1 direction only, so exactly one link can be disabled. *)
        match o.Tvnep.Solver.objective with
        | Some v -> feq 1e-5 "one link off" 1.0 v
        | None -> Alcotest.fail "no solution");
    Alcotest.test_case "infeasible full embedding reported" `Quick (fun () ->
        (* Earliness requires embedding everything; with zero flexibility
           the contention pair cannot both run. *)
        let inst = contention_instance ~flex:0.0 in
        let o = solve ~objective:Tvnep.Objective.Max_earliness Tvnep.Solver.Csigma inst in
        Alcotest.(check bool) "infeasible" true
          (o.Tvnep.Solver.status = Tvnep.Solver.Infeasible));
    Alcotest.test_case "balance fraction validated" `Quick (fun () ->
        let inst = contention_instance ~flex:1.0 in
        Alcotest.(check bool) "raises" true
          (try
             ignore
               (solve ~objective:(Tvnep.Objective.Balance_node_load 1.5)
                  Tvnep.Solver.Csigma inst);
             false
           with Invalid_argument _ -> true));
  ]

let lp_strength_tests =
  [
    Alcotest.test_case "sigma relaxation is at least as strong as delta" `Quick
      (fun () ->
        (* On a maximization the LP bound of Σ must be <= that of Δ (the
           paper's Section III argument: Σ excludes Δ-feasible fractional
           points). *)
        let rng = Workload.Rng.create 77L in
        let p = { Tvnep.Scenario.scaled with num_requests = 3; flexibility = 1.5 } in
        let inst = Tvnep.Scenario.generate rng p in
        let bound kind =
          let o =
            Tvnep.Solver.run inst
              (Tvnep.Solver.Options.make ~method_:Tvnep.Solver.Lp_only ~kind ())
          in
          match o.Tvnep.Solver.objective with
          | Some v -> v
          | None -> Alcotest.fail "relaxation did not solve"
        in
        let delta = bound Tvnep.Solver.Delta in
        let sigma = bound Tvnep.Solver.Sigma in
        Alcotest.(check bool)
          (Printf.sprintf "sigma %g <= delta %g" sigma delta)
          true
          (sigma <= delta +. 1e-6));
    Alcotest.test_case "cuts tighten the csigma relaxation" `Quick (fun () ->
        let rng = Workload.Rng.create 78L in
        let p = { Tvnep.Scenario.scaled with num_requests = 4; flexibility = 1.0 } in
        let inst = Tvnep.Scenario.generate rng p in
        let bound ~use_cuts ~pairwise_cuts =
          let o =
            Tvnep.Solver.run inst
              (Tvnep.Solver.Options.make ~method_:Tvnep.Solver.Lp_only
                 ~use_cuts ~pairwise_cuts ())
          in
          match o.Tvnep.Solver.objective with
          | Some v -> v
          | None -> Alcotest.fail "relaxation did not solve"
        in
        let with_cuts = bound ~use_cuts:true ~pairwise_cuts:true in
        let without = bound ~use_cuts:false ~pairwise_cuts:false in
        Alcotest.(check bool)
          (Printf.sprintf "with %g <= without %g" with_cuts without)
          true
          (with_cuts <= without +. 1e-6));
  ]

(* Fingerprints of the standard form every formulation compiles to.

   Each case builds one model on a seeded scaled instance, compiles it
   with [Lp.Std_form.of_model] (in path form, after the root column
   generation too) and reduces the form to an MD5 of its dimensions,
   sparse structure, the bits of every float and the integrality flags.
   The digests were recorded before the model layer dropped its names
   and stored its rows flat; the simplex sees exactly this form, so any
   change to a row, a column order, a bound or a coefficient bit shows up
   here with the case that moved. *)

let std_form_digest (sf : Lp.Std_form.t) =
  let b = Buffer.create 65536 in
  let int i =
    Buffer.add_string b (string_of_int i);
    Buffer.add_char b ','
  in
  let float v =
    Buffer.add_string b (Int64.to_string (Int64.bits_of_float v));
    Buffer.add_char b ','
  in
  let section c = Buffer.add_char b c in
  int sf.Lp.Std_form.n_struct;
  int sf.Lp.Std_form.n_rows;
  let a = sf.Lp.Std_form.a in
  section 'P';
  Array.iter int a.Lina.Csc.col_ptr;
  section 'R';
  Array.iter int a.Lina.Csc.row_idx;
  section 'V';
  Array.iter float a.Lina.Csc.value;
  section 'C';
  Array.iter float sf.Lp.Std_form.cost;
  section 'L';
  Array.iter float sf.Lp.Std_form.lb;
  section 'U';
  Array.iter float sf.Lp.Std_form.ub;
  section 'O';
  float sf.Lp.Std_form.obj_const;
  float sf.Lp.Std_form.obj_factor;
  section 'I';
  Array.iter (fun z -> Buffer.add_char b (if z then '1' else '0'))
    sf.Lp.Std_form.integer;
  Digest.to_hex (Digest.string (Buffer.contents b))

let fingerprint_instance seed =
  Tvnep.Scenario.generate (Workload.Rng.create seed)
    { Tvnep.Scenario.scaled with num_requests = 4; flexibility = 1.0 }

let with_objective ?(objective = Tvnep.Objective.Access_control) fm =
  ignore (Tvnep.Objective.apply fm objective);
  Lp.Std_form.of_model fm.Tvnep.Formulation.model

let with_pairwise_cuts inst (fm : Tvnep.Formulation.t) =
  Tvnep.Formulation.add_pairwise_cuts fm.Tvnep.Formulation.model inst fm;
  fm

let csigma ~cuts inst =
  Tvnep.Csigma_model.build
    ~options:
      { Tvnep.Csigma_model.use_cuts = cuts; pairwise_cuts = cuts;
        relax_integrality = false }
    inst

(* The discrete model with the access-control objective that
   [Discrete_model.solve] installs. *)
let discrete_sf inst =
  let dm = Tvnep.Discrete_model.build inst in
  Lp.Model.set_objective dm.Tvnep.Discrete_model.model Lp.Model.Maximize
    (Tvnep.Objective.revenue_terms inst dm.Tvnep.Discrete_model.embeddings);
  Lp.Std_form.of_model dm.Tvnep.Discrete_model.model

let path_master ?(seed_paths = 2) inst =
  let cg =
    Tvnep.Colgen_model.build
      ~params:{ Tvnep.Colgen_model.default_params with seed_paths }
      inst
  in
  ignore
    (Tvnep.Objective.apply (Tvnep.Colgen_model.formulation cg)
       Tvnep.Objective.Access_control);
  cg

let move_cost inst =
  let start req = (Tvnep.Instance.request inst req).Tvnep.Request.start_min in
  Tvnep.Objective.Access_with_move_cost
    { weight = 0.5; reference = [ (0, start 0); (2, start 2 +. 0.5) ] }

let fingerprint_cases inst =
  [
    ("delta", fun () -> with_objective (Tvnep.Delta_model.build inst));
    ( "delta+cuts",
      fun () ->
        with_objective (with_pairwise_cuts inst (Tvnep.Delta_model.build inst))
    );
    ("sigma", fun () -> with_objective (Tvnep.Sigma_model.build inst));
    ( "sigma+cuts",
      fun () ->
        with_objective (with_pairwise_cuts inst (Tvnep.Sigma_model.build inst))
    );
    ("csigma", fun () -> with_objective (csigma ~cuts:true inst));
    ("csigma-nocuts", fun () -> with_objective (csigma ~cuts:false inst));
    ("discrete", fun () -> discrete_sf inst);
    ("path", fun () -> Tvnep.Colgen_model.std_form (path_master inst));
    ( "path-generated",
      fun () ->
        let cg = path_master ~seed_paths:1 inst in
        let budget =
          Runtime.Budget.create ~deterministic:2e9 ~time_limit:20.0 ()
        in
        let g = Tvnep.Colgen_model.generate ~budget cg in
        if g.Tvnep.Colgen_model.generated = 0 then
          Alcotest.fail "pricing generated no column";
        g.Tvnep.Colgen_model.sf );
  ]
  @ List.map
      (fun objective ->
        ( "csigma/" ^ Tvnep.Objective.name objective,
          fun () -> with_objective ~objective (csigma ~cuts:true inst) ))
      [
        Tvnep.Objective.Max_earliness;
        Tvnep.Objective.Balance_node_load 0.5;
        Tvnep.Objective.Disable_links;
        Tvnep.Objective.Min_makespan;
        move_cost inst;
      ]

let expected_fingerprints =
  [
    ("4242/delta", "65e5927e231082fc730ad56df02cb5a3");
    ("4242/delta+cuts", "a1f4c86ffdafbcf81e85f74a11504f3c");
    ("4242/sigma", "86a85d0271ce956f69581b64ffb5e577");
    ("4242/sigma+cuts", "48709fc289ba06f678cefca1528a7bcd");
    ("4242/csigma", "f9b3aa9599fe4bdda8390475eba6e1b1");
    ("4242/csigma-nocuts", "ad5484a404a5e3a2d5cbff590f8605b4");
    ("4242/discrete", "299bd8474996d3b61b7b51dfcb81a48c");
    ("4242/path", "59623e5c44aaf3eec98240605474560c");
    ("4242/path-generated", "43bff6fa70d1920c8bb61f5bad8a1e98");
    ("4242/csigma/earliness", "b8c7241d60bbf2461234cca026a4b7f3");
    ("4242/csigma/load-balance", "b85ff053a439a3698342d6baeeb8e790");
    ("4242/csigma/disable-links", "e2feab3040340c3f3704309612d3c5d9");
    ("4242/csigma/makespan", "77957469c53ed953b6fab08b1451cfe2");
    ("4242/csigma/access-move-cost", "dd95339fa44ae1aa8c584d6e87a17c0e");
    ("7/delta", "f12ebd3e5ff5f0053b8f9ddd1b5669ba");
    ("7/delta+cuts", "84e9affb461dc1973c2ce7ba466d9753");
    ("7/sigma", "e538bcf6952efed9e6c4fec923a8dbf8");
    ("7/sigma+cuts", "7113e7cb4ce91f82eb4708524baf4714");
    ("7/csigma", "8f208ec0ab7a37492356be5a224c4711");
    ("7/csigma-nocuts", "c703ab5567cfb32c926a173ddf4118bb");
    ("7/discrete", "96d3b9714b08ddb4997fa25c118b9e55");
    ("7/path", "cc9877c283fc7165b3356fce40a3c35a");
    ("7/path-generated", "87db376aa948aa3a2addc07170e76ea0");
    ("7/csigma/earliness", "9f5b8c7a7bef19ca2b9f08bd9d1c48ab");
    ("7/csigma/load-balance", "467808bcdaa5ec87d8192e47e151370e");
    ("7/csigma/disable-links", "3cb8cde3fe1ffa0e9b16e56734dc9727");
    ("7/csigma/makespan", "b8a896ea57a6b2261a858d453b34136f");
    ("7/csigma/access-move-cost", "ad0aba3a17643768c3afbe4ba64374a0");
  ]

(* Free node mappings: the x_V binaries, Constraint (1) and the
   flow-conservation right-hand side [x_V(src,s) - x_V(dst,s)]. *)
let free_mapping_instance () =
  let g = Graphs.Generators.grid ~rows:1 ~cols:3 in
  let substrate = Tvnep.Substrate.uniform g ~node_cap:1.0 ~link_cap:1.0 in
  let rg = Graphs.Generators.star ~leaves:1 ~orientation:Graphs.Generators.From_center in
  let mk name =
    Tvnep.Request.make ~name ~graph:rg ~node_demand:[| 1.0; 1.0 |]
      ~link_demand:[| 0.4 |] ~duration:1.0 ~start_min:0.0 ~end_max:2.0
  in
  Tvnep.Instance.make ~substrate ~requests:[| mk "A"; mk "B" |] ~horizon:2.0 ()

(* A zero node demand (A's centre, alone on host 0) and a zero link
   demand (B's link): the empty allocations must skip their
   a-variables, big-M rows and capacity rows. *)
let zero_demand_instance () =
  let g = Graphs.Generators.grid ~rows:1 ~cols:3 in
  let substrate = Tvnep.Substrate.uniform g ~node_cap:2.0 ~link_cap:1.0 in
  let rg = Graphs.Generators.star ~leaves:1 ~orientation:Graphs.Generators.From_center in
  let mk name ~node_demand ~link_demand ~start_min =
    Tvnep.Request.make ~name ~graph:rg ~node_demand ~link_demand
      ~duration:1.0 ~start_min ~end_max:3.0
  in
  Tvnep.Instance.make
    ~node_mappings:[| [| 0; 1 |]; [| 1; 2 |]; [| 2; 1 |] |]
    ~substrate
    ~requests:
      [|
        mk "A" ~node_demand:[| 0.0; 1.0 |] ~link_demand:[| 0.5 |] ~start_min:0.0;
        mk "B" ~node_demand:[| 1.0; 1.5 |] ~link_demand:[| 0.0 |] ~start_min:0.5;
        mk "C" ~node_demand:[| 1.0; 0.5 |] ~link_demand:[| 0.8 |] ~start_min:1.0;
      |]
    ~horizon:3.0 ()

(* A zero node capacity and a zero link capacity: the big-M bounds
   [-cap] must keep the +0 bits they had when the constant was moved
   across by the model layer; likewise the move-cost bound [-ref] at a
   zero reference start. *)
let zero_capacity_instance () =
  let g = Graphs.Generators.grid ~rows:1 ~cols:3 in
  let substrate =
    Tvnep.Substrate.make g ~node_cap:[| 0.0; 2.0; 2.0 |]
      ~link_cap:
        (Array.init (Graphs.Digraph.num_edges g) (fun e ->
             if e = 0 then 0.0 else 1.0))
  in
  let rg = Graphs.Generators.star ~leaves:1 ~orientation:Graphs.Generators.From_center in
  let mk name start_min =
    Tvnep.Request.make ~name ~graph:rg ~node_demand:[| 0.5; 1.0 |]
      ~link_demand:[| 0.5 |] ~duration:1.0 ~start_min ~end_max:3.0
  in
  Tvnep.Instance.make
    ~node_mappings:[| [| 0; 1 |]; [| 1; 2 |] |]
    ~substrate
    ~requests:[| mk "A" 0.0; mk "B" 0.5 |]
    ~horizon:3.0 ()

let shape_cases =
  let free = free_mapping_instance () and zero = zero_demand_instance () in
  let cap0 = zero_capacity_instance () in
  let move_cost =
    Tvnep.Objective.Access_with_move_cost
      { weight = 0.5; reference = [ (0, 0.0); (1, 0.0) ] }
  in
  [
    ("free/delta", fun () -> with_objective (Tvnep.Delta_model.build free));
    ("free/sigma", fun () -> with_objective (Tvnep.Sigma_model.build free));
    ("free/csigma", fun () -> with_objective (csigma ~cuts:true free));
    ("zero/sigma", fun () -> with_objective (Tvnep.Sigma_model.build zero));
    ("zero/csigma", fun () -> with_objective (csigma ~cuts:true zero));
    ("zero/discrete", fun () -> discrete_sf zero);
    ("cap0/delta", fun () -> with_objective (Tvnep.Delta_model.build cap0));
    ("cap0/sigma", fun () -> with_objective (Tvnep.Sigma_model.build cap0));
    ("cap0/csigma", fun () -> with_objective (csigma ~cuts:true cap0));
    ("cap0/discrete", fun () -> discrete_sf cap0);
    ( "cap0/csigma/access-move-cost",
      fun () -> with_objective ~objective:move_cost (csigma ~cuts:true cap0) );
  ]

let expected_shape_fingerprints =
  [
    ("free/delta", "99d7bf77600ec56ea5a61c6fd6777636");
    ("free/sigma", "61fa7ac61fa3a044c383d7107e0c0c8b");
    ("free/csigma", "4045fbac111e5f87119b6446d67612b4");
    ("zero/sigma", "ce523a08b5128c06f478ee688fbacfc2");
    ("zero/csigma", "a5111c86a94d24c245d22d1888d9235f");
    ("zero/discrete", "d9f9d87e80da9e3441f34dcd14c68bdb");
    ("cap0/delta", "cd830d6fa9c6b40452cc21fa438ca612");
    ("cap0/sigma", "b8009efb43aab68991d47a9953145410");
    ("cap0/csigma", "2a95733e88159960a15d4d66426c9b29");
    ("cap0/discrete", "1cccd7e5bf9e568e9bde733b995853b5");
    ("cap0/csigma/access-move-cost", "0e934a424e599eec44dc695810e2419c");
  ]

let check_digests expected cases =
  List.iter
    (fun (label, sf) ->
      let got = std_form_digest (sf ()) in
      match List.assoc_opt label expected with
      | Some want -> Alcotest.(check string) label want got
      | None -> Alcotest.failf "%s: no recorded digest" label)
    cases

let fingerprint_tests =
  [
    Alcotest.test_case "every formulation compiles to the recorded form"
      `Quick (fun () ->
        List.iter
          (fun seed ->
            check_digests expected_fingerprints
              (List.map
                 (fun (label, sf) -> (Printf.sprintf "%Ld/%s" seed label, sf))
                 (fingerprint_cases (fingerprint_instance seed))))
          [ 4242L; 7L ]);
    Alcotest.test_case "hand-built edge cases compile to the recorded form"
      `Quick (fun () -> check_digests expected_shape_fingerprints shape_cases);
  ]

let suite =
  [
    ("tvnep.models.contention", contention_tests);
    ("tvnep.models.links", link_bottleneck_tests);
    ("tvnep.models.cross", cross_model_properties);
    ("tvnep.objectives", objective_tests);
    ("tvnep.models.strength", lp_strength_tests);
    ("lp.std_form.fingerprint", fingerprint_tests);
  ]
