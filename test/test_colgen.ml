(* Column generation for the link flows: the incremental-column LP API,
   the restricted master against the arc form, and the colgen stats in
   the outcome JSON.

   The load-bearing invariant is flow decomposition: every arc flow
   splits into simple paths (cycles only add load), so at convergence —
   pricing proves no path column can enter — the path master's LP
   optimum equals the full arc-form LP optimum.  The equivalence tests
   below pin exactly that. *)

module Solver = Tvnep.Solver
module Json = Statsutil.Json

let work_rate = 2e9

let det_budget ?(time_limit = 20.0) () =
  Runtime.Budget.create ~deterministic:work_rate ~time_limit ()

let scenario ?(k = 3) ?(flex = 1.0) seed =
  let rng = Workload.Rng.create seed in
  Tvnep.Scenario.generate rng
    { Tvnep.Scenario.scaled with num_requests = k; flexibility = flex }

let mip ?(jobs = 1) () =
  { Mip.Branch_bound.default_params with time_limit = 20.0; jobs }

let run_lp ?(colgen = Tvnep.Colgen_model.default_params) ?(jobs = 1) flow_form
    inst =
  Solver.run inst
    (Solver.Options.make ~method_:Solver.Lp_only ~flow_form ~colgen
       ~mip:(mip ~jobs ()) ~budget:(det_budget ()) ())

let run_exact ?(colgen = Tvnep.Colgen_model.default_params) ?(jobs = 1)
    flow_form inst =
  Solver.run inst
    (Solver.Options.make ~method_:Solver.Exact ~flow_form ~colgen
       ~mip:(mip ~jobs ()) ~budget:(det_budget ()) ())

let objective name (o : Solver.outcome) =
  match o.Solver.objective with
  | Some v -> v
  | None -> Alcotest.failf "%s: no objective (status %s)" name
              (Solver.status_to_string o.Solver.status)

(* A substrate where the hop-count seed path cannot carry the demand: one
   direct 0->1 link of capacity 1 against a two-hop detour 0->2->1 of
   capacity 5, and a single request with one virtual link of demand 2
   mapped onto hosts 0 and 1.  Seeded with k = 1 path, the restricted
   master can only accept half the request — pricing must discover the
   detour to close the gap to the arc form. *)
let bottleneck_instance () =
  let g = Graphs.Digraph.create 3 in
  ignore (Graphs.Digraph.add_edge g ~src:0 ~dst:1);
  ignore (Graphs.Digraph.add_edge g ~src:0 ~dst:2);
  ignore (Graphs.Digraph.add_edge g ~src:2 ~dst:1);
  let substrate =
    Tvnep.Substrate.make g ~node_cap:[| 10.0; 10.0; 10.0 |]
      ~link_cap:[| 1.0; 5.0; 5.0 |]
  in
  let rg =
    Graphs.Generators.star ~leaves:1 ~orientation:Graphs.Generators.From_center
  in
  let r =
    Tvnep.Request.make ~name:"a" ~graph:rg ~node_demand:[| 1.0; 1.0 |]
      ~link_demand:[| 2.0 |] ~duration:1.0 ~start_min:0.0 ~end_max:2.0
  in
  Tvnep.Instance.make ~node_mappings:[| [| 0; 1 |] |] ~substrate
    ~requests:[| r |] ~horizon:3.0 ()

(* Two virtual nodes of one request share host 0, one of them with a
   demand of 1e-10 — below [Lina.Tol.is_zero], so the arc form drops it
   from host 0's allocation.  Host 0's capacity of 0.5 binds, so the
   coefficient decides the LP optimum x_R = 0.5 / coefficient. *)
let tiny_demand_instance () =
  let g = Graphs.Digraph.create 2 in
  ignore (Graphs.Digraph.add_edge g ~src:0 ~dst:1);
  ignore (Graphs.Digraph.add_edge g ~src:1 ~dst:0);
  let substrate =
    Tvnep.Substrate.make g ~node_cap:[| 0.5; 10.0 |] ~link_cap:[| 5.0; 5.0 |]
  in
  let rg =
    Graphs.Generators.star ~leaves:2 ~orientation:Graphs.Generators.From_center
  in
  let r =
    Tvnep.Request.make ~name:"tiny" ~graph:rg ~node_demand:[| 1.0; 1e-10; 1.0 |]
      ~link_demand:[| 1.0; 1.0 |] ~duration:1.0 ~start_min:0.0 ~end_max:2.0
  in
  Tvnep.Instance.make ~node_mappings:[| [| 0; 0; 1 |] |] ~substrate
    ~requests:[| r |] ~horizon:3.0 ()

let lp_column_tests =
  [
    Alcotest.test_case "append_columns == of_model with the column last"
      `Quick (fun () ->
        (* max x + 2y (+ 3z + w + u/2) st x + y (+ z + 2w) <= 4,
           x (+ z + 3/4 w + 3u) <= 3.  Splicing z, w and u into the form
           of the model without them must give, bit for bit, the form of
           the model that declares them as its last variables.  w's
           entries repeat row 1 (0.5 + 0.25), and u's cancel in row 0
           (1 - 1): the splice must sum repeats and drop the zero as the
           model does. *)
        let build ~with_z =
          let m = Lp.Model.create () in
          let x = Lp.Model.add_var m ~lb:0.0 ~ub:10.0 in
          let y = Lp.Model.add_var m ~lb:0.0 ~ub:10.0 in
          let extra =
            if with_z then
              List.init 3 (fun _ -> Lp.Model.add_var m ~lb:0.0 ~ub:10.0)
            else []
          in
          (* [cs] lists each extra variable's coefficients in the row. *)
          let terms cs =
            if extra = [] then []
            else
              List.concat
                (List.map2 (fun v c -> List.map (fun c -> (v, c)) c) extra cs)
          in
          Lp.Model.add_le m
            ([ (x, 1.0); (y, 1.0) ] @ terms [ [ 1.0 ]; [ 2.0 ]; [ 1.0; -1.0 ] ])
            4.0;
          Lp.Model.add_le m
            ((x, 1.0) :: terms [ [ 1.0 ]; [ 0.5; 0.25 ]; [ 3.0 ] ])
            3.0;
          Lp.Model.set_objective m Lp.Model.Maximize
            ([ (x, 1.0); (y, 2.0) ] @ terms [ [ 3.0 ]; [ 1.0 ]; [ 0.5 ] ]);
          Lp.Std_form.of_model m
        in
        let column col_cost col_entries =
          { Lp.Std_form.col_cost; col_lb = 0.0; col_ub = 10.0; col_entries }
        in
        let spliced =
          Lp.Std_form.append_columns (build ~with_z:false)
            [
              column 3.0 [ (0, 1.0); (1, 1.0) ];
              column 1.0 [ (1, 0.5); (0, 2.0); (1, 0.25) ];
              column 0.5 [ (0, 1.0); (1, 3.0); (0, -1.0) ];
            ]
        in
        let declared = build ~with_z:true in
        let ints = Alcotest.(check (array int)) in
        let bits name a b =
          Alcotest.(check (array int64)) name
            (Array.map Int64.bits_of_float a)
            (Array.map Int64.bits_of_float b)
        in
        let open Lp.Std_form in
        ints "dims" [| declared.n_struct; declared.n_rows |]
          [| spliced.n_struct; spliced.n_rows |];
        ints "col_ptr" declared.a.Lina.Csc.col_ptr spliced.a.Lina.Csc.col_ptr;
        ints "row_idx" declared.a.Lina.Csc.row_idx spliced.a.Lina.Csc.row_idx;
        bits "value" declared.a.Lina.Csc.value spliced.a.Lina.Csc.value;
        bits "cost" declared.cost spliced.cost;
        bits "lb" declared.lb spliced.lb;
        bits "ub" declared.ub spliced.ub;
        bits "objective constant and factor"
          [| declared.obj_const; declared.obj_factor |]
          [| spliced.obj_const; spliced.obj_factor |];
        Alcotest.(check (array bool)) "integer" declared.integer
          spliced.integer;
        ints "u's cancelled row 0 is gone" [| 1 |]
          (let p = spliced.a.Lina.Csc.col_ptr in
           [| p.(5) - p.(4) |]);
        (* z enters both rows: z = 3 binds the second row, leaving y = 1
           in the first — objective 3·3 + 2·1 = 11 (duals 2 and 1 price
           w and u out). *)
        Alcotest.(check (float 1e-9))
          "value" 11.0 (Lp.Simplex.solve spliced).Lp.Simplex.objective);
    Alcotest.test_case "session splice reuses the basis" `Quick (fun () ->
        let m = Lp.Model.create () in
        let x = Lp.Model.add_var m ~lb:0.0 ~ub:10.0 in
        let y = Lp.Model.add_var m ~lb:0.0 ~ub:10.0 in
        Lp.Model.add_le m [ (x, 1.0); (y, 1.0) ] 4.0;
        Lp.Model.set_objective m Lp.Model.Maximize [ (x, 1.0); (y, 2.0) ];
        let sf0 = Lp.Std_form.of_model m in
        let session = Lp.Simplex.create_session sf0 in
        let solve sf =
          Lp.Simplex.session_solve session ~lb:sf.Lp.Std_form.lb
            ~ub:sf.Lp.Std_form.ub ()
        in
        let r0 = solve sf0 in
        Alcotest.(check (float 1e-9)) "before" 8.0 r0.Lp.Simplex.objective;
        let sf1 =
          Lp.Simplex.session_add_columns session
            [
              {
                Lp.Std_form.col_cost = 3.0;
                col_lb = 0.0;
                col_ub = 10.0;
                col_entries = [ (0, 1.0) ];
              };
            ]
        in
        Alcotest.(check int) "grew" (sf0.Lp.Std_form.n_struct + 1)
          sf1.Lp.Std_form.n_struct;
        let stats = Runtime.Stats.create () in
        let r1 =
          Lp.Simplex.session_solve session ~stats ~primal:true
            ~lb:sf1.Lp.Std_form.lb ~ub:sf1.Lp.Std_form.ub ()
        in
        Alcotest.(check (float 1e-9)) "after" 12.0 r1.Lp.Simplex.objective;
        (* The continuation must not pay a cold start: entering z and
           leaving y is one pivot's work, not a fresh phase 1. *)
        Alcotest.(check bool) "few pivots" true
          (stats.Runtime.Stats.simplex_iterations <= 3));
  ]

let colgen_tests =
  [
    Alcotest.test_case "pricing escapes the seed bottleneck" `Quick (fun () ->
        let inst = bottleneck_instance () in
        let starved =
          { Tvnep.Colgen_model.default_params with seed_paths = 1 }
        in
        let arc = run_lp Solver.Arc inst in
        let path = run_lp ~colgen:starved Solver.Path inst in
        let c = Option.get path.Solver.colgen in
        Alcotest.(check bool) "columns generated" true
          (c.Solver.columns_generated >= 1);
        Alcotest.(check bool) "converged" true c.Solver.colgen_converged;
        Alcotest.(check string) "optimal" "optimal"
          (Solver.status_to_string path.Solver.status);
        Alcotest.(check (float 1e-6))
          "master closes the arc-form gap"
          (objective "arc" arc) (objective "path" path));
    Alcotest.test_case "LP equivalence on seed scenarios" `Quick (fun () ->
        List.iter
          (fun (seed, k) ->
            let inst = scenario ~k seed in
            let arc = run_lp Solver.Arc inst in
            let path = run_lp Solver.Path inst in
            let name = Printf.sprintf "seed %Ld" seed in
            Alcotest.(check string) (name ^ " status") "optimal"
              (Solver.status_to_string path.Solver.status);
            Alcotest.(check bool) (name ^ " converged") true
              (Option.get path.Solver.colgen).Solver.colgen_converged;
            Alcotest.(check (float 1e-6))
              (name ^ " objective") (objective "arc" arc)
              (objective "path" path))
          [ (1L, 3); (5L, 4) ]);
    Alcotest.test_case "exact agrees with the arc form" `Quick (fun () ->
        let inst = scenario ~k:3 ~flex:1.5 7L in
        let arc = run_exact Solver.Arc inst in
        let path = run_exact Solver.Path inst in
        Alcotest.(check string) "status" "optimal"
          (Solver.status_to_string path.Solver.status);
        Alcotest.(check (float 1e-6))
          "objective" (objective "arc" arc) (objective "path" path);
        let sol = Option.get path.Solver.solution in
        Alcotest.(check bool) "feasible" true
          (Tvnep.Validator.is_feasible inst sol);
        (* Path-form solutions reconstruct per-vlink flows (fractions,
           same convention as the arc form) from the column registry; the
           validator already checked capacity and conservation, here we
           pin that every cross-host vlink of an accepted request lands a
           full unit at its destination host. *)
        let sub = inst.Tvnep.Instance.substrate in
        let sgraph = Tvnep.Substrate.graph sub in
        Array.iteri
          (fun i (a : Tvnep.Solution.assignment) ->
            if a.Tvnep.Solution.accepted then
              let r = Tvnep.Instance.request inst i in
              Array.iteri
                (fun lv flows ->
                  let hosts = a.Tvnep.Solution.node_map in
                  let e = Graphs.Digraph.edge r.Tvnep.Request.graph lv in
                  let src = hosts.(e.Graphs.Digraph.src)
                  and dst = hosts.(e.Graphs.Digraph.dst) in
                  if src <> dst then begin
                    let into = ref 0.0 in
                    List.iter
                      (fun (ls, frac) ->
                        let se = Graphs.Digraph.edge sgraph ls in
                        if se.Graphs.Digraph.dst = dst then into := !into +. frac;
                        if se.Graphs.Digraph.src = dst then into := !into -. frac)
                      flows;
                    Alcotest.(check (float 1e-6))
                      (Printf.sprintf "req %d vlink %d routed" i lv)
                      1.0 !into
                  end)
                a.Tvnep.Solution.link_flows)
          sol.Tvnep.Solution.assignments);
    Alcotest.test_case "generation is idempotent at the optimum" `Quick
      (fun () ->
        (* Pricing correctness from the public surface: once [generate]
           reports convergence, a second pass against the same duals must
           find nothing (every reduced cost is nonnegative). *)
        let inst = bottleneck_instance () in
        let cg =
          Tvnep.Colgen_model.build
            ~params:{ Tvnep.Colgen_model.default_params with seed_paths = 1 }
            inst
        in
        let budget = det_budget () in
        let r1 = Tvnep.Colgen_model.generate ~budget cg in
        Alcotest.(check bool) "first converges" true r1.Tvnep.Colgen_model.converged;
        let r2 = Tvnep.Colgen_model.generate ~budget cg in
        Alcotest.(check int) "nothing new" 0 r2.Tvnep.Colgen_model.generated;
        Alcotest.(check bool) "still converged" true
          r2.Tvnep.Colgen_model.converged;
        Alcotest.(check (float 1e-9))
          "same value" r1.Tvnep.Colgen_model.lp.Lp.Simplex.objective
          r2.Tvnep.Colgen_model.lp.Lp.Simplex.objective);
    Alcotest.test_case "jobs does not change the outcome" `Quick (fun () ->
        let inst = scenario ~k:4 3L in
        let a = run_exact ~jobs:1 Solver.Path inst in
        let b = run_exact ~jobs:4 Solver.Path inst in
        Alcotest.(check string) "json identical"
          (Json.to_string (Solver.outcome_to_json a))
          (Json.to_string (Solver.outcome_to_json b)));
    Alcotest.test_case "path form rejects missing prerequisites" `Quick
      (fun () ->
        let g = Graphs.Generators.grid ~rows:2 ~cols:2 in
        let substrate =
          Tvnep.Substrate.uniform g ~node_cap:10.0 ~link_cap:10.0
        in
        let rg =
          Graphs.Generators.star ~leaves:1
            ~orientation:Graphs.Generators.From_center
        in
        let r =
          Tvnep.Request.make ~name:"a" ~graph:rg ~node_demand:[| 1.0; 1.0 |]
            ~link_demand:[| 1.0 |] ~duration:1.0 ~start_min:0.0 ~end_max:2.0
        in
        let free =
          Tvnep.Instance.make ~substrate ~requests:[| r |] ~horizon:3.0 ()
        in
        Alcotest.check_raises "no mappings"
          (Invalid_argument
             "Colgen_model.build: path master requires fixed node mappings")
          (fun () ->
            ignore (run_lp Solver.Path free));
        let inst = scenario 1L in
        Alcotest.check_raises "csigma only"
          (Invalid_argument "Solver.run: flow_form Path requires the csigma model")
          (fun () ->
            ignore
              (Solver.run inst
                 (Solver.Options.make ~method_:Solver.Lp_only
                    ~kind:Solver.Delta ~flow_form:Solver.Path ()))));
    Alcotest.test_case "a tiny node demand is dropped as in the arc form"
      `Quick (fun () ->
        let inst = tiny_demand_instance () in
        let coefficients (fm : Tvnep.Formulation.t) =
          Array.map
            (fun terms -> List.map (fun (_, c) -> Int64.bits_of_float c) terms)
            fm.Tvnep.Formulation.embeddings.(0).Tvnep.Embedding.node_alloc
        in
        let arc = Tvnep.Csigma_model.build inst in
        let path =
          Tvnep.Colgen_model.formulation (Tvnep.Colgen_model.build inst)
        in
        Alcotest.(check (array (list int64)))
          "node allocation coefficients" (coefficients arc) (coefficients path);
        let arc_lp = run_lp Solver.Arc inst
        and path_lp = run_lp Solver.Path inst in
        Alcotest.(check bool) "converged" true
          (Option.get path_lp.Solver.colgen).Solver.colgen_converged;
        Alcotest.(check int64) "LP optimum"
          (Int64.bits_of_float (objective "arc" arc_lp))
          (Int64.bits_of_float (objective "path" path_lp)));
  ]

let json_tests =
  [
    Alcotest.test_case "colgen stats round-trip" `Quick (fun () ->
        let inst = scenario ~k:3 1L in
        let o = run_exact Solver.Path inst in
        Alcotest.(check bool) "has stats" true (o.Solver.colgen <> None);
        match Solver.outcome_of_json (Solver.outcome_to_json o) with
        | Error e -> Alcotest.failf "decode failed: %s" e
        | Ok o' ->
          Alcotest.(check bool) "colgen equal" true
            (o.Solver.colgen = o'.Solver.colgen);
          Alcotest.(check string) "re-encode identical"
            (Json.to_string (Solver.outcome_to_json o))
            (Json.to_string (Solver.outcome_to_json o')));
    Alcotest.test_case "pre-colgen documents still decode" `Quick (fun () ->
        (* Same schema version, field absent entirely — an old writer's
           output must decode to [colgen = None]. *)
        let inst = scenario ~k:3 1L in
        let o = run_exact Solver.Arc inst in
        let doc =
          match Solver.outcome_to_json o with
          | Json.Obj fields ->
            Json.Obj (List.filter (fun (k, _) -> k <> "colgen") fields)
          | _ -> Alcotest.fail "object expected"
        in
        Alcotest.(check bool) "fixture lacks the field" true
          (Json.member "colgen" doc = None);
        match Solver.outcome_of_json doc with
        | Error e -> Alcotest.failf "decode failed: %s" e
        | Ok o' ->
          Alcotest.(check bool) "colgen absent" true (o'.Solver.colgen = None);
          Alcotest.(check (option (float 1e-9)))
            "objective survives" o.Solver.objective o'.Solver.objective);
  ]

let suite =
  [
    ("colgen.lp", lp_column_tests);
    ("colgen.master", colgen_tests);
    ("colgen.json", json_tests);
  ]
