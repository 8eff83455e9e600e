(* Randomized rounding: the decomposition's convex-combination shape, the
   seeded repair loop, determinism of the Rounded solver method, the
   greedy fall-through on repair exhaustion, and the rounding_* stats
   JSON (optional fields, no schema bump). *)

module Solver = Tvnep.Solver
module Rounding = Tvnep.Rounding
module Rng = Workload.Rng
module Rstats = Runtime.Stats

let scenario ?(k = 4) ?(flex = 1.0) seed =
  let rng = Rng.create seed in
  Tvnep.Scenario.generate rng
    { Tvnep.Scenario.scaled with num_requests = k; flexibility = flex }

(* A single-link bottleneck where at most one of two requests fits: the
   LP relaxation accepts fractional mass of both, so a rounding draw can
   accept both at once — a jointly infeasible pre-placement the greedy
   realization rejects, which is exactly what drives the repair loop. *)
let contended () =
  let g = Graphs.Digraph.create 2 in
  ignore (Graphs.Digraph.add_edge g ~src:0 ~dst:1);
  let substrate = Tvnep.Substrate.uniform g ~node_cap:10.0 ~link_cap:1.0 in
  let rg =
    Graphs.Generators.star ~leaves:1 ~orientation:Graphs.Generators.From_center
  in
  let mk name =
    Tvnep.Request.make ~name ~graph:rg ~node_demand:[| 0.1; 0.1 |]
      ~link_demand:[| 0.9 |] ~duration:1.0 ~start_min:0.0 ~end_max:1.5
  in
  Tvnep.Instance.make
    ~node_mappings:[| [| 0; 1 |]; [| 0; 1 |] |]
    ~substrate
    ~requests:[| mk "a"; mk "b" |]
    ~horizon:2.0 ()

let lp_decomposition inst =
  let o = Solver.Options.make ~method_:Solver.Lp_only () in
  let fm, _ = Solver.build inst o in
  let result = Lp.Simplex.solve_model fm.Tvnep.Formulation.model in
  Alcotest.(check bool) "LP optimal" true
    (result.Lp.Simplex.status = Lp.Simplex.Optimal);
  Rounding.decompose inst fm ~value:(fun id -> result.Lp.Simplex.x.(id))

let unit_tests =
  [
    Alcotest.test_case "decompose: a convex combination per request" `Quick
      (fun () ->
        let inst = scenario 7L in
        let decomp = lp_decomposition inst in
        Alcotest.(check bool) "some mass" true (Array.length decomp > 0);
        Array.iter
          (fun (d : Rounding.request_decomposition) ->
            Alcotest.(check bool) "accept_prob in [0,1]" true
              (d.Rounding.accept_prob >= 0.0 && d.Rounding.accept_prob <= 1.0);
            Alcotest.(check bool) "has candidates" true
              (Array.length d.Rounding.candidates > 0);
            let total =
              Array.fold_left
                (fun acc (c : Rounding.candidate) -> acc +. c.Rounding.weight)
                0.0 d.Rounding.candidates
            in
            Alcotest.(check (float 1e-9)) "weights normalized" 1.0 total;
            let r = Tvnep.Instance.request inst d.Rounding.request in
            Array.iter
              (fun (c : Rounding.candidate) ->
                Alcotest.(check bool) "start inside the window" true
                  (c.Rounding.start >= r.Tvnep.Request.start_min -. 1e-9
                  && c.Rounding.start +. r.Tvnep.Request.duration
                     <= r.Tvnep.Request.end_max +. 1e-9))
              d.Rounding.candidates)
          decomp);
    Alcotest.test_case "sample is a function of the seed" `Quick (fun () ->
        let decomp = lp_decomposition (scenario 11L) in
        let draw seed = Rounding.sample (Rng.create seed) decomp in
        Alcotest.(check bool) "same seed, same draw" true
          (draw 42L = draw 42L);
        let distinct =
          List.exists
            (fun s -> draw s <> draw 42L)
            [ 1L; 2L; 3L; 4L; 5L; 6L; 7L; 8L ]
        in
        Alcotest.(check bool) "some other seed differs" true distinct);
    Alcotest.test_case "round: bounded retries, then exhaustion" `Quick
      (fun () ->
        let decomp = lp_decomposition (scenario 13L) in
        let stats = Rstats.create () in
        let calls = ref 0 in
        let never _ =
          incr calls;
          None
        in
        let r =
          Rounding.round ~rng:(Rng.create 1L) ~max_repairs:3 ~stats decomp
            ~realize:never
        in
        Alcotest.(check bool) "exhausted" true (r = None);
        Alcotest.(check int) "max_repairs + 1 attempts" 4 !calls;
        Alcotest.(check int) "attempts counted" 4 stats.Rstats.rounding_attempts;
        Alcotest.(check int) "repairs counted" 3 stats.Rstats.rounding_repairs);
    Alcotest.test_case "round: succeeds after one repair" `Quick (fun () ->
        let decomp = lp_decomposition (scenario 13L) in
        let stats = Rstats.create () in
        let calls = ref 0 in
        let second_try chosen =
          incr calls;
          if !calls >= 2 then Some chosen else None
        in
        let r =
          Rounding.round ~rng:(Rng.create 1L) ~max_repairs:3 ~stats decomp
            ~realize:second_try
        in
        Alcotest.(check bool) "realized" true (r <> None);
        Alcotest.(check int) "two attempts" 2 stats.Rstats.rounding_attempts;
        Alcotest.(check int) "one repair" 1 stats.Rstats.rounding_repairs);
    Alcotest.test_case "Rounded: feasible, valid, and bounded by the LP"
      `Quick (fun () ->
        let inst = scenario ~k:5 17L in
        let o = Solver.Options.make ~method_:Solver.Rounded () in
        let outcome = Solver.run inst o in
        Alcotest.(check bool) "feasible" true
          (outcome.Solver.status = Solver.Feasible);
        (match outcome.Solver.solution with
        | None -> Alcotest.fail "expected a solution"
        | Some sol ->
          Alcotest.(check bool) "validator-approved" true
            (Tvnep.Validator.is_feasible inst sol);
          Alcotest.(check bool) "objective below the LP bound" true
            (sol.Tvnep.Solution.objective
            <= outcome.Solver.bound +. 1e-6));
        Alcotest.(check bool) "at least one attempt" true
          (outcome.Solver.stats.Rstats.rounding_attempts >= 1);
        Alcotest.(check bool) "candidates decomposed" true
          (outcome.Solver.stats.Rstats.rounding_candidates >= 1));
    Alcotest.test_case "Rounded: byte-identical under one seed" `Quick
      (fun () ->
        let inst = scenario ~k:5 19L in
        let run seed =
          Solver.run inst
            (Solver.Options.make ~method_:Solver.Rounded
               ~rounding:{ Rounding.default_params with seed }
               ())
        in
        let a = run 5L and b = run 5L in
        Alcotest.(check bool) "same status" true
          (a.Solver.status = b.Solver.status);
        Alcotest.(check bool) "same solution" true
          (a.Solver.solution = b.Solver.solution);
        Alcotest.(check int) "same ticks" a.Solver.ticks b.Solver.ticks;
        Alcotest.(check int) "same attempts"
          a.Solver.stats.Rstats.rounding_attempts
          b.Solver.stats.Rstats.rounding_attempts);
    Alcotest.test_case "Rounded: repair fires and exhaustion falls to greedy"
      `Quick (fun () ->
        let inst = contended () in
        (* Hunt a seed whose first draw accepts both requests at once —
           jointly infeasible, so realization rejects the draw.  The LP
           and the draws are deterministic, so the found seed is stable. *)
        let seeds = List.init 64 (fun i -> Int64.of_int (i + 1)) in
        let failing =
          List.find_opt
            (fun seed ->
              let o =
                Solver.run inst
                  (Solver.Options.make ~method_:Solver.Rounded
                     ~rounding:
                       { Rounding.default_params with seed; max_repairs = 0 }
                     ())
              in
              o.Solver.stats.Rstats.rounding_fallbacks > 0)
            seeds
        in
        match failing with
        | None ->
          Alcotest.fail
            "no seed produced an infeasible first draw on the contended \
             instance"
        | Some seed ->
          (* max_repairs = 0: the failed draw exhausts the repair budget
             immediately and the solve falls through to plain greedy. *)
          let fallen =
            Solver.run inst
              (Solver.Options.make ~method_:Solver.Rounded
                 ~rounding:
                   { Rounding.default_params with seed; max_repairs = 0 }
                 ())
          in
          let greedy =
            Solver.run inst (Solver.Options.make ~method_:Solver.Greedy ())
          in
          Alcotest.(check int) "one fallback" 1
            fallen.Solver.stats.Rstats.rounding_fallbacks;
          Alcotest.(check int) "no repairs at max_repairs = 0" 0
            fallen.Solver.stats.Rstats.rounding_repairs;
          (match (fallen.Solver.solution, greedy.Solver.solution) with
          | Some f, Some g ->
            Alcotest.(check (float 1e-9)) "greedy's objective"
              g.Tvnep.Solution.objective f.Tvnep.Solution.objective
          | _ -> Alcotest.fail "both runs should carry a solution");
          (* With repairs allowed, the same seed re-draws its way to a
             feasible rounding instead of falling through. *)
          let repaired =
            Solver.run inst
              (Solver.Options.make ~method_:Solver.Rounded
                 ~rounding:
                   { Rounding.default_params with seed; max_repairs = 8 }
                 ())
          in
          Alcotest.(check bool) "repairs counted" true
            (repaired.Solver.stats.Rstats.rounding_repairs > 0));
    Alcotest.test_case "Rounded: path flow form" `Quick (fun () ->
        let inst = scenario ~k:4 23L in
        let outcome =
          Solver.run inst
            (Solver.Options.make ~method_:Solver.Rounded
               ~flow_form:Solver.Path ())
        in
        Alcotest.(check bool) "feasible" true
          (outcome.Solver.status = Solver.Feasible);
        match outcome.Solver.solution with
        | None -> Alcotest.fail "expected a solution"
        | Some sol ->
          Alcotest.(check bool) "validator-approved" true
            (Tvnep.Validator.is_feasible inst sol);
          Alcotest.(check bool) "colgen stats present" true
            (outcome.Solver.colgen <> None));
    Alcotest.test_case "Rounded: guard rails" `Quick (fun () ->
        let g = Graphs.Generators.grid ~rows:1 ~cols:2 in
        let substrate =
          Tvnep.Substrate.uniform g ~node_cap:1.0 ~link_cap:1.0
        in
        let rg =
          Graphs.Generators.star ~leaves:1
            ~orientation:Graphs.Generators.From_center
        in
        let r =
          Tvnep.Request.make ~name:"r" ~graph:rg ~node_demand:[| 0.5; 0.5 |]
            ~link_demand:[| 0.5 |] ~duration:1.0 ~start_min:0.0 ~end_max:1.0
        in
        let free =
          Tvnep.Instance.make ~substrate ~requests:[| r |] ~horizon:1.0 ()
        in
        Alcotest.check_raises "free mappings rejected"
          (Invalid_argument "Solver.run: Rounded requires fixed node mappings")
          (fun () ->
            ignore
              (Solver.run free
                 (Solver.Options.make ~method_:Solver.Rounded ())));
        let fixed = scenario ~k:2 29L in
        Alcotest.check_raises "forced rejected"
          (Invalid_argument
             "Solver.run: forced requests are not supported with Rounded")
          (fun () ->
            ignore
              (Solver.run fixed
                 (Solver.Options.make ~method_:Solver.Rounded ~forced:[ 0 ] ())));
        Alcotest.check_raises "negative max_repairs rejected"
          (Invalid_argument "Rounding: max_repairs must be non-negative")
          (fun () ->
            ignore
              (Solver.Options.make
                 ~rounding:{ Rounding.default_params with max_repairs = -1 }
                 ())));
    Alcotest.test_case "Rounded: clean exhaustion on a dead budget" `Quick
      (fun () ->
        let inst = scenario ~k:3 31L in
        let budget = Runtime.Budget.create ~time_limit:0.0 () in
        let outcome =
          Solver.run inst
            (Solver.Options.make ~method_:Solver.Rounded ~budget ())
        in
        Alcotest.(check bool) "budget_exhausted" true
          (outcome.Solver.status = Solver.Budget_exhausted);
        Alcotest.(check bool) "no solution" true
          (outcome.Solver.solution = None));
    Alcotest.test_case "outcome JSON round-trips rounding stats" `Quick
      (fun () ->
        let inst = scenario ~k:4 37L in
        let outcome =
          Solver.run inst (Solver.Options.make ~method_:Solver.Rounded ())
        in
        let doc = Solver.outcome_to_json outcome in
        match Solver.outcome_of_json doc with
        | Error e -> Alcotest.fail e
        | Ok back ->
          Alcotest.(check bool) "method survives" true
            (back.Solver.method_used = Solver.Rounded);
          Alcotest.(check int) "attempts survive"
            outcome.Solver.stats.Rstats.rounding_attempts
            back.Solver.stats.Rstats.rounding_attempts;
          Alcotest.(check int) "candidates survive"
            outcome.Solver.stats.Rstats.rounding_candidates
            back.Solver.stats.Rstats.rounding_candidates;
          Alcotest.(check int) "fallbacks survive"
            outcome.Solver.stats.Rstats.rounding_fallbacks
            back.Solver.stats.Rstats.rounding_fallbacks);
    Alcotest.test_case
      "old stats documents (no rounding_*; with eta_entries) still decode"
      `Quick (fun () ->
        let s = Stats_fixture.distinct 1 in
        let doc = Rstats.to_json s in
        Alcotest.(check string) "encoding as recorded" Stats_fixture.encoded
          (Statsutil.Json.to_compact_string doc);
        let fields =
          match doc with
          | Statsutil.Json.Obj fields -> fields
          | _ -> Alcotest.fail "stats encode as an object"
        in
        (* Documents written before the rounding counters existed, and
           documents that still carry the retired product-form
           [eta_entries] counter. *)
        let no_rounding =
          List.filter
            (fun (name, _) ->
              not
                (String.length name >= 9 && String.sub name 0 9 = "rounding_"))
            fields
        in
        let with_eta = ("eta_entries", Statsutil.Json.Num 42.0) :: fields in
        let without_rounding =
          {
            (Stats_fixture.distinct 1) with
            Rstats.rounding_attempts = 0;
            rounding_candidates = 0;
            rounding_repairs = 0;
            rounding_fallbacks = 0;
          }
        in
        List.iter
          (fun (label, doc, expected) ->
            match Rstats.of_json (Statsutil.Json.Obj doc) with
            | Error e -> Alcotest.failf "%s: %s" label e
            | Ok back ->
              Alcotest.check Stats_fixture.stats
                (label ^ ": every field decodes") expected back;
              Alcotest.(check string) (label ^ ": re-encodes without it")
                (Statsutil.Json.to_string (Rstats.to_json back))
                (Statsutil.Json.to_string (Rstats.to_json expected)))
          [
            ("complete", fields, s);
            ("no rounding_*", no_rounding, without_rounding);
            ("eta_entries", with_eta, s);
          ];
        (* Strict on malformed counters. *)
        List.iter
          (fun (label, bad) ->
            match Rstats.of_json bad with
            | Ok _ -> Alcotest.failf "%s: decoded" label
            | Error _ -> ())
          [
            ("not an object", Statsutil.Json.List []);
            ( "string counter",
              Statsutil.Json.Obj [ ("bb_nodes", Statsutil.Json.Str "7") ] );
            ( "bool counter",
              Statsutil.Json.Obj
                [ ("greedy_lp_solves", Statsutil.Json.Bool true) ] );
            ( "fractional counter",
              Statsutil.Json.Obj [ ("bb_nodes", Statsutil.Json.Num 3.5) ] );
            ( "counter beyond the int range",
              Statsutil.Json.Obj [ ("bb_nodes", Statsutil.Json.Num 1e300) ] );
          ]);
  ]

let suite = [ ("rounding", unit_tests) ]
