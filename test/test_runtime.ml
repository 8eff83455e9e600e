(* The runtime core: budgets (wall and deterministic work clock),
   budget-threading through the simplex and branch-and-bound, the
   one-clock accounting of the solver/hybrid layers, and the domain
   pool's order- and parallelism-invariance. *)

module Budget = Runtime.Budget

(* ---- Budget ----------------------------------------------------------- *)

let budget_tests =
  [
    Alcotest.test_case "deterministic clock advances by ticks" `Quick (fun () ->
        let b = Budget.create ~deterministic:100.0 ~time_limit:1.0 () in
        Alcotest.(check bool) "deterministic" true (Budget.is_deterministic b);
        Alcotest.(check (float 1e-12)) "starts at 0" 0.0 (Budget.elapsed b);
        Budget.tick ~n:50 b;
        Alcotest.(check (float 1e-12)) "50 ticks = 0.5s" 0.5 (Budget.elapsed b);
        Alcotest.(check bool) "within limit" false (Budget.out_of_time b);
        Budget.tick ~n:60 b;
        Alcotest.(check (float 1e-12)) "110 ticks = 1.1s" 1.1
          (Budget.elapsed b);
        Alcotest.(check bool) "exhausted" true (Budget.out_of_time b);
        Alcotest.(check (float 1e-12)) "remaining clamps at 0" 0.0
          (Budget.remaining b));
    Alcotest.test_case "sub-budgets share the clock" `Quick (fun () ->
        let parent = Budget.create ~deterministic:100.0 ~time_limit:1.0 () in
        Budget.tick ~n:50 parent;
        (* The child asks for 10s but only 0.5s remain on the parent. *)
        let child = Budget.sub ~time_limit:10.0 parent in
        Alcotest.(check (float 1e-12)) "child deadline capped" 0.5
          (Budget.time_limit child);
        Alcotest.(check (float 1e-12)) "child clock starts now" 0.0
          (Budget.elapsed child);
        (* Work billed against the child is visible to the parent. *)
        Budget.tick ~n:60 child;
        Alcotest.(check bool) "child exhausted" true (Budget.out_of_time child);
        Alcotest.(check bool) "parent exhausted too" true
          (Budget.out_of_time parent));
    Alcotest.test_case "node and iteration limits" `Quick (fun () ->
        let b = Budget.create ~node_limit:5 ~iter_limit:10 () in
        Alcotest.(check bool) "5 nodes ok" false (Budget.nodes_exhausted b 5);
        Alcotest.(check bool) "6 nodes out" true (Budget.nodes_exhausted b 6);
        Alcotest.(check bool) "9 iters ok" false (Budget.iters_exhausted b 9);
        Alcotest.(check bool) "10 iters out" true (Budget.iters_exhausted b 10);
        let unlimited = Budget.create () in
        Alcotest.(check bool) "no deadline" false
          (Budget.out_of_time unlimited);
        Alcotest.(check bool) "no node cap" false
          (Budget.nodes_exhausted unlimited max_int));
    Alcotest.test_case "forks isolate the clock; joins fold it back" `Quick
      (fun () ->
        let b = Budget.create ~deterministic:100.0 ~time_limit:1.0 () in
        Budget.tick ~n:30 b;
        let f1 = Budget.fork b and f2 = Budget.fork b in
        Alcotest.(check (float 1e-12)) "fork sees parent elapsed" 0.3
          (Budget.elapsed f1);
        Budget.tick ~n:50 f1;
        Alcotest.(check (float 1e-12)) "fork advances privately" 0.8
          (Budget.elapsed f1);
        Alcotest.(check (float 1e-12)) "sibling fork unaffected" 0.3
          (Budget.elapsed f2);
        Alcotest.(check (float 1e-12)) "parent unaffected" 0.3
          (Budget.elapsed b);
        Budget.tick ~n:90 f2;
        Alcotest.(check bool) "a fork can expire alone" true
          (Budget.out_of_time f2);
        Alcotest.(check bool) "parent still alive" false (Budget.out_of_time b);
        (* Joining in either order yields the same total (addition). *)
        Budget.join ~into:b f2;
        Budget.join ~into:b f1;
        Alcotest.(check int) "joined tick total" (30 + 50 + 90)
          (Budget.ticks b);
        Alcotest.(check bool) "parent now expired" true (Budget.out_of_time b));
    Alcotest.test_case "fork/join in wall mode keeps the tick counter" `Quick
      (fun () ->
        let b = Budget.create () in
        Budget.tick ~n:5 b;
        let f = Budget.fork ~iter_limit:7 b in
        Alcotest.(check int) "fork iter_limit override" 7 (Budget.iter_limit f);
        Budget.tick ~n:3 f;
        Alcotest.(check int) "parent not yet billed" 5 (Budget.ticks b);
        Budget.join ~into:b f;
        Alcotest.(check int) "ticks folded back" 8 (Budget.ticks b));
  ]

(* ---- Stats ------------------------------------------------------------ *)

let stats_tests =
  [
    Alcotest.test_case "merge sums counters and inverts the codec" `Quick
      (fun () ->
        let a = Runtime.Stats.create () and b = Runtime.Stats.create () in
        a.Runtime.Stats.simplex_iterations <- 3;
        b.Runtime.Stats.simplex_iterations <- 4;
        a.Runtime.Stats.lp_solves <- 1;
        b.Runtime.Stats.lp_solves <- 2;
        b.Runtime.Stats.bb_nodes <- 6;
        b.Runtime.Stats.incumbents <- 2;
        Runtime.Stats.merge ~into:a b;
        Alcotest.(check int) "iterations" 7 a.Runtime.Stats.simplex_iterations;
        Alcotest.(check int) "lp solves" 3 a.Runtime.Stats.lp_solves;
        Alcotest.(check int) "nodes" 6 a.Runtime.Stats.bb_nodes;
        Alcotest.(check int) "incumbents" 2 a.Runtime.Stats.incumbents;
        (* merging a zero record is the identity *)
        let before = Runtime.Stats.to_string a in
        Runtime.Stats.merge ~into:a (Runtime.Stats.create ());
        Alcotest.(check string) "zero is neutral" before
          (Runtime.Stats.to_string a);
        (* Every field: a swapped, dropped or reordered entry of the field
           table shows up here. *)
        let d = Stats_fixture.distinct 1 in
        Runtime.Stats.merge ~into:d (Stats_fixture.distinct 1);
        Alcotest.check Stats_fixture.stats "merge doubles every field"
          (Stats_fixture.distinct 2) d;
        let d = Stats_fixture.distinct 1 in
        Alcotest.(check string) "encoding as recorded" Stats_fixture.encoded
          (Statsutil.Json.to_compact_string (Runtime.Stats.to_json d));
        match Runtime.Stats.of_json (Runtime.Stats.to_json d) with
        | Error e -> Alcotest.fail e
        | Ok back ->
          Alcotest.check Stats_fixture.stats "of_json inverts to_json" d back);
    Alcotest.test_case "documents with the retired phase times decode" `Quick
      (fun () ->
        (* A stats object as written while Stats still carried four float
           phase durations after the counters: they are unknown members
           now, ignored on decode. *)
        let old =
          {|{"simplex_iterations":1,"refactorizations":2,"lp_solves":3,"ftran_nnz":4,"btran_nnz":5,"basis_updates":6,"spike_fill":7,"refactor_fill":8,"refactor_drift":9,"refactor_forced":10,"pricing_hits":11,"pricing_sweeps":12,"bb_nodes":13,"incumbents":14,"bound_updates":15,"greedy_lp_solves":16,"greedy_candidates":17,"greedy_accepted":18,"rounding_attempts":19,"rounding_candidates":20,"rounding_repairs":21,"rounding_fallbacks":22,"service_requests":23,"service_admitted":24,"service_denied":25,"service_fallbacks":26,"service_reevals":27,"greedy_time":0.5,"build_time":1.25,"search_time":2.125,"service_time":3.0625}|}
        in
        match Result.bind (Statsutil.Json.of_string old) Runtime.Stats.of_json with
        | Error e -> Alcotest.fail e
        | Ok s ->
          Alcotest.check Stats_fixture.stats "counters decoded"
            (Stats_fixture.distinct 1) s);
  ]

(* ---- Simplex under a budget ------------------------------------------- *)

(* A fixed random-ish LP big enough to need a few pivots. *)
let medium_lp () =
  let rng = Workload.Rng.create 11L in
  let m = Lp.Model.create () in
  let vars =
    Array.init 30 (fun _ ->
        Lp.Model.add_var m ~ub:(Workload.Rng.float_range rng 1.0 4.0))
  in
  for _ = 1 to 20 do
    Lp.Model.add_le m
      (Array.to_list
         (Array.map (fun x -> (x, Workload.Rng.float_range rng 0.0 2.0)) vars))
      (Workload.Rng.float_range rng 2.0 8.0)
  done;
  Lp.Model.set_objective m Lp.Model.Maximize
    (Array.to_list (Array.map (fun x -> (x, 1.0)) vars));
  m

let simplex_tests =
  [
    Alcotest.test_case "an exhausted budget stops the simplex" `Quick
      (fun () ->
        let r =
          Lp.Simplex.solve_model
            ~budget:(Budget.create ~time_limit:0.0 ())
            (medium_lp ())
        in
        Alcotest.(check string) "time limit" "time limit"
          (Lp.Simplex.status_to_string r.Lp.Simplex.status));
    Alcotest.test_case "pivots bill the shared budget" `Quick (fun () ->
        let b = Budget.create ~deterministic:1.0 () in
        let stats = Runtime.Stats.create () in
        let r = Lp.Simplex.solve_model ~budget:b ~stats (medium_lp ()) in
        Alcotest.(check bool) "optimal" true
          (r.Lp.Simplex.status = Lp.Simplex.Optimal);
        Alcotest.(check bool) "pivots recorded" true
          (stats.Runtime.Stats.simplex_iterations > 0);
        (* m² ticks per pivot: the budget clock must have advanced at
           least one tick per recorded pivot. *)
        Alcotest.(check bool) "clock advanced" true
          (Budget.ticks b >= stats.Runtime.Stats.simplex_iterations));
    Alcotest.test_case "iteration cap maps to Iter_limit" `Quick (fun () ->
        let r =
          Lp.Simplex.solve_model
            ~budget:(Budget.create ~iter_limit:1 ())
            (medium_lp ())
        in
        Alcotest.(check bool) "iter limit" true
          (r.Lp.Simplex.status = Lp.Simplex.Iter_limit));
  ]

(* ---- Branch-and-bound under a budget ---------------------------------- *)

(* A fractional knapsack: max 8a+11b+6c+4d, 5a+7b+4c+3d <= 14, binaries.
   The LP relaxation is fractional, so the search must branch; the
   integer optimum is 21 (b + c + d). *)
let knapsack () =
  let m = Lp.Model.create () in
  let v () = Lp.Model.add_var m ~kind:Lp.Model.Binary in
  let a = v () in
  let b = v () in
  let c = v () in
  let d = v () in
  let terms coeffs = List.combine [ a; b; c; d ] coeffs in
  Lp.Model.add_le m (terms [ 5.0; 7.0; 4.0; 3.0 ]) 14.0;
  Lp.Model.set_objective m Lp.Model.Maximize (terms [ 8.0; 11.0; 6.0; 4.0 ]);
  m

let mip_tests =
  [
    Alcotest.test_case "tiny budget: Time_limit with a valid bound" `Quick
      (fun () ->
        (* One deterministic tick of budget: the root node enters (elapsed
           is still 0), its LP prices out and bills m² ticks per pivot,
           and the second node hits the deadline — so the search stops at
           Time_limit with the root relaxation as its proved bound. *)
        let r =
          Mip.Branch_bound.solve
            ~budget:(Budget.create ~deterministic:1.0 ~time_limit:1.0 ())
            ~initial:[| 0.0; 1.0; 1.0; 1.0 |]
            (knapsack ())
        in
        Alcotest.(check bool) "time limit" true
          (r.Mip.Branch_bound.status = Mip.Branch_bound.Time_limit);
        Alcotest.(check bool) "bound is finite" true
          (Float.is_finite r.Mip.Branch_bound.best_bound);
        (* A valid dual bound dominates the integer optimum (21). *)
        Alcotest.(check bool) "bound dominates optimum" true
          (r.Mip.Branch_bound.best_bound >= 21.0 -. 1e-9);
        (* The seeded incumbent survives, so the gap is finite. *)
        Alcotest.(check (float 1e-9)) "incumbent kept" 21.0
          (match r.Mip.Branch_bound.objective with Some o -> o | None -> nan);
        Alcotest.(check bool) "gap finite and nonnegative" true
          (Float.is_finite r.Mip.Branch_bound.gap
          && r.Mip.Branch_bound.gap >= 0.0));
    Alcotest.test_case "same budget object reaches the node LPs" `Quick
      (fun () ->
        let b = Budget.create ~deterministic:1.0 () in
        let stats = Runtime.Stats.create () in
        let r = Mip.Branch_bound.solve ~budget:b ~stats (knapsack ()) in
        Alcotest.(check bool) "optimal" true
          (r.Mip.Branch_bound.status = Mip.Branch_bound.Optimal);
        Alcotest.(check (float 1e-6)) "optimum 21" 21.0
          (match r.Mip.Branch_bound.objective with Some o -> o | None -> nan);
        Alcotest.(check bool) "node LP pivots ticked the shared clock" true
          (Budget.ticks b >= stats.Runtime.Stats.simplex_iterations
          && stats.Runtime.Stats.simplex_iterations > 0
          && stats.Runtime.Stats.bb_nodes = r.Mip.Branch_bound.nodes));
    Alcotest.test_case "node budget limit maps to Node_limit" `Quick
      (fun () ->
        let r =
          Mip.Branch_bound.solve
            ~budget:(Budget.create ~node_limit:1 ())
            (knapsack ())
        in
        Alcotest.(check bool) "node limit" true
          (r.Mip.Branch_bound.status = Mip.Branch_bound.Node_limit));
    Alcotest.test_case "budget exhaustion mid-batch keeps a valid bound"
      `Quick (fun () ->
        (* Parallel version of the tiny-budget case: with four workers the
           deterministic deadline lands inside a batch, and the discarded
           remainder of that batch must still be covered by the reported
           bound (pending-bound bookkeeping) — stopping mid-round must
           never let the search claim a tighter bound than it proved. *)
        let params =
          { Mip.Branch_bound.default_params with jobs = 4; batch_size = 4 }
        in
        let r =
          Mip.Branch_bound.solve ~params
            ~budget:(Budget.create ~deterministic:1.0 ~time_limit:1.0 ())
            ~initial:[| 0.0; 1.0; 1.0; 1.0 |]
            (knapsack ())
        in
        Alcotest.(check bool) "time limit" true
          (r.Mip.Branch_bound.status = Mip.Branch_bound.Time_limit);
        Alcotest.(check bool) "bound dominates optimum" true
          (r.Mip.Branch_bound.best_bound >= 21.0 -. 1e-9);
        Alcotest.(check (float 1e-9)) "incumbent kept" 21.0
          (match r.Mip.Branch_bound.objective with Some o -> o | None -> nan));
  ]

(* ---- One-clock accounting through the solver stack -------------------- *)

let scenario_instance ?(flexibility = 1.0) seed =
  let rng = Workload.Rng.create seed in
  Tvnep.Scenario.generate rng
    { Tvnep.Scenario.scaled with num_requests = 4; flexibility }

(* Solve with a recorder; the outcome and the root [solve] phase, whose
   total must be the outcome's ticks (one clock for the whole solve). *)
let profiled_solve inst options =
  let prof = Runtime.Span.create () in
  let o = Tvnep.Solver.run inst (options ~prof) in
  match Runtime.Span.tree_of (Runtime.Span.spans prof) with
  | [ root ] ->
    Alcotest.(check string) "root phase" "solve" root.Runtime.Span.tree_name;
    Alcotest.(check int) "root total = outcome ticks" o.Tvnep.Solver.ticks
      root.Runtime.Span.total;
    (o, root)
  | roots -> Alcotest.failf "expected one root phase, got %d" (List.length roots)

let child (t : Runtime.Span.tree) name =
  match
    List.find_opt
      (fun (c : Runtime.Span.tree) -> c.Runtime.Span.tree_name = name)
      t.Runtime.Span.children
  with
  | Some c -> c
  | None -> Alcotest.failf "no %s phase under %s" name t.Runtime.Span.tree_name

let accounting_tests =
  [
    Alcotest.test_case "seeded solve bills greedy ticks to its greedy phase"
      `Slow (fun () ->
        let inst = scenario_instance 3L in
        let o, root =
          profiled_solve inst (fun ~prof ->
              Tvnep.Solver.Options.make ~seed_with_greedy:true
                ~budget:(Budget.create ~deterministic:1000.0 ())
                ~prof ())
        in
        Alcotest.(check bool) "greedy ran" true
          (o.Tvnep.Solver.stats.Runtime.Stats.greedy_lp_solves > 0);
        (* The regression this guards: runtime used to be only the B&B
           search, silently dropping the greedy seeding (and the model
           build) that ran on its own clock.  On one shared clock the
           seeding is a phase of the root solve, billed its own ticks. *)
        Alcotest.(check bool) "nonzero greedy phase" true
          ((child root "greedy").Runtime.Span.total > 0));
    Alcotest.test_case "trace sees the phases in order" `Slow (fun () ->
        (* The phases are the depth-1 spans under the root [solve]. *)
        let inst = scenario_instance 3L in
        let prof = Runtime.Span.create () in
        let o =
          Tvnep.Solver.run inst
            (Tvnep.Solver.Options.make ~seed_with_greedy:true
               ~budget:(Budget.create ~deterministic:1000.0 ())
               ~prof ())
        in
        ignore o;
        let phases =
          List.filter_map
            (fun (s : Runtime.Span.span) ->
              if s.Runtime.Span.depth = 1 then Some s.Runtime.Span.name
              else None)
            (Runtime.Span.spans prof)
        in
        Alcotest.(check (list string)) "build, greedy, search"
          [ "build"; "greedy"; "search" ] phases);
    Alcotest.test_case "without a budget, run honours mip.time_limit" `Quick
      (fun () ->
        (* No [~budget]: the solve derives its clock from the MIP
           parameters, so a zero time limit is already exhausted on
           entry — for the LP relaxation as much as for the search. *)
        let inst = scenario_instance 3L in
        let mip = { Mip.Branch_bound.default_params with time_limit = 0.0 } in
        List.iter
          (fun method_ ->
            let o =
              Tvnep.Solver.run inst
                (Tvnep.Solver.Options.make ~method_ ~mip ())
            in
            let label = Tvnep.Solver.method_to_string method_ in
            Alcotest.(check string) (label ^ " status") "budget_exhausted"
              (Tvnep.Solver.status_to_string o.Tvnep.Solver.status);
            Alcotest.(check int) (label ^ " ticks") 0 o.Tvnep.Solver.ticks)
          [ Tvnep.Solver.Exact; Tvnep.Solver.Lp_only ]);
    Alcotest.test_case "hybrid combines both passes on one clock" `Slow
      (fun () ->
        let inst = scenario_instance 3L in
        let o, root =
          profiled_solve inst (fun ~prof ->
              Tvnep.Solver.Options.make ~method_:Tvnep.Solver.Hybrid
                ~budget:(Budget.create ~deterministic:1000.0 ())
                ~prof ())
        in
        (* Exact pass and greedy scan ran sequentially on the shared
           clock: the heavy pass's own [solve] subtree and the greedy
           phase both sit inside the root, and together fit in it. *)
        let heavy = child root "solve" and greedy = child root "greedy" in
        (match o.Tvnep.Solver.hybrid with
        | Some h ->
          Alcotest.(check int) "heavy subtree = heavy outcome ticks"
            h.Tvnep.Solver.heavy_outcome.Tvnep.Solver.ticks
            heavy.Runtime.Span.total
        | None -> Alcotest.fail "no hybrid detail");
        Alcotest.(check bool) "both passes fit in the root" true
          (heavy.Runtime.Span.total + greedy.Runtime.Span.total
           <= root.Runtime.Span.total);
        Alcotest.(check bool) "counters merged" true
          (o.Tvnep.Solver.stats.Runtime.Stats.greedy_lp_solves > 0));
  ]

(* ---- Domain pool ------------------------------------------------------ *)

let pool_tests =
  [
    Alcotest.test_case "map matches sequential at any jobs level" `Quick
      (fun () ->
        let tasks = Array.init 100 (fun i -> i) in
        let f i = (i * i) + 1 in
        let seq = Runtime.Pool.map ~jobs:1 f tasks in
        let par = Runtime.Pool.map ~jobs:4 f tasks in
        Alcotest.(check (array int)) "same results in order" seq par);
    Alcotest.test_case "effective_jobs clamps sensibly" `Quick (fun () ->
        Alcotest.(check int) "jobs=1" 1 (Runtime.Pool.effective_jobs ~jobs:1 10);
        Alcotest.(check int) "more jobs than tasks" 3
          (Runtime.Pool.effective_jobs ~jobs:8 3);
        Alcotest.(check bool) "autodetect is positive" true
          (Runtime.Pool.effective_jobs ~jobs:0 10 >= 1);
        Alcotest.(check int) "no tasks, one worker" 1
          (Runtime.Pool.effective_jobs ~jobs:4 0));
    Alcotest.test_case "worker exceptions propagate" `Quick (fun () ->
        Alcotest.check_raises "failure surfaces" (Failure "task 13")
          (fun () ->
            ignore
              (Runtime.Pool.map ~jobs:4
                 (fun i ->
                   if i = 13 then failwith "task 13" else i)
                 (Array.init 20 (fun i -> i)))));
    Alcotest.test_case "persistent pool reuses workers across batches" `Quick
      (fun () ->
        Runtime.Pool.with_pool ~jobs:4 (fun p ->
            Alcotest.(check int) "size" 4 (Runtime.Pool.size p);
            for round = 1 to 5 do
              let r =
                Runtime.Pool.run p
                  (fun ~worker i ->
                    if worker < 0 || worker >= 4 then
                      Alcotest.failf "worker id %d out of range" worker;
                    i * round)
                  (Array.init 50 Fun.id)
              in
              Alcotest.(check (array int)) "results in order"
                (Array.init 50 (fun i -> i * round))
                r
            done;
            Alcotest.(check (array int)) "empty batch" [||]
              (Runtime.Pool.run p (fun ~worker:_ x -> x) [||])));
    Alcotest.test_case "pool stays usable after a failing batch" `Quick
      (fun () ->
        (* The first exception is re-raised only after every worker has
           drained the batch and parked again — so the next run must find
           the pool fully functional, not wedged on a dead generation. *)
        Runtime.Pool.with_pool ~jobs:3 (fun p ->
            Alcotest.check_raises "failure surfaces" (Failure "boom")
              (fun () ->
                ignore
                  (Runtime.Pool.run p
                     (fun ~worker:_ i ->
                       if i = 7 then failwith "boom" else i)
                     (Array.init 20 Fun.id)));
            let r =
              Runtime.Pool.run p (fun ~worker:_ i -> i + 1)
                (Array.init 10 Fun.id)
            in
            Alcotest.(check (array int)) "next batch runs"
              (Array.init 10 (fun i -> i + 1))
              r));
    Alcotest.test_case "worker failure re-raises with original backtrace"
      `Quick (fun () ->
        Printexc.record_backtrace true;
        (* A raise site whose source line can only show up in the trace
           if the worker's backtrace survived the drain barrier — a plain
           [raise] after the drain would restart the trace inside
           pool.ml. *)
        let raise_line = ref 0 in
        (* [opaque_identity] keeps [boom] out of the worker closure by
           inlining, so its frame (and source line) must appear in a
           preserved trace. *)
        (* The [1 + ...] keeps the raise out of tail position, so this
           frame stays alive while raising and the trace must cite the
           [failwith] line recorded in [raise_line]. *)
        let boom =
          Sys.opaque_identity (fun () ->
              raise_line := __LINE__ + 1;
              1 + Sys.opaque_identity (failwith "bt-boom"))
        in
        (* Builds without frame recording would make the check vacuous;
           probe once and skip the trace assertion if so. *)
        let supported =
          try
            ignore (boom ());
            false
          with _ ->
            Printexc.raw_backtrace_length (Printexc.get_raw_backtrace ()) > 0
        in
        match
          Runtime.Pool.with_pool ~jobs:3 (fun p ->
              Runtime.Pool.run p
                (fun ~worker:_ i -> if i = 5 then boom () else i)
                (Array.init 16 Fun.id))
        with
        | _ -> Alcotest.fail "expected the batch to fail"
        | exception Failure msg ->
          let bt = Printexc.get_raw_backtrace () in
          Alcotest.(check string) "message" "bt-boom" msg;
          if supported then begin
            let s = Printexc.raw_backtrace_to_string bt in
            let needle = Printf.sprintf "line %d" !raise_line in
            let contains hay needle =
              let lh = String.length hay and ln = String.length needle in
              let ok = ref false in
              for i = 0 to lh - ln do
                if String.sub hay i ln = needle then ok := true
              done;
              !ok
            in
            if not (contains s needle) then
              Alcotest.failf
                "backtrace lost the original raise site (wanted %S):\n%s"
                needle s
          end);
    Alcotest.test_case "a failure on a spawned worker keeps its backtrace"
      `Quick (fun () ->
        Printexc.record_backtrace true;
        let raise_line = ref 0 in
        let boom =
          Sys.opaque_identity (fun () ->
              raise_line := __LINE__ + 1;
              1 + Sys.opaque_identity (failwith "worker-boom"))
        in
        (* Worker 0 (the caller) holds its task until a spawned worker
           has raised on the other one, so the failure always comes from
           a spawned domain. *)
        let raised = Atomic.make false in
        let task ~worker i =
          if worker = 0 then begin
            while not (Atomic.get raised) do
              Domain.cpu_relax ()
            done;
            i
          end
          else begin
            Atomic.set raised true;
            boom ()
          end
        in
        match
          Runtime.Pool.with_pool ~jobs:2 (fun p ->
              Runtime.Pool.run p task [| 0; 1 |])
        with
        | _ -> Alcotest.fail "expected the batch to fail"
        | exception Failure msg ->
          let trace =
            Printexc.raw_backtrace_to_string (Printexc.get_raw_backtrace ())
          in
          Alcotest.(check string) "message" "worker-boom" msg;
          let needle = Printf.sprintf "line %d" !raise_line in
          let ln = String.length needle in
          let found = ref false in
          for i = 0 to String.length trace - ln do
            if String.sub trace i ln = needle then found := true
          done;
          if not !found then
            Alcotest.failf "the worker's trace lost its raise site (%S):\n%s"
              needle trace);
    Alcotest.test_case "shutdown is idempotent; jobs clamp to >= 1" `Quick
      (fun () ->
        let p = Runtime.Pool.create ~jobs:2 in
        Alcotest.(check (array int)) "single batch" [| 1; 2; 3 |]
          (Runtime.Pool.run p (fun ~worker:_ x -> x) [| 1; 2; 3 |]);
        Runtime.Pool.shutdown p;
        Runtime.Pool.shutdown p;
        (* jobs <= 0 autodetects but never drops below one worker *)
        Runtime.Pool.with_pool ~jobs:(-3) (fun q ->
            Alcotest.(check bool) "at least one worker" true
              (Runtime.Pool.size q >= 1)));
  ]

(* ---- Parallel determinism of the bench harness ------------------------ *)

(* A miniature Figure-3-style sweep (cΣ + greedy, two flexibilities, two
   scenarios) rendered with full float precision, once per jobs level.
   Byte equality of the rendered tables is the bench's reproducibility
   contract: deterministic work-clock budgets + order-preserving pool. *)
let render_sweep jobs =
  let cfg =
    {
      Bench_harness.Figures.default_config with
      Bench_harness.Figures.scenarios = 2;
      flexibilities = [ 0.0; 1.0 ];
      time_limit = 5.0;
      params = { Tvnep.Scenario.scaled with num_requests = 3 };
      with_delta = false;
      with_sigma = false;
      jobs;
      deterministic = true;
    }
  in
  let records = Bench_harness.Figures.run_access cfg in
  let table =
    Statsutil.Table.create
      ~headers:[ "cell"; "csigma runtime"; "objective"; "greedy runtime" ]
  in
  List.iter
    (fun (r : Bench_harness.Figures.access_record) ->
      Statsutil.Table.add_row table
        [
          Printf.sprintf "s%d f%.1f" r.Bench_harness.Figures.scenario
            r.Bench_harness.Figures.flex;
          Printf.sprintf "%.17g"
            r.Bench_harness.Figures.csigma.Tvnep.Solver.runtime;
          Printf.sprintf "%.17g"
            (match r.Bench_harness.Figures.csigma.Tvnep.Solver.objective with
            | Some o -> o
            | None -> nan);
          Printf.sprintf "%.17g"
            r.Bench_harness.Figures.greedy.Tvnep.Solver.runtime;
        ])
    records;
  Statsutil.Table.render table

let determinism_tests =
  [
    Alcotest.test_case "sweep tables are byte-identical across jobs" `Slow
      (fun () ->
        let sequential = render_sweep 1 in
        let parallel = render_sweep 4 in
        Alcotest.(check string) "jobs=1 vs jobs=4" sequential parallel);
  ]

let suite =
  [
    ("runtime.budget", budget_tests);
    ("runtime.stats", stats_tests);
    ("runtime.simplex", simplex_tests);
    ("runtime.mip", mip_tests);
    ("runtime.accounting", accounting_tests);
    ("runtime.pool", pool_tests);
    ("runtime.determinism", determinism_tests);
  ]
