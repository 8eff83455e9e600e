(* The online admission service (Service.Engine) and the unified
   Solver.run surface it is built on: clean budget-exhaustion outcomes,
   versioned JSON round-trips, validator-gated commits (greedy fallback
   included), and jobs-independence of the whole stream. *)

module Engine = Service.Engine

let scenario ?(k = 6) seed =
  let rng = Workload.Rng.create seed in
  Tvnep.Scenario.generate rng { Tvnep.Scenario.scaled with num_requests = k }

(* The config the service bench uses: deterministic clock, slices tight
   enough that the degradation chain actually degrades.  Departures off:
   these tests pin down the historical arrival-only semantics (the
   lifecycle has its own suite below). *)
let tight_config ?(jobs = 1) ?time_limit ?(departures = false) () =
  Engine.Config.make ~slice:1e-4 ~exact_fraction:0.05 ~jobs ?time_limit
    ~departures ()

let budget_tests =
  [
    Alcotest.test_case "already-exhausted budget yields a clean outcome"
      `Quick (fun () ->
        (* Regression: a caller handing the solver a dead budget used to
           get a partially-built solve; it must get Budget_exhausted
           without any model being built. *)
        let inst = scenario ~k:3 11L in
        let budget =
          Runtime.Budget.create ~deterministic:1000.0 ~time_limit:0.0 ()
        in
        List.iter
          (fun method_ ->
            let o =
              Tvnep.Solver.run inst
                (Tvnep.Solver.Options.make ~method_ ~budget ())
            in
            let tag s =
              Tvnep.Solver.method_to_string method_ ^ ": " ^ s
            in
            Alcotest.(check string) (tag "status") "budget_exhausted"
              (Tvnep.Solver.status_to_string o.Tvnep.Solver.status);
            Alcotest.(check bool) (tag "no solution") true
              (o.Tvnep.Solver.solution = None);
            Alcotest.(check int) (tag "no model built") 0
              o.Tvnep.Solver.model_vars;
            Alcotest.(check int) (tag "no nodes") 0 o.Tvnep.Solver.nodes)
          [ Tvnep.Solver.Exact; Tvnep.Solver.Greedy; Tvnep.Solver.Hybrid;
            Tvnep.Solver.Lp_only ]);
    Alcotest.test_case "pinned requests are honoured by the exact solve"
      `Quick (fun () ->
        let inst = scenario ~k:3 11L in
        let r0 = Tvnep.Instance.request inst 0 in
        (* Halfway into the window's slack, so the pin is never the
           default earliest start by accident on a zero-flex scenario. *)
        let pin =
          r0.Tvnep.Request.start_min
          +. 0.5
             *. (r0.Tvnep.Request.end_max -. r0.Tvnep.Request.duration
                -. r0.Tvnep.Request.start_min)
        in
        let o =
          Tvnep.Solver.run inst
            (Tvnep.Solver.Options.make ~pinned:[ (0, pin) ] ())
        in
        match o.Tvnep.Solver.solution with
        | Some sol ->
          let a = sol.Tvnep.Solution.assignments.(0) in
          Alcotest.(check bool) "pinned request accepted" true
            a.Tvnep.Solution.accepted;
          Alcotest.(check (float 1e-6)) "pinned start" pin
            a.Tvnep.Solution.t_start
        | None -> Alcotest.fail "no solution");
    Alcotest.test_case "bad pins rejected" `Quick (fun () ->
        let inst = scenario ~k:3 11L in
        let contains s sub =
          let n = String.length s and m = String.length sub in
          let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
          go 0
        in
        let raises exn_sub pins =
          try
            ignore
              (Tvnep.Solver.run inst
                 (Tvnep.Solver.Options.make ~pinned:pins ()));
            Alcotest.fail "expected Invalid_argument"
          with Invalid_argument msg ->
            Alcotest.(check bool)
              (Printf.sprintf "%S mentions %S" msg exn_sub)
              true (contains msg exn_sub)
        in
        let ok = (Tvnep.Instance.request inst 0).Tvnep.Request.start_min in
        raises "out of range" [ (9, ok) ];
        raises "pinned twice" [ (0, ok); (0, ok) ];
        raises "outside its window" [ (0, 1e9) ]);
  ]

let json_tests =
  [
    Alcotest.test_case "outcome JSON round-trips" `Quick (fun () ->
        let inst = scenario ~k:3 13L in
        let o = Tvnep.Solver.run inst Tvnep.Solver.Options.default in
        let doc = Tvnep.Solver.outcome_to_json o in
        match Tvnep.Solver.outcome_of_json doc with
        | Error msg -> Alcotest.fail msg
        | Ok o' ->
          (* Stdlib.compare is nan-safe (compare nan nan = 0), which is
             exactly what bound/gap need. *)
          Alcotest.(check int) "outcome round-trip" 0 (Stdlib.compare o o'));
    Alcotest.test_case "budget-exhausted outcome round-trips (nan/inf)"
      `Quick (fun () ->
        (* The degenerate outcome carries nan bound/gap and infinite
           runtime fields encoded as strings — the round-trip must not
           lose them. *)
        let inst = scenario ~k:3 13L in
        let budget =
          Runtime.Budget.create ~deterministic:1000.0 ~time_limit:0.0 ()
        in
        let o =
          Tvnep.Solver.run inst (Tvnep.Solver.Options.make ~budget ())
        in
        Alcotest.(check bool) "bound is nan" true
          (Float.is_nan o.Tvnep.Solver.bound);
        match Tvnep.Solver.outcome_of_json (Tvnep.Solver.outcome_to_json o) with
        | Error msg -> Alcotest.fail msg
        | Ok o' -> Alcotest.(check int) "round-trip" 0 (Stdlib.compare o o'));
    Alcotest.test_case "rejects the wrong schema_version" `Quick (fun () ->
        let inst = scenario ~k:3 13L in
        let o = Tvnep.Solver.run inst Tvnep.Solver.Options.default in
        let doc =
          match Tvnep.Solver.outcome_to_json o with
          | Statsutil.Json.Obj fields ->
            Statsutil.Json.Obj
              (List.map
                 (fun (k, v) ->
                   if k = "schema_version" then (k, Statsutil.Json.Num 999.0)
                   else (k, v))
                 fields)
          | _ -> Alcotest.fail "outcome did not encode as an object"
        in
        match Tvnep.Solver.outcome_of_json doc with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "version 999 was accepted");
    Alcotest.test_case "service records round-trip" `Quick (fun () ->
        let inst = scenario ~k:6 1L in
        let s = Engine.serve ~config:(tight_config ()) inst in
        Array.iter
          (fun r ->
            match Engine.record_of_json (Engine.record_to_json r) with
            | Error msg -> Alcotest.fail msg
            | Ok r' ->
              Alcotest.(check int)
                (Printf.sprintf "record %d round-trip" r.Engine.request)
                0 (Stdlib.compare r r'))
          s.Engine.records);
  ]

let service_tests =
  [
    Alcotest.test_case "every commit passes the validator (greedy included)"
      `Slow (fun () ->
        (* The validator-gating property: after every commit — whichever
           rung produced it — the full committed state is feasible on the
           original substrate. *)
        let inst = scenario ~k:8 1L in
        let commits = ref 0 in
        let s =
          Engine.serve ~config:(tight_config ())
            ~on_commit:(fun req sol ->
              incr commits;
              match Tvnep.Validator.check inst sol with
              | Ok () -> ()
              | Error es ->
                Alcotest.fail
                  (Printf.sprintf "commit of request %d broke the state: %s"
                     req (String.concat "; " es)))
            inst
        in
        Alcotest.(check bool) "at least 3 sequential commits" true
          (!commits >= 3);
        Alcotest.(check int) "every admission committed" s.Engine.accepted
          !commits;
        Alcotest.(check bool) "a greedy-fallback admission committed" true
          (s.Engine.admitted_greedy >= 1);
        Alcotest.(check bool) "final state valid" true
          (Tvnep.Validator.is_feasible inst s.Engine.solution));
    Alcotest.test_case "jobs do not change decisions" `Slow (fun () ->
        let inst = scenario ~k:8 1L in
        let s1 = Engine.serve ~config:(tight_config ~jobs:1 ()) inst in
        let s4 = Engine.serve ~config:(tight_config ~jobs:4 ()) inst in
        Alcotest.(check int) "same record count"
          (Array.length s1.Engine.records)
          (Array.length s4.Engine.records);
        Array.iter2
          (fun (a : Engine.record) (b : Engine.record) ->
            Alcotest.(check int)
              (Printf.sprintf "request %d identical" a.Engine.request)
              0 (Stdlib.compare a b))
          s1.Engine.records s4.Engine.records;
        Alcotest.(check (float 0.0)) "same revenue" s1.Engine.revenue
          s4.Engine.revenue;
        Alcotest.(check int) "same total ticks" s1.Engine.total_ticks
          s4.Engine.total_ticks);
    Alcotest.test_case "global deadline denies the tail at the budget rung"
      `Quick (fun () ->
        let inst = scenario ~k:6 1L in
        let config = tight_config ~time_limit:1e-4 () in
        let s = Engine.serve ~config inst in
        Alcotest.(check bool) "some requests were never solved" true
          (s.Engine.denied_budget >= 1);
        Alcotest.(check bool) "final state still valid" true
          (Tvnep.Validator.is_feasible inst s.Engine.solution));
    Alcotest.test_case "generous slices admit like the offline greedy"
      `Slow (fun () ->
        (* With no budget pressure every arrival gets a conclusive exact
           answer; the service must not deny at the budget rung. *)
        let inst = scenario ~k:4 21L in
        let s = Engine.serve inst in
        Alcotest.(check int) "no budget denials" 0 s.Engine.denied_budget;
        Alcotest.(check bool) "someone was admitted" true
          (s.Engine.accepted >= 1));
  ]

(* ------------------------------------------------------------------ *)
(* The event-stream lifecycle: typed events, departures, reconfiguration
   and pricing.  Hand-built bottleneck instances make every rung's
   firing condition exact instead of seed-dependent. *)

(* One substrate link 0 -> 1 of capacity 1; every request is a single
   virtual link of demand 0.9 between two 0.1-demand nodes, so two
   requests can never overlap on the link. *)
let bottleneck ~requests ~horizon =
  let g = Graphs.Digraph.create 2 in
  ignore (Graphs.Digraph.add_edge g ~src:0 ~dst:1);
  let substrate = Tvnep.Substrate.uniform g ~node_cap:10.0 ~link_cap:1.0 in
  let mappings = Array.map (fun _ -> [| 0; 1 |]) (Array.of_list requests) in
  Tvnep.Instance.make ~node_mappings:mappings ~substrate
    ~requests:(Array.of_list requests) ~horizon ()

let link_request name ~start_min ~end_max =
  let rg =
    Graphs.Generators.star ~leaves:1
      ~orientation:Graphs.Generators.From_center
  in
  Tvnep.Request.make ~name ~graph:rg ~node_demand:[| 0.1; 0.1 |]
    ~link_demand:[| 0.9 |] ~duration:1.0 ~start_min ~end_max

let stream_bad_prob inst =
  Service.Event.with_cancellations
    (Workload.Rng.create 1L)
    ~prob:1.5 inst
    (Service.Event.arrivals inst)

let event_tests =
  [
    Alcotest.test_case "kind and rung strings round-trip" `Quick (fun () ->
        List.iter
          (fun k ->
            Alcotest.(check bool)
              (Service.Event.kind_to_string k ^ " round-trips") true
              (Service.Event.kind_of_string (Service.Event.kind_to_string k)
              = Some k))
          [ Service.Event.Departure; Service.Event.Arrival ];
        Alcotest.(check bool) "unknown kind" true
          (Service.Event.kind_of_string "bogus" = None);
        List.iter
          (fun r ->
            Alcotest.(check bool)
              (Engine.rung_to_string r ^ " round-trips") true
              (Engine.rung_of_string (Engine.rung_to_string r) = Some r))
          [ Engine.Exact; Engine.Rounded; Engine.Greedy; Engine.Budget;
            Engine.Priced; Engine.Migrated ];
        Alcotest.(check bool) "unknown rung" true
          (Engine.rung_of_string "bogus" = None));
    Alcotest.test_case "departures sort before arrivals at equal times"
      `Quick (fun () ->
        let open Service.Event in
        let stream =
          normalize
            [ arrival ~time:1.0 0; departure ~time:1.0 1;
              arrival ~time:0.5 2 ]
        in
        Alcotest.(check (list (pair string int)))
          "order"
          [ ("arrival", 2); ("departure", 1); ("arrival", 0) ]
          (List.map (fun e -> (kind_to_string e.kind, e.request)) stream));
    Alcotest.test_case "with_cancellations is seed-deterministic and sane"
      `Quick (fun () ->
        let inst = scenario ~k:8 5L in
        let stream rngseed =
          Service.Event.with_cancellations
            (Workload.Rng.create rngseed)
            ~prob:0.5 inst
            (Service.Event.arrivals inst)
        in
        let a = stream 7L and b = stream 7L in
        Alcotest.(check bool) "same seed, same stream" true (a = b);
        let departures =
          List.filter
            (fun e -> e.Service.Event.kind = Service.Event.Departure)
            a
        in
        Alcotest.(check bool) "some cancellation injected" true
          (List.length departures >= 1);
        List.iter
          (fun (e : Service.Event.t) ->
            let r = Tvnep.Instance.request inst e.request in
            Alcotest.(check bool) "cancellation inside the window" true
              (e.time >= r.Tvnep.Request.start_min
              && e.time <= r.Tvnep.Request.end_max))
          departures;
        Alcotest.check_raises "bad probability"
          (Invalid_argument "Event.with_cancellations: prob outside [0, 1]")
          (fun () -> ignore (stream_bad_prob inst)));
  ]

let config_tests =
  [
    Alcotest.test_case "Config.make rejects bad parameters" `Quick (fun () ->
        let contains s sub =
          let n = String.length s and m = String.length sub in
          let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
          go 0
        in
        let rejects label make =
          try
            ignore (make ());
            Alcotest.fail (label ^ ": expected Invalid_argument")
          with Invalid_argument msg ->
            Alcotest.(check bool)
              (label ^ " blames Config.make") true
              (contains msg "Engine.Config.make")
        in
        rejects "slice 0" (fun () -> Engine.Config.make ~slice:0.0 ());
        rejects "slice nan" (fun () -> Engine.Config.make ~slice:nan ());
        rejects "exact_fraction -0.1" (fun () ->
            Engine.Config.make ~exact_fraction:(-0.1) ());
        rejects "exact_fraction 1.5" (fun () ->
            Engine.Config.make ~exact_fraction:1.5 ());
        rejects "jobs 0" (fun () -> Engine.Config.make ~jobs:0 ());
        rejects "time_limit 0" (fun () ->
            Engine.Config.make ~time_limit:0.0 ());
        rejects "reconfigure_limit -1" (fun () ->
            Engine.Config.make ~reconfigure_limit:(-1) ());
        rejects "move_cost -1" (fun () ->
            Engine.Config.make ~move_cost:(-1.0) ());
        (* The boundary values are legal. *)
        ignore (Engine.Config.make ~exact_fraction:0.0 ());
        ignore (Engine.Config.make ~exact_fraction:1.0 ());
        ignore (Engine.Config.make ~jobs:1 ()));
    Alcotest.test_case "forced requests reach the exact solve" `Quick
      (fun () ->
        let inst =
          bottleneck ~horizon:4.0
            ~requests:
              [ link_request "a" ~start_min:0.0 ~end_max:2.0;
                link_request "b" ~start_min:0.0 ~end_max:4.0 ]
        in
        let o =
          Tvnep.Solver.run inst (Tvnep.Solver.Options.make ~forced:[ 0 ] ())
        in
        match o.Tvnep.Solver.solution with
        | Some sol ->
          Alcotest.(check bool) "forced request accepted" true
            sol.Tvnep.Solution.assignments.(0).Tvnep.Solution.accepted
        | None -> Alcotest.fail "no solution");
    Alcotest.test_case "bad forced sets rejected" `Quick (fun () ->
        let inst = scenario ~k:3 11L in
        let raises msg opts =
          Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
              ignore (Tvnep.Solver.run inst opts))
        in
        let ok = (Tvnep.Instance.request inst 0).Tvnep.Request.start_min in
        raises "Solver.run: forced request out of range"
          (Tvnep.Solver.Options.make ~forced:[ 9 ] ());
        raises "Solver.run: request forced twice"
          (Tvnep.Solver.Options.make ~forced:[ 0; 0 ] ());
        raises "Solver.run: request both pinned and forced"
          (Tvnep.Solver.Options.make ~pinned:[ (0, ok) ] ~forced:[ 0 ] ());
        raises "Solver.run: forced requests are not supported with Greedy"
          (Tvnep.Solver.Options.make ~method_:Tvnep.Solver.Greedy
             ~forced:[ 0 ] ());
        raises "Solver.run: forced requests are not supported with Hybrid"
          (Tvnep.Solver.Options.make ~method_:Tvnep.Solver.Hybrid
             ~forced:[ 0 ] ()));
  ]

let release_tests =
  [
    Alcotest.test_case "Solution.release frees exactly one assignment"
      `Quick (fun () ->
        let inst =
          bottleneck ~horizon:4.0
            ~requests:
              [ link_request "a" ~start_min:0.0 ~end_max:1.0;
                link_request "b" ~start_min:1.0 ~end_max:2.0 ]
        in
        let o = Tvnep.Solver.run inst Tvnep.Solver.Options.default in
        let sol = Option.get o.Tvnep.Solver.solution in
        Alcotest.(check int) "both committed" 2
          (Tvnep.Solution.num_accepted sol);
        let after = Tvnep.Solution.release inst sol 0 in
        (match
           Tvnep.Validator.check_release inst ~before:sol ~after ~released:0
         with
        | Ok () -> ()
        | Error es -> Alcotest.fail (String.concat "; " es));
        Alcotest.(check int) "one left" 1 (Tvnep.Solution.num_accepted after);
        Alcotest.(check bool) "other untouched" true
          (sol.Tvnep.Solution.assignments.(1)
          = after.Tvnep.Solution.assignments.(1));
        (* The freed capacity really is gone at every instant of the
           released interval. *)
        Alcotest.(check (float 1e-9)) "link free at 0.5" 0.0
          (Tvnep.Solution.link_load inst after ~time:0.5).(0);
        (* check_release rejects a double release and a tampered bystander. *)
        (match
           Tvnep.Validator.check_release inst ~before:after ~after
             ~released:0
         with
        | Ok () -> Alcotest.fail "released a request that was not committed"
        | Error _ -> ());
        let tampered = Tvnep.Solution.release inst after 1 in
        match
          Tvnep.Validator.check_release inst ~before:sol ~after:tampered
            ~released:0
        with
        | Ok () -> Alcotest.fail "accepted a release that touched two"
        | Error _ -> ());
    Alcotest.test_case "a departure admits what contention denied" `Quick
      (fun () ->
        (* a holds the link on [0,1); its cancellation at 0.5 releases the
           link just in time for rigid b on [0.5,1.5).  Without departures
           the identical stream denies b. *)
        let inst =
          bottleneck ~horizon:2.0
            ~requests:
              [ link_request "a" ~start_min:0.0 ~end_max:1.0;
                link_request "b" ~start_min:0.5 ~end_max:1.5 ]
        in
        let events =
          [ Service.Event.arrival ~time:0.0 0;
            Service.Event.departure ~time:0.5 0;
            Service.Event.arrival ~time:0.5 1 ]
        in
        let serve departures =
          Engine.serve
            ~config:(Engine.Config.make ~departures ())
            ~events inst
        in
        let s = serve true in
        Alcotest.(check int) "both admitted with the release" 2
          s.Engine.accepted;
        Alcotest.(check int) "one departure" 1 s.Engine.departed;
        Alcotest.(check int) "three records" 3 (Array.length s.Engine.records);
        let dep = s.Engine.records.(1) in
        Alcotest.(check bool) "middle record is the departure" true
          (dep.Engine.event = Service.Event.Departure);
        Alcotest.(check int) "of request 0" 0 dep.Engine.request;
        (* Utilization fingerprint: after the stream only b holds the
           link, exactly on its own interval. *)
        let sol = s.Engine.solution in
        Alcotest.(check bool) "a no longer committed" false
          sol.Tvnep.Solution.assignments.(0).Tvnep.Solution.accepted;
        Alcotest.(check (float 1e-9)) "b's demand at 1.0" 0.9
          (Tvnep.Solution.link_load inst sol ~time:1.0).(0);
        Alcotest.(check bool) "final state valid" true
          (Tvnep.Validator.is_feasible inst sol);
        let s0 = serve false in
        Alcotest.(check int) "departures off: contention denies b" 1
          s0.Engine.accepted;
        Alcotest.(check int) "and nothing departs" 0 s0.Engine.departed);
  ]

let reconfigure_tests =
  [
    Alcotest.test_case "a proven denial is rescued by migration" `Quick
      (fun () ->
        (* a commits the link early ([0.6,1.6)) but is flexible; rigid b
           needs [0.5,1.5).  The pinned solve proves b's denial; the
           reconfiguration rung re-opens a (forced accept, start free,
           move-cost charged) and shifts it out of the way. *)
        let inst =
          bottleneck ~horizon:3.0
            ~requests:
              [ link_request "a" ~start_min:0.6 ~end_max:3.0;
                link_request "b" ~start_min:0.5 ~end_max:1.5 ]
        in
        let events =
          [ Service.Event.arrival ~time:0.0 0;
            Service.Event.arrival ~time:0.2 1 ]
        in
        let serve ~reconfigure jobs =
          Engine.serve
            ~config:(Engine.Config.make ~reconfigure ~jobs ())
            ~events inst
        in
        let s = serve ~reconfigure:true 1 in
        Alcotest.(check int) "both admitted" 2 s.Engine.accepted;
        Alcotest.(check int) "one migration" 1 s.Engine.migrations;
        Alcotest.(check int) "one migrated admission" 1
          s.Engine.admitted_migrated;
        let rb = s.Engine.records.(1) in
        Alcotest.(check string) "b admitted at the migrated rung" "migrated"
          (Engine.rung_to_string rb.Engine.rung);
        Alcotest.(check (list int)) "b's admission moved a" [ 0 ]
          rb.Engine.moved;
        let sol = s.Engine.solution in
        let a = sol.Tvnep.Solution.assignments.(0) in
        let b = sol.Tvnep.Solution.assignments.(1) in
        Alcotest.(check (float 1e-6)) "b sits in its rigid slot" 0.5
          b.Tvnep.Solution.t_start;
        Alcotest.(check bool) "a moved clear of b" true
          (a.Tvnep.Solution.t_start >= 1.5 -. 1e-6);
        Alcotest.(check bool) "final state valid" true
          (Tvnep.Validator.is_feasible inst sol);
        (* Validator-gated and deterministic: jobs must not change any
           record, and without the rung the denial stands. *)
        let s4 = serve ~reconfigure:true 4 in
        Alcotest.(check int) "jobs=4: same records"
          0
          (Stdlib.compare s.Engine.records s4.Engine.records);
        Alcotest.(check (float 0.0)) "jobs=4: same revenue" s.Engine.revenue
          s4.Engine.revenue;
        let s_off = serve ~reconfigure:false 1 in
        Alcotest.(check int) "rung off: b denied" 1 s_off.Engine.accepted;
        Alcotest.(check int) "rung off: no migration" 0
          s_off.Engine.migrations);
  ]

let pricing_tests =
  [
    Alcotest.test_case "pricing denies what binary admission accepts"
      `Quick (fun () ->
        (* Revenue d*sum(c) = 0.2; priced cost at floor f is
           1.1*f (node 0.2 + link 0.9 demand-time units).  f = 0.5 prices
           the request out; f = 0.1 lets it through with the cost
           recorded. *)
        let inst =
          bottleneck ~horizon:2.0
            ~requests:[ link_request "a" ~start_min:0.0 ~end_max:1.0 ]
        in
        let serve ~pricing ?(floor = 0.5) () =
          Engine.serve
            ~config:
              (Engine.Config.make ~pricing
                 ~price:(Service.Pricing.make_params ~floor ())
                 ())
            inst
        in
        let plain = serve ~pricing:false () in
        Alcotest.(check int) "binary admission accepts" 1 plain.Engine.accepted;
        let priced = serve ~pricing:true () in
        Alcotest.(check int) "pricing denies" 0 priced.Engine.accepted;
        Alcotest.(check int) "at the priced rung" 1
          priced.Engine.denied_priced;
        let r = priced.Engine.records.(0) in
        Alcotest.(check string) "rung" "priced"
          (Engine.rung_to_string r.Engine.rung);
        Alcotest.(check (float 1e-9)) "priced cost 1.1 * floor" 0.55
          r.Engine.priced_cost;
        let cheap = serve ~pricing:true ~floor:0.1 () in
        Alcotest.(check int) "a viable floor admits" 1 cheap.Engine.accepted;
        Alcotest.(check (float 1e-9)) "with the cost on the record" 0.11
          cheap.Engine.records.(0).Engine.priced_cost;
        Alcotest.(check bool) "final prices exposed" true
          (Array.length cheap.Engine.node_prices = 2
          && Array.length cheap.Engine.link_prices = 1));
  ]

(* The mixed churn stream: 100 requests, half of them cancelled early. *)
let churn_events inst =
  Service.Event.with_cancellations
    (Workload.Rng.create 9L)
    ~prob:0.5 inst
    (Service.Event.arrivals inst)

let stream_tests =
  [
    Alcotest.test_case "a mixed churn stream is byte-identical across jobs"
      `Slow (fun () ->
        let inst = scenario ~k:100 3L in
        let events = churn_events inst in
        let serve jobs =
          Engine.serve
            ~config:(tight_config ~jobs ~departures:true ())
            ~events inst
        in
        let s1 = serve 1 in
        let s4 = serve 4 in
        Alcotest.(check bool) "a genuinely mixed stream" true
          (s1.Engine.events >= 150 && s1.Engine.departed >= 20);
        Alcotest.(check int) "same record count" s1.Engine.events
          s4.Engine.events;
        Array.iter2
          (fun (a : Engine.record) (b : Engine.record) ->
            Alcotest.(check int)
              (Printf.sprintf "event %s/%d identical"
                 (Service.Event.kind_to_string a.Engine.event)
                 a.Engine.request)
              0 (Stdlib.compare a b))
          s1.Engine.records s4.Engine.records;
        Alcotest.(check (float 0.0)) "same revenue" s1.Engine.revenue
          s4.Engine.revenue;
        Alcotest.(check int) "same ticks" s1.Engine.total_ticks
          s4.Engine.total_ticks;
        Alcotest.(check bool) "final state valid" true
          (Tvnep.Validator.is_feasible inst s1.Engine.solution));
    Alcotest.test_case "each arrival of the churn stream is evaluated once"
      `Slow (fun () ->
        let inst = scenario ~k:100 3L in
        let events = churn_events inst in
        let prof = Runtime.Span.create () in
        let config =
          Engine.Config.make ~slice:1e-4 ~exact_fraction:0.05 ~departures:true
            ~prof ()
        in
        let s = Engine.serve ~config ~events inst in
        let arrivals =
          List.filter
            (fun (e : Service.Event.t) -> e.kind = Service.Event.Arrival)
            events
        in
        let arrival_spans =
          List.filter
            (fun (sp : Runtime.Span.span) -> sp.Runtime.Span.name = "arrival")
            (Runtime.Span.spans prof)
        in
        Alcotest.(check int) "one arrival span per Arrival event"
          (List.length arrivals)
          (List.length arrival_spans);
        Alcotest.(check int) "no re-evaluations" 0
          s.Engine.stats.Runtime.Stats.service_reevals;
        (* Each span is the arrival's whole evaluation: its width is the
           record's tick count. *)
        let arrival_ticks =
          Array.to_list s.Engine.records
          |> List.filter (fun (r : Engine.record) ->
                 r.Engine.event = Service.Event.Arrival)
          |> List.map (fun (r : Engine.record) -> r.Engine.ticks)
        in
        Alcotest.(check (list int))
          "span widths are the records' ticks" arrival_ticks
          (List.map
             (fun (sp : Runtime.Span.span) ->
               sp.Runtime.Span.t1 - sp.Runtime.Span.t0)
             arrival_spans));
  ]

(* ------------------------------------------------------------------ *)
(* The LP-rounding rung: with [exact_fraction = 0] and [rounding] on,
   every arrival is decided by the relaxation-rounding pipeline (or its
   greedy fall-through), never by branch-and-bound. *)

let rounding_config ?(jobs = 1) ?(slice = 2e-3) () =
  Engine.Config.make ~slice ~exact_fraction:0.0 ~rounding:true ~jobs
    ~departures:true ()

let rounding_tests =
  [
    Alcotest.test_case
      "the rounded rung decides arrivals and stays jobs-invariant" `Slow
      (fun () ->
        let inst = scenario ~k:12 3L in
        let events =
          Service.Event.with_cancellations
            (Workload.Rng.create 9L)
            ~prob:0.3 inst
            (Service.Event.arrivals inst)
        in
        let serve jobs =
          Engine.serve ~config:(rounding_config ~jobs ()) ~events inst
        in
        let s1 = serve 1 in
        Alcotest.(check bool) "the rounded rung decided something" true
          (s1.Engine.admitted_rounded + s1.Engine.denied_rounded >= 1);
        Alcotest.(check int) "exact never ran" 0
          (s1.Engine.admitted_exact + s1.Engine.denied_exact);
        Alcotest.(check bool) "rounding attempts billed" true
          (s1.Engine.stats.Runtime.Stats.rounding_attempts >= 1);
        Alcotest.(check bool) "final state valid" true
          (Tvnep.Validator.is_feasible inst s1.Engine.solution);
        (* Jobs-invariance with the rung on: per-request seeds are a
           function of the request index alone, and the engine accepts
           but ignores [jobs]. *)
        let s4 = serve 4 in
        Alcotest.(check int) "same record count" s1.Engine.events
          s4.Engine.events;
        Array.iter2
          (fun (a : Engine.record) (b : Engine.record) ->
            Alcotest.(check int)
              (Printf.sprintf "event %s/%d identical"
                 (Service.Event.kind_to_string a.Engine.event)
                 a.Engine.request)
              0 (Stdlib.compare a b))
          s1.Engine.records s4.Engine.records;
        Alcotest.(check (float 0.0)) "same revenue" s1.Engine.revenue
          s4.Engine.revenue;
        Alcotest.(check int) "same ticks" s1.Engine.total_ticks
          s4.Engine.total_ticks);
    Alcotest.test_case "every rounded commit passes the validator" `Slow
      (fun () ->
        let inst = scenario ~k:10 7L in
        let s =
          Engine.serve ~config:(rounding_config ())
            ~on_commit:(fun req sol ->
              match Tvnep.Validator.check inst sol with
              | Ok () -> ()
              | Error es ->
                Alcotest.fail
                  (Printf.sprintf "commit of request %d broke the state: %s"
                     req (String.concat "; " es)))
            inst
        in
        Alcotest.(check bool) "someone was admitted" true
          (s.Engine.accepted >= 1);
        Alcotest.(check bool) "final state valid" true
          (Tvnep.Validator.is_feasible inst s.Engine.solution));
    Alcotest.test_case "summary JSON carries the rounded-rung aggregates"
      `Quick (fun () ->
        let inst = scenario ~k:6 3L in
        let s = Engine.serve ~config:(rounding_config ()) inst in
        match Engine.summary_to_json s with
        | Statsutil.Json.Obj fields ->
          let num k =
            match List.assoc_opt k fields with
            | Some (Statsutil.Json.Num v) -> int_of_float v
            | _ -> Alcotest.fail (k ^ " missing from the summary document")
          in
          Alcotest.(check int) "admitted_rounded"
            s.Engine.admitted_rounded (num "admitted_rounded");
          Alcotest.(check int) "denied_rounded" s.Engine.denied_rounded
            (num "denied_rounded")
        | _ -> Alcotest.fail "summary did not encode as an object");
  ]

let v1_fixture =
  {|{"schema_version": 1, "request": 3, "name": "r3", "arrival": 2.5,
     "admitted": true, "rung": "greedy", "exact_status": "budget_exhausted",
     "greedy_status": "optimal", "revenue": 1.25, "t_start": 2.5,
     "t_end": 3.5, "ticks": 12345, "reevaluated": false}|}

let v1_tests =
  [
    Alcotest.test_case "version-1 records still decode" `Quick (fun () ->
        let doc =
          match Statsutil.Json.of_string v1_fixture with
          | Ok d -> d
          | Error msg -> Alcotest.fail msg
        in
        match Engine.record_of_json doc with
        | Error msg -> Alcotest.fail msg
        | Ok r ->
          Alcotest.(check int) "request" 3 r.Engine.request;
          Alcotest.(check (float 0.0)) "arrival became time" 2.5
            r.Engine.time;
          Alcotest.(check bool) "defaults to an arrival" true
            (r.Engine.event = Service.Event.Arrival);
          Alcotest.(check string) "rung" "greedy"
            (Engine.rung_to_string r.Engine.rung);
          Alcotest.(check bool) "priced_cost defaults to nan" true
            (Float.is_nan r.Engine.priced_cost);
          Alcotest.(check (list int)) "moved defaults to empty" []
            r.Engine.moved);
  ]

(* ------------------------------------------------------------------ *)
(* Decision pinning: per-arrival decisions of two seeded contended churn
   streams (departures, cancellations, reconfiguration and rounding on,
   no global deadline), recorded from the batched speculative engine.
   Deciding each arrival once, in event order, must reproduce them bit
   for bit: with no global deadline every evaluation sees the same
   committed state, prices and slice. *)

(* (request, admitted, rung, t_start, t_end, moved) per arrival. *)
let golden_15 =
  [
    (0, true, "exact", 0x1.8133b39c7043p-3, 0x1.2f7c0064d39a6p+0, []);
    (1, true, "exact", 0x1.22329fe8bcff8p-1, 0x1.195ce3fc08619p+1, []);
    (2, true, "exact", 0x1.8b6ea5772796cp-1, 0x1.8216b30e87193p+0, []);
    (3, true, "exact", 0x1.8216b30e8719p+0, 0x1.d9013b84a9b78p+0, []);
    (4, true, "rounded", 0x1.8216b30e8718ap+0, 0x1.1b92e909480abp+2, []);
    (5, true, "exact", 0x1.195ce3fc08618p+1, 0x1.7582e59adec4cp+1, []);
    (6, true, "migrated", 0x1.7015691cfd4ebp+1, 0x1.5c0441926c87p+2, [5]);
    (7, false, "greedy", nan, nan, []);
    (8, false, "greedy", nan, nan, []);
    (9, false, "greedy", nan, nan, []);
    (10, false, "greedy", nan, nan, []);
    (11, false, "greedy", nan, nan, []);
    (12, true, "rounded", 0x1.7015691cfd4ebp+1, 0x1.fd2b09a83f1dcp+1, []);
    (13, false, "greedy", nan, nan, []);
    (14, true, "exact", 0x1.fd2b09a83f1dep+1, 0x1.68dffde9003cp+2, []);
    (15, false, "exact", nan, nan, []);
    (16, false, "exact", nan, nan, []);
    (17, true, "rounded", 0x1.1b92e909480abp+2, 0x1.9224e80322073p+2, []);
    (18, true, "exact", 0x1.1b92e909480a8p+2, 0x1.571453e96e15p+2, []);
    (19, true, "exact", 0x1.1b92e909480a9p+2, 0x1.6341912784452p+2, []);
  ]

let golden_13 =
  [
    (0, true, "exact", 0x1.76ce4f120176fp-2, 0x1.0128490240d02p+0, []);
    (1, true, "exact", 0x1.0128490240dp+0, 0x1.b7e75cf6a1d1ap+1, []);
    (2, true, "rounded", 0x1.6eab2bf400d4ap-1, 0x1.24f0e3a2343a3p+1, []);
    (3, false, "greedy", nan, nan, []);
    (4, true, "exact", 0x1.39f035fd6482cp+0, 0x1.da87414680242p+0, []);
    (5, true, "exact", 0x1.5573a1e0fb7cap+0, 0x1.0be0b63ce1416p+1, []);
    (6, false, "exact", nan, nan, []);
    (7, true, "exact", 0x1.0be0b63ce1415p+1, 0x1.774bd0df3c23cp+2, []);
    (8, true, "rounded", 0x1.0be0b63ce1414p+1, 0x1.3715022308754p+1, []);
    (9, false, "exact", nan, nan, []);
    (10, true, "exact", 0x1.2a78d32e85342p+1, 0x1.d5518f79d384cp+1, []);
    (11, true, "exact", 0x1.4a015d0c5ec04p+1, 0x1.f2ddf53d1ab3p+1, []);
    (12, true, "exact", 0x1.d5518f79d384cp+1, 0x1.3e7f7ae3d3329p+2, []);
    (13, true, "greedy", 0x1.f2ddf53d1ab3p+1, 0x1.55093dbfc2c84p+2, []);
    (14, false, "exact", nan, nan, []);
    (15, true, "exact", 0x1.3e7f7ae3d332ap+2, 0x1.f47e65365125ap+2, []);
    (16, true, "exact", 0x1.63a2d6b40da9ep+2, 0x1.914249af7577cp+2, []);
    (17, false, "exact", nan, nan, []);
    (18, true, "exact", 0x1.774bd0df3c23cp+2, 0x1.c038bb1cf544ep+2, []);
    (19, false, "exact", nan, nan, []);
  ]

let churn_stream ~seed ~slice =
  let p =
    {
      Tvnep.Scenario.scaled with
      num_requests = 20;
      arrival_rate = 4.0;
      weibull_scale = 1.5;
      flexibility = 1.0;
    }
  in
  let inst = Tvnep.Scenario.generate (Workload.Rng.create seed) p in
  let events =
    Service.Event.with_cancellations
      (Workload.Rng.create 9L)
      ~prob:0.3 inst
      (Service.Event.arrivals inst)
  in
  let config =
    Engine.Config.make ~slice ~exact_fraction:0.3 ~departures:true
      ~reconfigure:true ~rounding:true ()
  in
  Engine.serve ~config ~events inst

let golden_tests =
  let pinned name ~seed ~slice golden =
    Alcotest.test_case name `Quick (fun () ->
        let s = churn_stream ~seed ~slice in
        let show (req, admitted, rung, t_start, t_end, moved) =
          Printf.sprintf "%d %b %s %h %h [%s]" req admitted rung t_start
            t_end
            (String.concat ";" (List.map string_of_int moved))
        in
        let got =
          Array.to_list s.Engine.records
          |> List.filter (fun (r : Engine.record) ->
                 r.Engine.event = Service.Event.Arrival)
          |> List.map (fun (r : Engine.record) ->
                 show
                   ( r.Engine.request,
                     r.Engine.admitted,
                     Engine.rung_to_string r.Engine.rung,
                     r.Engine.t_start,
                     r.Engine.t_end,
                     r.Engine.moved ))
        in
        Alcotest.(check (list string))
          "per-arrival decisions" (List.map show golden) got)
  in
  [
    pinned "churn stream 15 decisions are pinned" ~seed:15L ~slice:1e-3
      golden_15;
    pinned "churn stream 13 decisions are pinned" ~seed:13L ~slice:5e-4
      golden_13;
  ]

let suite =
  [
    ("service.solver-run", budget_tests);
    ("service.json", json_tests @ v1_tests);
    ("service.engine", service_tests);
    ("service.events", event_tests);
    ("service.config", config_tests);
    ("service.lifecycle", release_tests @ reconfigure_tests);
    ("service.pricing", pricing_tests);
    ("service.streams", stream_tests);
    ("service.rounding", rounding_tests);
    ("service.golden", golden_tests);
  ]
