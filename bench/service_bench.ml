(* Online service benchmark: one churn stream (arrivals + departures)
   served on the deterministic work clock, once per configuration.  The
   engine decides every arrival once, in event order, on the calling
   domain, so there is no worker count to sweep.

   Like {!Bnb}, this is a regression gate, not just a perf tracker.  The
   run *fails* (exit 1) when:

   - any run re-evaluated an arrival ([Stats.service_reevals] > 0) —
     each arrival is evaluated exactly once;
   - the stream shows too little churn (< 30% of arrivals departing
     inside the stream) — capacity must be reclaimed for the lifecycle
     to mean anything;
   - serving the same stream with departures ignored (the historical
     monotone service) does NOT lose admissions and revenue — reclaiming
     capacity must pay, strictly;
   - the degradation chain loses coverage: exact admissions,
     greedy-fallback admissions, denials, budget denials and (on the
     dedicated pricing run) priced denials must all fire;
   - the rounding ablation regresses: on the same churn stream, freed of
     the global deadline, the Rounded chain (exact off, LP rounding on)
     must actually decide arrivals at the rounded rung, admit at least
     as much as the greedy-only chain, and spend no more ticks than the
     exact-leaning chain;
   - the final committed state of any run fails the independent
     validator.

   Each serve is one {!Record.t}: the revenue as its objective, the
   stream's total ticks, the summary's counts as counters and the engine
   summary, per-arrival records included, as its detail.  Results land
   in BENCH_service.json. *)

(* Slices sized against the 2e9 ticks/s work clock so the exact rung
   (5% of the slice) dies on the later, contended arrivals while the
   greedy fallback still has room to finish — the mix that exercises the
   whole chain on this seed; a global deadline just short of the
   stream's total work denies the tail at the budget rung. *)
let bench_config ~departures =
  Service.Engine.Config.make ~slice:1e-4 ~exact_fraction:0.05
    ~time_limit:2.4e-4 ~departures ~reconfigure:true ()

(* Churn scenario: shorter durations than the admission-only bench so
   early commitments depart while later requests are still arriving —
   the stream interleaves arrivals with endogenous departures. *)
let bench_instance () =
  let rng = Workload.Rng.create 1L in
  Tvnep.Scenario.generate rng
    {
      Tvnep.Scenario.scaled with
      num_requests = 16;
      weibull_scale = 1.5;
      flexibility = 1.0;
    }

(* A dedicated pricing run: the floor is set high enough that some
   admissible arrival's revenue cannot cover its priced cost, proving
   the Priced rung actually gates. *)
let pricing_config =
  Service.Engine.Config.make ~slice:1e-4 ~exact_fraction:0.05
    ~departures:true ~pricing:true
    ~price:(Service.Pricing.make_params ~floor:2.0 ())
    ()

(* Rounding ablation: the same churn stream served by three chains with
   no global deadline, so they are compared on equal footing.  The
   exact-leaning chain is the quality/cost ceiling, the greedy-only
   chain the floor; the rounded chain replaces branch-and-bound with the
   LP-rounding rung.  The slice is wide enough that the relaxation fits
   in the rung's half-of-remaining sub-budget. *)
let chain_config ~exact_fraction ~rounding =
  Service.Engine.Config.make ~slice:2e-3 ~exact_fraction ~rounding
    ~departures:true ()

(* The summary counts a run records, in document order. *)
let summary_counters (s : Service.Engine.summary) =
  let open Service.Engine in
  List.map
    (fun (k, v) -> (k, float_of_int v))
    [
      ("accepted", s.accepted);
      ("denied", s.denied);
      ("departed", s.departed);
      ("migrations", s.migrations);
      ("admitted_exact", s.admitted_exact);
      ("admitted_rounded", s.admitted_rounded);
      ("admitted_greedy", s.admitted_greedy);
      ("admitted_migrated", s.admitted_migrated);
      ("denied_exact", s.denied_exact);
      ("denied_rounded", s.denied_rounded);
      ("denied_greedy", s.denied_greedy);
      ("denied_budget", s.denied_budget);
      ("denied_priced", s.denied_priced);
      ("ticks_p50", s.ticks_p50);
      ("ticks_p99", s.ticks_p99);
      ("reevals", s.stats.Runtime.Stats.service_reevals);
    ]

let check_final_state ~label inst (s : Service.Engine.summary) =
  match Tvnep.Validator.check inst s.Service.Engine.solution with
  | Ok () -> ()
  | Error es ->
    Printf.eprintf "SERVICE FINAL STATE INVALID (%s): %s\n" label
      (String.concat "; " es);
    exit 1

(* One serve of the stream; its committed state must survive the
   independent validator, which needs the live solution, so that check
   runs here rather than as a document gate. *)
let serve_at inst (label, config) =
  let s, wall_s, minor_words =
    Record.measure (fun () -> Service.Engine.serve ~config inst)
  in
  check_final_state ~label inst s;
  {
    Record.label;
    status = "served";
    objective = s.Service.Engine.revenue;
    ticks = s.Service.Engine.total_ticks;
    wall_s;
    minor_words;
    counters = summary_counters s;
    detail = Some (Service.Engine.summary_to_json s);
  }

let gates : Record.gate list =
  let c = Record.counter in
  [
    (* Evaluated once: no run may discard and redo an arrival's
       evaluation. *)
    ( "evaluated_once",
      fun runs ->
        match List.filter (fun r -> c r "reevals" <> 0.0) runs with
        | [] -> Ok ()
        | bad ->
          Error
            (String.concat ", "
               (List.map
                  (fun (r : Record.t) ->
                    Printf.sprintf "%s re-evaluated %.0f arrivals" r.label
                      (c r "reevals"))
                  bad)) );
    (* Churn: capacity must actually be reclaimed during the stream — at
       least 30% of the arrivals depart before the last event. *)
    ( "churn",
      fun runs ->
        let l = Record.find "lifecycle" runs in
        let arrivals = c l "accepted" +. c l "denied" in
        if 10.0 *. c l "departed" >= 3.0 *. arrivals then Ok ()
        else
          Error
            (Printf.sprintf "only %.0f of %.0f arrivals departed (< 30%%)"
               (c l "departed") arrivals) );
    (* Lifecycle payoff: the same stream served without departures must do
       strictly worse on both admissions and revenue. *)
    ( "lifecycle_pays",
      fun runs ->
        let l = Record.find "lifecycle" runs
        and i = Record.find "no-dep" runs in
        if c l "accepted" > c i "accepted" && l.objective > i.objective then
          Ok ()
        else
          Error
            (Printf.sprintf
               "%.0f admitted / revenue %g with releases vs %.0f / %g without"
               (c l "accepted") l.objective (c i "accepted") i.objective) );
    (* Coverage: the streams must exercise the whole degradation chain,
       or the bench is no longer testing what it claims to. *)
    ( "coverage",
      fun runs ->
        let l = Record.find "lifecycle" runs
        and p = Record.find "priced" runs in
        match
          List.filter_map
            (fun (what, r, k) -> if c r k = 0.0 then Some what else None)
            [
              ("an exact admission", l, "admitted_exact");
              ("a greedy-fallback admission", l, "admitted_greedy");
              ("a denial", l, "denied");
              ("a budget-exhausted denial", l, "denied_budget");
              ("a departure", l, "departed");
              ("a priced denial (pricing run)", p, "denied_priced");
            ]
        with
        | [] -> Ok ()
        | missing ->
          Error ("the stream never saw " ^ String.concat ", " missing) );
    (* Rounding: on the deadline-free ablation the rounded rung must
       genuinely decide arrivals and sit between the greedy-only chain's
       acceptance and the exact-leaning chain's cost. *)
    ( "rounding",
      fun runs ->
        let r = Record.find "rounded-chain" runs
        and g = Record.find "greedy-chain" runs
        and e = Record.find "exact-chain" runs in
        let decided = c r "admitted_rounded" +. c r "denied_rounded" in
        if decided < 1.0 then Error "the rounded rung never decided an arrival"
        else if c r "accepted" < c g "accepted" then
          Error
            (Printf.sprintf "rounded chain admitted %.0f < greedy-only %.0f"
               (c r "accepted") (c g "accepted"))
        else if r.ticks > e.ticks then
          Error
            (Printf.sprintf "rounded chain spent %d ticks > exact chain's %d"
               r.ticks e.ticks)
        else Ok () );
    (* Every run carries its per-arrival records, each one decodable. *)
    ( "per_arrival_records",
      fun runs ->
        let decodes (r : Record.t) =
          match
            Option.bind
              (Option.bind r.detail (Statsutil.Json.member "records"))
              Statsutil.Json.to_list
          with
          | Some (_ :: _ as records) ->
            List.for_all
              (fun j -> Result.is_ok (Service.Engine.record_of_json j))
              records
          | _ -> false
        in
        match List.find_opt (fun r -> not (decodes r)) runs with
        | None -> Ok ()
        | Some r -> Error (r.label ^ " has no decodable per-arrival records")
    );
  ]

let run ~json_dir () =
  Printf.printf
    "\n== Online service benchmark: churn stream (deterministic work clock) \
     ==\n";
  let inst = bench_instance () in
  let runs =
    List.map (serve_at inst)
      [
        ("lifecycle", bench_config ~departures:true);
        ("no-dep", bench_config ~departures:false);
        ("priced", pricing_config);
        ("exact-chain", chain_config ~exact_fraction:0.9 ~rounding:false);
        ("greedy-chain", chain_config ~exact_fraction:0.0 ~rounding:false);
        ("rounded-chain", chain_config ~exact_fraction:0.0 ~rounding:true);
      ]
  in
  let table =
    Statsutil.Table.create
      ~headers:
        [ "run"; "admitted"; "revenue"; "exact"; "rounded"; "greedy";
          "migrated"; "departed"; "denied"; "budget"; "priced"; "ticks";
          "wall" ]
  in
  List.iter
    (fun (r : Record.t) ->
      let c k = Printf.sprintf "%.0f" (Record.counter r k) in
      Statsutil.Table.add_row table
        [
          r.label;
          Printf.sprintf "%s/%.0f" (c "accepted")
            (Record.counter r "accepted" +. Record.counter r "denied");
          Printf.sprintf "%g" r.objective;
          c "admitted_exact";
          c "admitted_rounded";
          c "admitted_greedy";
          c "admitted_migrated";
          c "departed";
          c "denied";
          c "denied_budget";
          c "denied_priced";
          string_of_int r.ticks;
          Printf.sprintf "%.3f s" r.wall_s;
        ])
    runs;
  Statsutil.Table.print table;
  Record.enforce ~bench:"service" gates runs;
  Record.emit ~dir:json_dir
    {
      Record.bench = "service";
      clock = Record.work_clock Service.Engine.default_work_rate;
      runs;
    }
