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

   Results land in BENCH_service.json, schema tvnep-bench-service/5
   (validated after writing; documents without the rounding comparison
   are rejected). *)

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

type run = {
  summary : Service.Engine.summary;
  wall_s : float;
  gc_minor_words : float;
}

let serve_at inst config =
  let gw0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let summary = Service.Engine.serve ~config inst in
  {
    summary;
    wall_s = Unix.gettimeofday () -. t0;
    gc_minor_words = Gc.minor_words () -. gw0;
  }

let comparison_json ~lifecycle ~ignored =
  let open Statsutil.Json in
  let s (r : run) = r.summary in
  Obj
    [
      ("lifecycle_accepted", Num (float_of_int (s lifecycle).Service.Engine.accepted));
      ("ignored_accepted", Num (float_of_int (s ignored).Service.Engine.accepted));
      ("lifecycle_revenue", Num (s lifecycle).Service.Engine.revenue);
      ("ignored_revenue", Num (s ignored).Service.Engine.revenue);
      ("departed", Num (float_of_int (s lifecycle).Service.Engine.departed));
      ("migrations", Num (float_of_int (s lifecycle).Service.Engine.migrations));
    ]

(* The rounding-ablation comparison, with the three gated quantities
   (rounded decisions, acceptance vs greedy, ticks vs exact) spelled out
   so the validator can re-check them from the document alone. *)
let rounding_json ~exact_chain ~greedy_chain ~rounded_chain =
  let open Statsutil.Json in
  let s (r : run) = r.summary in
  let n v = Num (float_of_int v) in
  Obj
    [
      ("exact_accepted", n (s exact_chain).Service.Engine.accepted);
      ("greedy_accepted", n (s greedy_chain).Service.Engine.accepted);
      ("rounded_accepted", n (s rounded_chain).Service.Engine.accepted);
      ("exact_revenue", Num (s exact_chain).Service.Engine.revenue);
      ("greedy_revenue", Num (s greedy_chain).Service.Engine.revenue);
      ("rounded_revenue", Num (s rounded_chain).Service.Engine.revenue);
      ("exact_ticks", n (s exact_chain).Service.Engine.total_ticks);
      ("greedy_ticks", n (s greedy_chain).Service.Engine.total_ticks);
      ("rounded_ticks", n (s rounded_chain).Service.Engine.total_ticks);
      ( "rounded_decided",
        n
          ((s rounded_chain).Service.Engine.admitted_rounded
          + (s rounded_chain).Service.Engine.denied_rounded) );
    ]

let json_of_runs lifecycle ~ignored ~pricing ~exact_chain ~greedy_chain
    ~rounded_chain =
  let open Statsutil.Json in
  let run_json r =
    Obj
      [
        ("wall_s", Num r.wall_s);
        ("gc_minor_words", Num r.gc_minor_words);
        ("summary", Service.Engine.summary_to_json r.summary);
      ]
  in
  Obj
    [
      ("schema", Str "tvnep-bench-service/5");
      ( "clock",
        Str
          (Printf.sprintf
             "deterministic work ticks (%.0e ticks = 1 budget second)"
             Service.Engine.default_work_rate) );
      ("comparison", comparison_json ~lifecycle ~ignored);
      ("rounding", rounding_json ~exact_chain ~greedy_chain ~rounded_chain);
      ("lifecycle_run", run_json lifecycle);
      ("ignored_run", run_json ignored);
      ("pricing_run", run_json pricing);
      ("exact_chain_run", run_json exact_chain);
      ("greedy_chain_run", run_json greedy_chain);
      ("rounded_chain_run", run_json rounded_chain);
    ]

(* The six runs every document carries, each one serve of the stream. *)
let run_names =
  [ "lifecycle_run"; "ignored_run"; "pricing_run"; "exact_chain_run";
    "greedy_chain_run"; "rounded_chain_run" ]

let validate_json_string s =
  let open Statsutil.Json in
  match of_string s with
  | Error msg -> Error ("not valid JSON: " ^ msg)
  | Ok doc -> (
    match member "schema" doc with
    | Some (Str "tvnep-bench-service/5") -> (
      let record_ok r =
        match Service.Engine.record_of_json r with
        | Ok _ -> true
        | Error _ -> false
      in
      let run_ok r =
        Option.bind (member "wall_s" r) to_float <> None
        && Option.bind (member "gc_minor_words" r) to_float <> None
        &&
        match
          Option.bind
            (Option.bind (member "summary" r) (member "records"))
            to_list
        with
        | Some (_ :: _ as records) -> List.for_all record_ok records
        | _ -> false
      in
      let rounding_ok () =
        (* The rounding ablation is mandatory: the document must carry
           the comparison and its gated inequalities must hold as
           written. *)
        match member "rounding" doc with
        | None -> Error "missing \"rounding\" comparison"
        | Some c -> (
          let f k = Option.bind (member k c) to_float in
          match
            ( (f "rounded_accepted", f "greedy_accepted"),
              (f "rounded_ticks", f "exact_ticks"),
              f "rounded_decided" )
          with
          | (Some ra, Some ga), (Some rt, Some et), Some rd ->
            if rd < 1.0 then
              Error "rounding: the rounded rung never decided an arrival"
            else if ra < ga then
              Error "rounding: rounded acceptance below greedy-only"
            else if rt > et then
              Error "rounding: rounded ticks above the exact chain"
            else Ok ()
          | _ -> Error "rounding: missing comparison fields")
      in
      match
        List.find_opt
          (fun name ->
            match member name doc with Some r -> not (run_ok r) | None -> true)
          run_names
      with
      | Some name ->
        Error (Printf.sprintf "missing or invalid %s" name)
      | None -> (
        match rounding_ok () with
        | Error _ as e -> e
        | Ok () -> (
          match member "comparison" doc with
          | Some c -> (
            match
              ( Option.bind (member "lifecycle_revenue" c) to_float,
                Option.bind (member "ignored_revenue" c) to_float )
            with
            | Some l, Some i when l > i -> Ok (List.length run_names)
            | Some _, Some _ ->
              Error "comparison: lifecycle revenue not above ignored"
            | _ -> Error "comparison: missing revenue fields")
          | None -> Error "missing \"comparison\"")))
    | _ -> Error "missing or unexpected \"schema\"")

let check_final_state ~label inst (s : Service.Engine.summary) =
  match Tvnep.Validator.check inst s.Service.Engine.solution with
  | Ok () -> ()
  | Error es ->
    Printf.eprintf "SERVICE FINAL STATE INVALID (%s): %s\n" label
      (String.concat "; " es);
    exit 1

let run ?json_path () =
  Printf.printf
    "\n== Online service benchmark: churn stream (deterministic work clock) \
     ==\n";
  let inst = bench_instance () in
  let lifecycle = serve_at inst (bench_config ~departures:true) in
  let ignored = serve_at inst (bench_config ~departures:false) in
  let pricing = serve_at inst pricing_config in
  let exact_chain =
    serve_at inst (chain_config ~exact_fraction:0.9 ~rounding:false)
  in
  let greedy_chain =
    serve_at inst (chain_config ~exact_fraction:0.0 ~rounding:false)
  in
  let rounded_chain =
    serve_at inst (chain_config ~exact_fraction:0.0 ~rounding:true)
  in
  let runs =
    [ ("lifecycle", lifecycle); ("no-dep", ignored); ("priced", pricing);
      ("exact-chain", exact_chain); ("greedy-chain", greedy_chain);
      ("rounded-chain", rounded_chain) ]
  in
  let table =
    Statsutil.Table.create
      ~headers:
        [ "run"; "admitted"; "revenue"; "exact"; "rounded"; "greedy";
          "migrated"; "departed"; "denied"; "budget"; "priced"; "ticks";
          "wall" ]
  in
  List.iter
    (fun (label, r) ->
      let s = r.summary in
      Statsutil.Table.add_row table
        [
          label;
          Printf.sprintf "%d/%d" s.Service.Engine.accepted
            (s.Service.Engine.accepted + s.Service.Engine.denied);
          Printf.sprintf "%g" s.Service.Engine.revenue;
          string_of_int s.Service.Engine.admitted_exact;
          string_of_int s.Service.Engine.admitted_rounded;
          string_of_int s.Service.Engine.admitted_greedy;
          string_of_int s.Service.Engine.admitted_migrated;
          string_of_int s.Service.Engine.departed;
          string_of_int s.Service.Engine.denied;
          string_of_int s.Service.Engine.denied_budget;
          string_of_int s.Service.Engine.denied_priced;
          string_of_int s.Service.Engine.total_ticks;
          Printf.sprintf "%.3f s" r.wall_s;
        ])
    runs;
  Statsutil.Table.print table;
  (* Evaluated-once gate: no run may discard and redo an arrival's
     evaluation. *)
  List.iter
    (fun (label, r) ->
      let n = r.summary.Service.Engine.stats.Runtime.Stats.service_reevals in
      if n <> 0 then begin
        Printf.eprintf
          "SERVICE RE-EVALUATION: %s re-evaluated %d arrivals (must be 0)\n"
          label n;
        exit 1
      end)
    runs;
  let s = lifecycle.summary in
  Printf.printf
    "stream: %d admitted, revenue %g, %d departed, %d total ticks\n"
    s.Service.Engine.accepted s.Service.Engine.revenue
    s.Service.Engine.departed s.Service.Engine.total_ticks;
  let arrivals = s.Service.Engine.accepted + s.Service.Engine.denied in
  (* Churn gate: capacity must actually be reclaimed during the stream —
     at least 30% of the arrivals depart before the last event. *)
  if 10 * s.Service.Engine.departed < 3 * arrivals then begin
    Printf.eprintf
      "SERVICE CHURN REGRESSION: only %d of %d arrivals departed inside the \
       stream (< 30%%)\n"
      s.Service.Engine.departed arrivals;
    exit 1
  end;
  (* Lifecycle payoff gate: the same stream served without departures
     must do strictly worse on both admissions and revenue. *)
  let si = ignored.summary in
  if
    s.Service.Engine.accepted <= si.Service.Engine.accepted
    || s.Service.Engine.revenue <= si.Service.Engine.revenue
  then begin
    Printf.eprintf
      "SERVICE LIFECYCLE REGRESSION: departures did not pay (%d/%g admitted/\
       revenue with releases vs %d/%g without)\n"
      s.Service.Engine.accepted s.Service.Engine.revenue
      si.Service.Engine.accepted si.Service.Engine.revenue;
    exit 1
  end;
  Printf.printf
    "lifecycle: releases reclaimed capacity %d times and paid (%d admitted, \
     revenue %g, vs %d / %g with departures ignored)\n"
    s.Service.Engine.departed s.Service.Engine.accepted
    s.Service.Engine.revenue si.Service.Engine.accepted
    si.Service.Engine.revenue;
  (* Coverage gate: the streams must exercise the whole degradation
     chain, or the bench is no longer testing what it claims to. *)
  let sp = pricing.summary in
  let missing =
    List.filter_map
      (fun (label, n) -> if n = 0 then Some label else None)
      [
        ("an exact admission", s.Service.Engine.admitted_exact);
        ("a greedy-fallback admission", s.Service.Engine.admitted_greedy);
        ("a denial", s.Service.Engine.denied);
        ("a budget-exhausted denial", s.Service.Engine.denied_budget);
        ("a departure", s.Service.Engine.departed);
        ("a priced denial (pricing run)", sp.Service.Engine.denied_priced);
      ]
  in
  if missing <> [] then begin
    Printf.eprintf "SERVICE COVERAGE REGRESSION: the stream never saw %s\n"
      (String.concat ", " missing);
    exit 1
  end;
  Printf.printf
    "coverage: chain complete (%d exact, %d greedy-fallback, %d migrated \
     admissions; %d greedy, %d budget denials; %d priced denials on the \
     pricing run)\n"
    s.Service.Engine.admitted_exact s.Service.Engine.admitted_greedy
    s.Service.Engine.admitted_migrated s.Service.Engine.denied_greedy
    s.Service.Engine.denied_budget sp.Service.Engine.denied_priced;
  (* Rounding gates: on the deadline-free ablation the rounded rung must
     genuinely decide arrivals and sit between the greedy-only chain's
     acceptance and the exact-leaning chain's cost. *)
  let sr = rounded_chain.summary
  and se = exact_chain.summary
  and sg = greedy_chain.summary in
  let rounded_decided =
    sr.Service.Engine.admitted_rounded + sr.Service.Engine.denied_rounded
  in
  if rounded_decided = 0 then begin
    Printf.eprintf
      "SERVICE ROUNDING REGRESSION: the rounded rung never decided an \
       arrival on the churn stream\n";
    exit 1
  end;
  if sr.Service.Engine.accepted < sg.Service.Engine.accepted then begin
    Printf.eprintf
      "SERVICE ROUNDING REGRESSION: rounded chain admitted %d < greedy-only \
       %d\n"
      sr.Service.Engine.accepted sg.Service.Engine.accepted;
    exit 1
  end;
  if sr.Service.Engine.total_ticks > se.Service.Engine.total_ticks then begin
    Printf.eprintf
      "SERVICE ROUNDING REGRESSION: rounded chain spent %d ticks > exact \
       chain's %d\n"
      sr.Service.Engine.total_ticks se.Service.Engine.total_ticks;
    exit 1
  end;
  Printf.printf
    "rounding: %d rounded decisions (%d admitted); acceptance %d >= greedy \
     %d, ticks %d <= exact %d (exact admits %d)\n"
    rounded_decided sr.Service.Engine.admitted_rounded
    sr.Service.Engine.accepted sg.Service.Engine.accepted
    sr.Service.Engine.total_ticks se.Service.Engine.total_ticks
    se.Service.Engine.accepted;
  (* Every run's committed state must survive the independent
     validator. *)
  List.iter (fun (label, r) -> check_final_state ~label inst r.summary) runs;
  match json_path with
  | Some path ->
    Bench_json.emit ~path ~noun:"runs" ~validate:validate_json_string
      (json_of_runs lifecycle ~ignored ~pricing ~exact_chain ~greedy_chain
         ~rounded_chain)
  | None -> ()
