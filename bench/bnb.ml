(* Parallel branch-and-bound benchmark: the identical cΣ search at
   jobs = 1, 2, 4, on the deterministic work clock.

   This is both a perf tracker and a regression gate: the run *fails*
   (exit 1) if any jobs level returns a different (status, objective,
   bound, nodes, LP iterations, work ticks) tuple than jobs=1 — the
   determinism contract of Mip.Branch_bound (DESIGN.md §7) asserted on a
   real contended instance rather than the unit-test knapsacks.  Wall
   clock is recorded per level so the speedup trajectory lands in
   BENCH_bnb.json; on hosts with >= 4 cores a jobs=4 speedup floor is
   enforced too. *)

let jobs_levels = [ 1; 2; 4 ]

(* Minimum jobs=4 vs jobs=1 wall-clock speedup enforced when the host
   actually has >= 4 cores.  The ISSUE's acceptance bar. *)
let min_speedup = 2.0

(* [Domain.recommended_domain_count] can be clamped by cgroup quotas or
   environment overrides to less than the CPUs physically available;
   cross-check the kernel's online-CPU list and take the larger answer,
   so the speedup gate neither fires on a genuinely starved host nor
   silently self-skips on a clamped-but-capable one. *)
let detect_cores () =
  let from_domain = Domain.recommended_domain_count () in
  let from_sys =
    (* /sys/devices/system/cpu/online reads like "0-3" or "0,2-5". *)
    try
      let ic = open_in "/sys/devices/system/cpu/online" in
      let line = input_line ic in
      close_in ic;
      List.fold_left
        (fun acc part ->
          match String.split_on_char '-' (String.trim part) with
          | [ a; b ] -> acc + (int_of_string b - int_of_string a + 1)
          | [ one ] when one <> "" -> acc + 1
          | _ -> acc)
        0
        (String.split_on_char ',' (String.trim line))
    with _ -> 0
  in
  (* Conservative: take the *minimum* of the signals that report.  On
     cgroup-constrained runners the cpuset shrinks one signal while the
     other still reports the physical host, and believing the optimist
     arms the wall-clock speedup gate on a box that cannot parallelize
     (the gate then fails spuriously at jobs=4).  Missing signals (0)
     don't vote. *)
  match List.filter (fun c -> c > 0) [ from_domain; from_sys ] with
  | [] -> 1
  | c :: rest -> List.fold_left min c rest

(* A contended cΣ instance: enough requests competing for a small grid
   that the search leaves a real tree (hundreds of nodes), so batches
   carry several node LPs and parallel evaluation has work to overlap. *)
let bench_instance () =
  let rng = Workload.Rng.create 23L in
  Tvnep.Scenario.generate rng
    { Tvnep.Scenario.scaled with num_requests = 8; flexibility = 2.0 }

let bench_form () =
  let inst = bench_instance () in
  let fm = Tvnep.Csigma_model.build inst in
  ignore (Tvnep.Objective.apply fm Tvnep.Objective.Access_control);
  Lp.Std_form.of_model fm.Tvnep.Formulation.model

(* One solve of the fixed form at a given jobs level.  Every level gets
   its own deterministic budget (same rate, same limit), so tick counts
   are comparable and the search is limit-identical across levels. *)
type run = {
  jobs : int;
  status : string;
  objective : float;   (* nan = no incumbent *)
  bound : float;
  nodes : int;
  lp_iterations : int;
  ticks : int;
  wall_s : float;          (* median over [timing_reps] repeats *)
  gc_minor_words : float;  (* the merging domain's allocation, median run *)
}

let timing_reps = 3

let solve_once ~sf ~time_limit jobs =
  let params =
    { Mip.Branch_bound.default_params with time_limit; jobs; log_every = 0 }
  in
  let budget =
    Runtime.Budget.create ~deterministic:Figures.work_rate ~time_limit ()
  in
  let stats = Runtime.Stats.create () in
  let gw0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let r = Mip.Branch_bound.solve_form ~params ~budget ~stats sf in
  let wall_s = Unix.gettimeofday () -. t0 in
  ( {
      jobs;
      status = Mip.Branch_bound.status_to_string r.Mip.Branch_bound.status;
      objective = Option.value r.Mip.Branch_bound.objective ~default:Float.nan;
      bound = r.Mip.Branch_bound.best_bound;
      nodes = r.Mip.Branch_bound.nodes;
      lp_iterations = r.Mip.Branch_bound.lp_iterations;
      ticks = Runtime.Budget.ticks budget;
      wall_s;
      gc_minor_words = Gc.minor_words () -. gw0;
    },
    stats )

(* Median-of-[timing_reps] wall time per jobs level; all repeats must
   agree on the determinism fingerprint (they solve the same instance on
   the same work clock), so only the first repeat's stats are merged. *)
let solve_at ~sf ~time_limit jobs =
  let reps =
    List.init timing_reps (fun _ -> solve_once ~sf ~time_limit jobs)
  in
  let first, stats = List.hd reps in
  List.iter
    (fun ((r : run), _) ->
      if
        (r.status, r.objective, r.bound, r.nodes, r.lp_iterations, r.ticks)
        <> ( first.status, first.objective, first.bound, first.nodes,
             first.lp_iterations, first.ticks )
      then begin
        Printf.eprintf
          "BNB NON-REPRODUCIBLE: repeat at jobs=%d disagrees with itself\n"
          jobs;
        exit 1
      end)
    reps;
  let sorted =
    List.sort compare (List.map (fun ((r : run), _) -> r.wall_s) reps)
  in
  let wall_s = List.nth sorted (timing_reps / 2) in
  ( { first with wall_s },
    stats )

(* The determinism fingerprint: everything but the wall clock. *)
let fingerprint r =
  (r.status, r.objective, r.bound, r.nodes, r.lp_iterations, r.ticks)

let json_of_runs runs =
  let open Statsutil.Json in
  Obj
    [
      ("schema", Str "tvnep-bench-bnb/2");
      ( "clock",
        Str
          (Printf.sprintf
             "deterministic work ticks (%.0e ticks = 1 budget second)"
             Figures.work_rate) );
      ("identical_across_jobs", Bool true);
      ( "runs",
        List
          (List.map
             (fun r ->
               Obj
                 [
                   ("jobs", Num (float_of_int r.jobs));
                   ("status", Str r.status);
                   ("objective", Num r.objective);
                   ("bound", Num r.bound);
                   ("nodes", Num (float_of_int r.nodes));
                   ("lp_iterations", Num (float_of_int r.lp_iterations));
                   ("ticks", Num (float_of_int r.ticks));
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
    match member "schema" doc with
    | Some (Str "tvnep-bench-bnb/2") -> (
      match member "identical_across_jobs" doc with
      | Some (Bool true) -> (
        match Option.bind (member "runs" doc) to_list with
        | None | Some [] -> Error "missing or empty \"runs\" list"
        | Some runs ->
          let bad =
            List.filter
              (fun r ->
                let num k = Option.bind (member k r) to_float <> None in
                not
                  ((match member "status" r with
                   | Some (Str _) -> true
                   | _ -> false)
                  && num "jobs" && num "objective" && num "bound"
                  && num "nodes" && num "lp_iterations" && num "ticks"
                  && num "wall_s" && num "gc_minor_words"))
              runs
          in
          if bad = [] then Ok (List.length runs)
          else Error "a run is missing a required field")
      | _ -> Error "\"identical_across_jobs\" is not true")
    | _ -> Error "missing or unexpected \"schema\"")

let run ?json_path ?(time_limit = 30.0) () =
  Printf.printf
    "\n== Branch-and-bound parallel benchmark (deterministic work clock) ==\n";
  let sf = bench_form () in
  (* One untimed warm-up solve: fault in the code paths, size the minor
     heaps, and let the allocator reach steady state before anything is
     measured. *)
  ignore (solve_once ~sf ~time_limit 1);
  let total = Runtime.Stats.create () in
  let runs =
    List.map
      (fun jobs ->
        let r, stats = solve_at ~sf ~time_limit jobs in
        Runtime.Stats.merge ~into:total stats;
        r)
      jobs_levels
  in
  let table =
    Statsutil.Table.create
      ~headers:
        [ "jobs"; "status"; "objective"; "bound"; "nodes"; "LP iters";
          "ticks"; "wall"; "speedup" ]
  in
  let base = List.hd runs in
  List.iter
    (fun r ->
      Statsutil.Table.add_row table
        [
          string_of_int r.jobs;
          r.status;
          Printf.sprintf "%g" r.objective;
          Printf.sprintf "%g" r.bound;
          string_of_int r.nodes;
          string_of_int r.lp_iterations;
          string_of_int r.ticks;
          Printf.sprintf "%.3f s" r.wall_s;
          Printf.sprintf "%.2fx" (base.wall_s /. Float.max 1e-9 r.wall_s);
        ])
    runs;
  Statsutil.Table.print table;
  Printf.printf "aggregate counters: %s\n" (Runtime.Stats.to_string total);
  (* Hard determinism gate: every level must reproduce jobs=1 exactly. *)
  let mismatches =
    List.filter (fun r -> fingerprint r <> fingerprint base) runs
  in
  if mismatches <> [] then begin
    List.iter
      (fun r ->
        Printf.eprintf
          "BNB DETERMINISM VIOLATION: jobs=%d returned (%s, %g, %g, %d \
           nodes, %d iters, %d ticks) but jobs=%d returned (%s, %g, %g, %d \
           nodes, %d iters, %d ticks)\n"
          r.jobs r.status r.objective r.bound r.nodes r.lp_iterations r.ticks
          base.jobs base.status base.objective base.bound base.nodes
          base.lp_iterations base.ticks)
      mismatches;
    exit 1
  end;
  Printf.printf "determinism: all jobs levels identical (%s, obj %g, %d \
                 nodes, %d ticks)\n"
    base.status base.objective base.nodes base.ticks;
  (* Speedup floor, only meaningful with real cores to run on. *)
  let cores = detect_cores () in
  (match List.find_opt (fun r -> r.jobs = 4) runs with
  | Some r4 when cores >= 4 ->
    let speedup = base.wall_s /. Float.max 1e-9 r4.wall_s in
    if speedup < min_speedup then begin
      Printf.eprintf
        "BNB SPEEDUP REGRESSION: jobs=4 is %.2fx vs jobs=1 (floor %.1fx) \
         on a %d-core host; median-of-%d walls:\n"
        speedup min_speedup cores timing_reps;
      List.iter
        (fun r ->
          Printf.eprintf "  jobs=%d  %.3f s  (%.2fx)\n" r.jobs r.wall_s
            (base.wall_s /. Float.max 1e-9 r.wall_s))
        runs;
      exit 1
    end
    else
      Printf.printf "speedup: jobs=4 runs %.2fx faster than jobs=1 (floor \
                     %.1fx)\n"
        speedup min_speedup
  | _ ->
    Printf.printf
      "speedup floor skipped: host reports %d core(s) (< 4 needed)\n" cores);
  match json_path with
  | Some path ->
    Bench_json.emit ~path ~noun:"runs" ~validate:validate_json_string
      (json_of_runs runs)
  | None -> ()
