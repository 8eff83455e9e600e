(* Bechamel micro-benchmarks of the solver's computational kernels, plus a
   deterministic simplex benchmark written to a machine-readable JSON file
   so the perf trajectory of the LP hot path is tracked across PRs. *)

open Bechamel
open Toolkit

let lu_input n =
  let rng = Workload.Rng.create 5L in
  Lina.Dense_matrix.of_rows
    (Array.init n (fun _ ->
         Array.init n (fun _ -> Workload.Rng.float_range rng (-2.0) 2.0)))

let small_lp () =
  (* A fixed 30-var, 20-row random LP. *)
  let rng = Workload.Rng.create 11L in
  let m = Lp.Model.create () in
  let vars =
    Array.init 30 (fun _ ->
        Lp.Model.add_var m ~ub:(Workload.Rng.float_range rng 1.0 4.0))
  in
  for _ = 1 to 20 do
    Lp.Model.add_le m
      (Lp.Expr.of_terms
         (Array.to_list
            (Array.map
               (fun (x : Lp.Model.var) ->
                 ((x :> int), Workload.Rng.float_range rng 0.0 2.0))
               vars)))
      (Workload.Rng.float_range rng 2.0 8.0)
  done;
  Lp.Model.set_objective m Lp.Model.Maximize
    (Lp.Expr.sum
       (Array.to_list
          (Array.map (fun (x : Lp.Model.var) -> Lp.Expr.var (x :> int)) vars)));
  Lp.Std_form.of_model m

let bench_instance () =
  let rng = Workload.Rng.create 3L in
  Tvnep.Scenario.generate rng
    { Tvnep.Scenario.scaled with num_requests = 4; flexibility = 1.0 }

(* The node-LP bench instance's optimal basis, as the dimension and the
   column accessor [Lina.Lu.Sparse.factorize] takes. *)
let node_basis () =
  let inst = bench_instance () in
  let fm = Tvnep.Csigma_model.build inst in
  ignore (Tvnep.Objective.apply fm Tvnep.Objective.Access_control);
  let sf = Lp.Std_form.of_model fm.Tvnep.Formulation.model in
  let r = Lp.Simplex.solve sf in
  assert (r.Lp.Simplex.status = Lp.Simplex.Optimal);
  let basic = (Option.get r.Lp.Simplex.final_basis).Lp.Simplex.basic in
  ( sf.Lp.Std_form.n_rows,
    fun pos g -> Lina.Csc.iter_col sf.Lp.Std_form.a basic.(pos) g )

let tests () =
  let lu60 = lu_input 60 in
  let n, col = node_basis () in
  let lp = small_lp () in
  let inst = bench_instance () in
  let grid = Graphs.Generators.grid ~rows:4 ~cols:5 in
  [
    Test.make ~name:"lu-factorize-60x60"
      (Staged.stage (fun () -> ignore (Lina.Lu.factorize lu60)));
    Test.make ~name:"lu-sparse-factorize-node-basis"
      (Staged.stage (fun () -> ignore (Lina.Lu.Sparse.factorize ~n ~col)));
    Test.make ~name:"simplex-30v-20r"
      (Staged.stage (fun () -> ignore (Lp.Simplex.solve lp)));
    Test.make ~name:"floyd-warshall-grid-4x5"
      (Staged.stage (fun () ->
           ignore (Graphs.Paths.floyd_warshall grid ~weight:(fun _ -> 1.0))));
    Test.make ~name:"csigma-build-k4"
      (Staged.stage (fun () -> ignore (Tvnep.Csigma_model.build inst)));
    Test.make ~name:"depgraph-ranges-k4"
      (Staged.stage (fun () ->
           ignore (Tvnep.Depgraph.csigma_event_ranges inst)));
    Test.make ~name:"greedy-k4"
      (Staged.stage (fun () -> ignore (Tvnep.Greedy.run inst)));
  ]

(* --- deterministic simplex benchmark (JSON) ---------------------------- *)

(* One benchmark case: [iterations] repetitions of some solve, with the
   work billed to a deterministic budget clock (1 tick / "second", so
   ticks are read back directly off the budget) and pivots taken from the
   shared stats record.  [per_rep] carries the per-repetition tick deltas
   so medians survive into the JSON.  Wall time and minor words come with
   their per-solve forms: ticks per wall microsecond (how fast the work
   clock runs on this host, the figure the tick billing is calibrated
   against) and minor words per solve. *)
type sim_case = {
  name : string;
  iterations : int;
  pivots : int;
  ticks : int;
  wall_s : float;
  gc_minor_words : float;  (* minor-heap words allocated by the case *)
  per_rep_ticks : float list;
}

let ticks_per_us c = float_of_int c.ticks /. Float.max 1e-9 (c.wall_s *. 1e6)

let minor_words_per_solve c = c.gc_minor_words /. float_of_int c.iterations

let case_of_runs name runs =
  let iterations = List.length runs in
  let pivots = List.fold_left (fun acc (p, _) -> acc + p) 0 runs in
  let ticks = List.fold_left (fun acc (_, t) -> acc + t) 0 runs in
  (name, iterations, pivots, ticks, List.map (fun (_, t) -> float_of_int t) runs)

(* Cold solves of the fixed small LP. *)
let cold_lp_case () =
  let sf = small_lp () in
  let reps = 50 in
  let gw0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let runs =
    List.init reps (fun _ ->
        let budget = Runtime.Budget.create ~deterministic:1.0 () in
        let stats = Runtime.Stats.create () in
        let r = Lp.Simplex.solve ~budget ~stats sf in
        assert (r.Lp.Simplex.status = Lp.Simplex.Optimal);
        (stats.Runtime.Stats.simplex_iterations, Runtime.Budget.ticks budget))
  in
  let name, iterations, pivots, ticks, per_rep =
    case_of_runs "simplex-cold-30v-20r" runs
  in
  { name; iterations; pivots; ticks; wall_s = Unix.gettimeofday () -. t0;
    gc_minor_words = Gc.minor_words () -. gw0; per_rep_ticks = per_rep }

(* Cold two-phase solves of a cΣ root LP shaped like one offline-flex
   cell (scaled generator, 8 requests, 1 h of flexibility): rows whose
   logical cannot start feasibly get artificials, so each solve runs
   phase 1 first, with the cold factorizations and dense-ish pivots of a
   fresh basis. *)
let csigma_root_sf () =
  let p = { Tvnep.Scenario.scaled with num_requests = 8 } in
  let inst =
    match Tvnep.Scenario.sweep ~seed:4242L p ~flexibilities:[ 1.0 ] with
    | [ inst ] -> inst
    | _ -> assert false
  in
  let fm =
    Tvnep.Csigma_model.build
      ~options:
        { Tvnep.Csigma_model.use_cuts = true; pairwise_cuts = true;
          relax_integrality = false }
      inst
  in
  ignore (Tvnep.Objective.apply fm Tvnep.Objective.Access_control);
  Lp.Std_form.of_model fm.Tvnep.Formulation.model

let cold_root_case () =
  let sf = csigma_root_sf () in
  let reps = 20 in
  let gw0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let runs =
    List.init reps (fun _ ->
        let budget = Runtime.Budget.create ~deterministic:1.0 () in
        let stats = Runtime.Stats.create () in
        let r = Lp.Simplex.solve ~budget ~stats sf in
        assert (r.Lp.Simplex.status = Lp.Simplex.Optimal);
        (stats.Runtime.Stats.simplex_iterations, Runtime.Budget.ticks budget))
  in
  let name, iterations, pivots, ticks, per_rep =
    case_of_runs "simplex-cold-csigma-root-k8" runs
  in
  { name; iterations; pivots; ticks; wall_s = Unix.gettimeofday () -. t0;
    gc_minor_words = Gc.minor_words () -. gw0; per_rep_ticks = per_rep }

(* The LP hot path of every TVNEP figure: branch-and-bound re-solves of
   the cΣ node LPs.  A persistent session re-optimizes under a
   deterministic sequence of integer-bound fixings that mimics plunging
   (fix a handful of binaries, re-solve after each, back off, repeat), and
   each re-solve's pivots and work-clock ticks are recorded. *)
let node_lp_runs () =
  let inst = bench_instance () in
  let fm = Tvnep.Csigma_model.build inst in
  ignore (Tvnep.Objective.apply fm Tvnep.Objective.Access_control);
  let sf = Lp.Std_form.of_model fm.Tvnep.Formulation.model in
  let n_total = Lp.Std_form.n_total sf in
  let root_lb = Array.sub sf.Lp.Std_form.lb 0 n_total in
  let root_ub = Array.sub sf.Lp.Std_form.ub 0 n_total in
  let int_cols =
    List.filter
      (fun j -> sf.Lp.Std_form.integer.(j))
      (List.init sf.Lp.Std_form.n_struct (fun j -> j))
  in
  let int_cols = Array.of_list int_cols in
  let session = Lp.Simplex.create_session sf in
  let budget = Runtime.Budget.create ~deterministic:1.0 () in
  let stats = Runtime.Stats.create () in
  (* Root solve primes the session's basis; not part of the measurement. *)
  ignore (Lp.Simplex.session_solve session ~budget ~stats ~lb:root_lb ~ub:root_ub ());
  let rng = Workload.Rng.create 17L in
  let lb = Array.copy root_lb and ub = Array.copy root_ub in
  let resolves = 60 and plunge_depth = 5 in
  let runs = ref [] in
  for step = 0 to resolves - 1 do
    if step mod plunge_depth = 0 then begin
      (* back off to the root bounds: the next fixing starts a new dive *)
      Array.blit root_lb 0 lb 0 n_total;
      Array.blit root_ub 0 ub 0 n_total
    end;
    let j = int_cols.(Workload.Rng.int rng (Array.length int_cols)) in
    if Workload.Rng.bool rng then ub.(j) <- lb.(j) else lb.(j) <- ub.(j);
    let pivots0 = stats.Runtime.Stats.simplex_iterations in
    let ticks0 = Runtime.Budget.ticks budget in
    (* Infeasible children are normal; what matters is the work billed. *)
    ignore (Lp.Simplex.session_solve session ~budget ~stats ~lb ~ub ());
    runs :=
      ( stats.Runtime.Stats.simplex_iterations - pivots0,
        Runtime.Budget.ticks budget - ticks0 )
      :: !runs
  done;
  (List.rev !runs, stats)

let node_lp_case () =
  let gw0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let runs, stats = node_lp_runs () in
  let name, iterations, pivots, ticks, per_rep =
    case_of_runs "node-lp-resolve-csigma-k4" runs
  in
  ( { name; iterations; pivots; ticks; wall_s = Unix.gettimeofday () -. t0;
      gc_minor_words = Gc.minor_words () -. gw0; per_rep_ticks = per_rep },
    stats )

let sim_cases () =
  let node, stats = node_lp_case () in
  ([ cold_lp_case (); node; cold_root_case () ], stats)

(* --- sparse-kernel A/B gate -------------------------------------------- *)

(* The ISSUE 7 acceptance bar: on the node-LP instance's optimal factored
   basis, the reach-based sparse BTRAN/FTRAN must beat the dense-scan
   triangular solves they replaced by >= [kernel_ab_floor] on median
   per-solve wall, at the RHS sparsity the dual simplex actually feeds
   them (a unit vector: one [unit_row] BTRAN per pivot).  Both kernels
   run over the same factors, and every pair of solves is checked for
   agreement, so the gate also pins the semantics. *)
let kernel_ab_floor = 2.0

type kernel_ab = {
  btran_reach_us : float;  (* median per-solve wall, microseconds *)
  btran_dense_us : float;
  ftran_reach_us : float;
  ftran_dense_us : float;
}

let kernel_ab_case () =
  let module Slu = Lina.Lu.Sparse in
  let n, col = node_basis () in
  let f = Slu.factorize ~n ~col in
  let scratch = Slu.scratch n in
  let b = Array.make n 0.0
  and c = Array.make n 0.0
  and work = Array.make n 0.0 in
  (* Each RHS position is solved [inner] times back to back so the
     per-solve wall rises above clock resolution; the median is over
     positions. *)
  let inner = 20 in
  let median_us solve =
    let samples =
      List.init n (fun k ->
          let t0 = Unix.gettimeofday () in
          for _ = 1 to inner do
            Array.fill b 0 n 0.0;
            b.(k) <- 1.0;
            solve b
          done;
          (Unix.gettimeofday () -. t0) /. float_of_int inner *. 1e6)
    in
    Statsutil.Stats.median samples
  in
  (* Agreement check at existing tolerances, every position, both
     directions. *)
  let check name reach dense =
    for k = 0 to n - 1 do
      Array.fill b 0 n 0.0;
      b.(k) <- 1.0;
      reach b;
      Array.fill c 0 n 0.0;
      c.(k) <- 1.0;
      dense c;
      for i = 0 to n - 1 do
        if Float.abs (b.(i) -. c.(i)) > 1e-9 then begin
          Printf.eprintf
            "KERNEL AB MISMATCH: %s unit %d row %d: reach %g dense %g\n" name
            k i b.(i) c.(i);
          exit 1
        end
      done
    done
  in
  check "btran"
    (fun b -> ignore (Slu.btran_reach f scratch b : int))
    (fun b -> Slu.btran_in_place f ~work b);
  check "ftran"
    (fun b -> ignore (Slu.ftran_reach f scratch b : int))
    (fun b -> Slu.ftran_in_place f ~work b);
  (* Warm the caches once before timing. *)
  ignore (median_us (fun b -> ignore (Slu.btran_reach f scratch b : int)));
  {
    btran_reach_us =
      median_us (fun b -> ignore (Slu.btran_reach f scratch b : int));
    btran_dense_us = median_us (fun b -> Slu.btran_in_place f ~work b);
    ftran_reach_us =
      median_us (fun b -> ignore (Slu.ftran_reach f scratch b : int));
    ftran_dense_us = median_us (fun b -> Slu.ftran_in_place f ~work b);
  }

let json_of_cases cases ab (stats : Runtime.Stats.t) =
  let open Statsutil.Json in
  Obj
    [
      ("schema", Str "tvnep-bench-simplex/5");
      ("clock", Str "deterministic work ticks (1 tick = 1 work unit)");
      ( "cases",
        List
          (List.map
             (fun c ->
               Obj
                 [
                   ("name", Str c.name);
                   ("iterations", Num (float_of_int c.iterations));
                   ("pivots", Num (float_of_int c.pivots));
                   ("ticks", Num (float_of_int c.ticks));
                   ( "median_ticks_per_solve",
                     Num (Statsutil.Stats.median c.per_rep_ticks) );
                   ("wall_s", Num c.wall_s);
                   ("gc_minor_words", Num c.gc_minor_words);
                   ("ticks_per_us", Num (ticks_per_us c));
                   ("minor_words_per_solve", Num (minor_words_per_solve c));
                 ])
             cases) );
      ( "kernel_ab",
        Obj
          [
            ("btran_reach_us", Num ab.btran_reach_us);
            ("btran_dense_us", Num ab.btran_dense_us);
            ("ftran_reach_us", Num ab.ftran_reach_us);
            ("ftran_dense_us", Num ab.ftran_dense_us);
            ("floor", Num kernel_ab_floor);
          ] );
      ( "telemetry",
        Obj
          [
            ( "basis_updates",
              Num (float_of_int stats.Runtime.Stats.basis_updates) );
            ("spike_fill", Num (float_of_int stats.Runtime.Stats.spike_fill));
            ( "refactor_fill",
              Num (float_of_int stats.Runtime.Stats.refactor_fill) );
            ( "refactor_drift",
              Num (float_of_int stats.Runtime.Stats.refactor_drift) );
            ( "refactor_forced",
              Num (float_of_int stats.Runtime.Stats.refactor_forced) );
          ] );
    ]

(* Structural validation of an emitted file: used right after writing (so
   a malformed bench file fails `make check` loudly) and available to any
   consumer tracking the numbers across PRs. *)
let validate_json_string s =
  let open Statsutil.Json in
  match of_string s with
  | Error msg -> Error ("not valid JSON: " ^ msg)
  | Ok doc -> (
    match member "schema" doc with
    | Some (Str "tvnep-bench-simplex/5") -> (
      match Option.bind (member "cases" doc) to_list with
      | None | Some [] -> Error "missing or empty \"cases\" list"
      | Some cases -> (
        let bad =
          List.filter
            (fun c ->
              let num k = Option.bind (member k c) to_float <> None in
              not
                ((match member "name" c with Some (Str _) -> true | _ -> false)
                && num "iterations" && num "pivots" && num "ticks"
                && num "median_ticks_per_solve" && num "wall_s"
                && num "gc_minor_words" && num "ticks_per_us"
                && num "minor_words_per_solve"))
            cases
        in
        if bad <> [] then Error "a case is missing a required field"
        else
          let require_obj name fields k =
            match member name doc with
            | Some o ->
              let num f = Option.bind (member f o) to_float <> None in
              if List.for_all num fields then k ()
              else
                Error (Printf.sprintf "%S is missing a required field" name)
            | None -> Error (Printf.sprintf "missing %S" name)
          in
          require_obj "kernel_ab"
            [ "btran_reach_us"; "btran_dense_us"; "ftran_reach_us";
              "ftran_dense_us"; "floor" ]
            (fun () ->
              require_obj "telemetry"
                [ "basis_updates"; "spike_fill"; "refactor_fill";
                  "refactor_drift"; "refactor_forced" ]
                (fun () -> Ok (List.length cases)))))
    | _ -> Error "missing or unexpected \"schema\"")

let run ?json_path () =
  Printf.printf "\n== Simplex benchmark (deterministic work clock) ==\n";
  let cases, node_stats = sim_cases () in
  let table =
    Statsutil.Table.create
      ~headers:
        [ "case"; "solves"; "pivots"; "ticks"; "med ticks/solve"; "wall";
          "ticks/us"; "minor words"; "words/solve" ]
  in
  List.iter
    (fun c ->
      Statsutil.Table.add_row table
        [
          c.name;
          string_of_int c.iterations;
          string_of_int c.pivots;
          string_of_int c.ticks;
          Printf.sprintf "%.0f" (Statsutil.Stats.median c.per_rep_ticks);
          Printf.sprintf "%.3f s" c.wall_s;
          Printf.sprintf "%.1f" (ticks_per_us c);
          Printf.sprintf "%.0f" c.gc_minor_words;
          Printf.sprintf "%.0f" (minor_words_per_solve c);
        ])
    cases;
  Statsutil.Table.print table;
  Printf.printf "\n== Sparse-kernel A/B (node-LP optimal basis, unit RHS) ==\n";
  let ab = kernel_ab_case () in
  let btran_speedup = ab.btran_dense_us /. Float.max 1e-9 ab.btran_reach_us in
  let ftran_speedup = ab.ftran_dense_us /. Float.max 1e-9 ab.ftran_reach_us in
  Printf.printf
    "btran: reach %.2f us vs dense-scan %.2f us (%.2fx)\n\
     ftran: reach %.2f us vs dense-scan %.2f us (%.2fx)\n"
    ab.btran_reach_us ab.btran_dense_us btran_speedup ab.ftran_reach_us
    ab.ftran_dense_us ftran_speedup;
  if Float.min btran_speedup ftran_speedup < kernel_ab_floor then begin
    Printf.eprintf
      "KERNEL AB REGRESSION: median per-solve speedup %.2fx (btran) / %.2fx \
       (ftran) under the %.1fx floor\n"
      btran_speedup ftran_speedup kernel_ab_floor;
    exit 1
  end
  else
    Printf.printf "kernel A/B gate: >= %.1fx floor passed\n" kernel_ab_floor;
  Printf.printf
    "update telemetry: %d updates, %d spike fill, refactors: %d fill / %d \
     drift / %d forced\n"
    node_stats.Runtime.Stats.basis_updates
    node_stats.Runtime.Stats.spike_fill
    node_stats.Runtime.Stats.refactor_fill
    node_stats.Runtime.Stats.refactor_drift
    node_stats.Runtime.Stats.refactor_forced;
  (match json_path with
  | Some path ->
    Bench_json.emit ~path ~noun:"cases" ~validate:validate_json_string
      (json_of_cases cases ab node_stats)
  | None -> ());
  Printf.printf "\n== Microbenchmarks (Bechamel, monotonic clock) ==\n";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let grouped = Test.make_grouped ~name:"micro" ~fmt:"%s %s" (tests ()) in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let table = Statsutil.Table.create ~headers:[ "kernel"; "time per run" ] in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let estimate =
        match Analyze.OLS.estimates ols_result with
        | Some (e :: _) -> e
        | _ -> nan
      in
      rows := (name, estimate) :: !rows)
    results;
  List.iter
    (fun (name, ns) ->
      let pretty =
        if Float.is_nan ns then "n/a"
        else if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
        else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
        else Printf.sprintf "%.0f ns" ns
      in
      Statsutil.Table.add_row table [ name; pretty ])
    (List.sort compare !rows);
  Statsutil.Table.print table
