(* Bechamel micro-benchmarks of the solver's computational kernels, plus a
   deterministic simplex benchmark written to a machine-readable JSON file
   so the perf trajectory of the LP hot path is tracked across PRs. *)

open Bechamel
open Toolkit

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
      (Array.to_list
         (Array.map (fun x -> (x, Workload.Rng.float_range rng 0.0 2.0)) vars))
      (Workload.Rng.float_range rng 2.0 8.0)
  done;
  Lp.Model.set_objective m Lp.Model.Maximize
    (Array.to_list (Array.map (fun x -> (x, 1.0)) vars));
  Lp.Std_form.of_model m

let bench_instance () =
  let rng = Workload.Rng.create 3L in
  Tvnep.Scenario.generate rng
    { Tvnep.Scenario.scaled with num_requests = 4; flexibility = 1.0 }

(* The node-LP bench instance's standard form and optimal basis, as
   [Lina.Lu.Sparse.ft_factorize] takes them (every basic index is a
   column of the form: the optimum carries no artificial). *)
let node_basis () =
  let inst = bench_instance () in
  let fm = Tvnep.Csigma_model.build inst in
  ignore (Tvnep.Objective.apply fm Tvnep.Objective.Access_control);
  let sf = Lp.Std_form.of_model fm.Tvnep.Formulation.model in
  let r = Lp.Simplex.solve sf in
  assert (r.Lp.Simplex.status = Lp.Simplex.Optimal);
  (sf, (Option.get r.Lp.Simplex.final_basis).Lp.Simplex.basic)

let tests () =
  let sf, basic = node_basis () in
  (* The simplex's refactorization path: the form's CSC arrays factorized
     in place into one set of factors, with one scratch, reused across
     refactorizations. *)
  let scratch = Lina.Lu.Sparse.scratch (Array.length basic) in
  let factors = Lina.Lu.Sparse.ft_create (Array.length basic) in
  let lp = small_lp () in
  let inst = bench_instance () in
  let grid = Graphs.Generators.grid ~rows:4 ~cols:5 in
  let grid78 = Graphs.Generators.grid ~rows:7 ~cols:8 in
  let n78 = Graphs.Digraph.num_nodes grid78 in
  [
    Test.make ~name:"lu-sparse-factorize-node-basis"
      (Staged.stage (fun () ->
           Lina.Lu.Sparse.ft_factorize factors scratch sf.Lp.Std_form.a
             ~unit_sign:[||] basic));
    Test.make ~name:"simplex-30v-20r"
      (Staged.stage (fun () -> ignore (Lp.Simplex.solve lp)));
    Test.make ~name:"floyd-warshall-grid-4x5"
      (Staged.stage (fun () ->
           ignore (Graphs.Paths.floyd_warshall grid ~weight:(fun _ -> 1.0))));
    (* The path master's seeding: Yen's two cheapest hop-count paths,
       for every ordered pair of distinct hosts of grid-relax's 7x8
       substrate. *)
    Test.make ~name:"yen-k2-seeding-grid-7x8-all-pairs"
      (Staged.stage (fun () ->
           for src = 0 to n78 - 1 do
             for dst = 0 to n78 - 1 do
               if src <> dst then
                 ignore
                   (Graphs.Paths.k_shortest_paths grid78
                      ~weight:(fun _ -> 1.0) ~src ~dst ~k:2)
             done
           done));
    Test.make ~name:"csigma-build-k4"
      (Staged.stage (fun () -> ignore (Tvnep.Csigma_model.build inst)));
    Test.make ~name:"depgraph-ranges-k4"
      (Staged.stage (fun () ->
           ignore (Tvnep.Depgraph.csigma_event_ranges inst)));
    Test.make ~name:"greedy-k4"
      (Staged.stage (fun () -> ignore (Tvnep.Greedy.run inst)));
  ]

(* --- deterministic simplex benchmark (JSON) ---------------------------- *)

(* One benchmark case, one {!Record.t}: repetitions of some solve, with
   the work billed to a deterministic budget clock (1 tick / "second", so
   ticks are read back directly off the budget) and pivots taken from the
   shared stats record.  [runs] holds one (pivots, ticks) pair per solve;
   their median ticks survive into the JSON next to the totals. *)
let case_record ~label ~wall_s ~minor_words runs counters =
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 runs in
  {
    Record.label;
    status = "ok";
    objective = Float.nan;
    ticks = sum snd;
    wall_s;
    minor_words;
    counters =
      [
        ("solves", float_of_int (List.length runs));
        ("pivots", float_of_int (sum fst));
        ( "median_ticks_per_solve",
          Statsutil.Stats.median (List.map (fun (_, t) -> float_of_int t) runs)
        );
      ]
      @ counters;
    detail = None;
  }

(* How fast the work clock runs on this host (the figure the tick billing
   is calibrated against) and the allocation per solve. *)
let ticks_per_us (r : Record.t) =
  float_of_int r.ticks /. Float.max 1e-9 (r.wall_s *. 1e6)

let minor_words_per_solve (r : Record.t) =
  r.minor_words /. Record.counter r "solves"

(* [reps] cold solves of a fixed LP. *)
let cold_case ~label ~reps sf =
  let runs, wall_s, minor_words =
    Record.measure (fun () ->
        List.init reps (fun _ ->
            let budget = Runtime.Budget.create ~deterministic:1.0 () in
            let stats = Runtime.Stats.create () in
            let r = Lp.Simplex.solve ~budget ~stats sf in
            assert (r.Lp.Simplex.status = Lp.Simplex.Optimal);
            ( stats.Runtime.Stats.simplex_iterations,
              Runtime.Budget.ticks budget )))
  in
  case_record ~label ~wall_s ~minor_words runs []

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

(* The node-LP case carries the session's basis-update telemetry. *)
let node_lp_case () =
  let (runs, stats), wall_s, minor_words = Record.measure node_lp_runs in
  let n v = float_of_int v in
  case_record ~label:"node-lp-resolve-csigma-k4" ~wall_s ~minor_words runs
    [
      ("basis_updates", n stats.Runtime.Stats.basis_updates);
      ("spike_fill", n stats.Runtime.Stats.spike_fill);
      ("refactor_fill", n stats.Runtime.Stats.refactor_fill);
      ("refactor_drift", n stats.Runtime.Stats.refactor_drift);
      ("refactor_forced", n stats.Runtime.Stats.refactor_forced);
    ]

(* --- sparse-kernel A/B gate -------------------------------------------- *)

(* On Forrest–Tomlin factors of the node-LP instance's optimal basis
   (fresh from a refactorization, as every simplex solve starts), the
   reach-based solves must beat their dense-scan fallback
   [ft_btran_dense]/[ft_ftran_dense] by >= [kernel_ab_floor] on the
   upper quartile of per-solve wall, fed as the simplex feeds them: BTRAN
   of a unit row ([Basis.unit_row], one per dual pivot) and FTRAN of a
   column of A scattered from the CSC ([Basis.ftran_col], one per pivot), each
   handed its RHS pattern ([ft_btran_roots]/[ft_ftran_roots]) and its
   buffer cleared afterwards over the support the solve reported — the
   dense path, which reports none, over all of it.  Both kernels run
   over the same factors, and every pair of solves is checked for
   agreement, so the gate also pins the semantics.  The basis is
   slack-heavy: most unit rows and columns reach a handful of entries
   and time as call overhead, so a median would read that overhead
   whatever the solves with a real reach do; the upper quartile is set
   by those. *)
let kernel_ab_floor = 2.0

let kernel_ab_case () =
  let module Slu = Lina.Lu.Sparse in
  let sf, basic = node_basis () in
  let n = Array.length basic in
  let a = sf.Lp.Std_form.a in
  let ptr = a.Lina.Csc.col_ptr in
  let scratch = Slu.scratch n in
  let ft = Slu.ft_create n in
  Slu.ft_factorize ft scratch a ~unit_sign:[||] basic;
  let b = Array.make n 0.0 and c = Array.make n 0.0 in
  let unit = [| 0 |] in
  let unit_row solve k v =
    v.(k) <- 1.0;
    unit.(0) <- k;
    solve v ~roots:unit ~first:0 ~len:1
  in
  let column solve j v =
    for e = ptr.(j) to ptr.(j + 1) - 1 do
      v.(a.Lina.Csc.row_idx.(e)) <- a.Lina.Csc.value.(e)
    done;
    solve v ~roots:a.Lina.Csc.row_idx ~first:ptr.(j)
      ~len:(ptr.(j + 1) - ptr.(j))
  in
  (* The dense scans take no pattern. *)
  let dense solve v ~roots:_ ~first:_ ~len:_ = solve ft scratch v in
  let btran_reach = unit_row (Slu.ft_btran_roots ft scratch)
  and btran_dense = unit_row (dense Slu.ft_btran_dense)
  and ftran_reach = column (Slu.ft_ftran_roots ft scratch)
  and ftran_dense = column (dense Slu.ft_ftran_dense) in
  let clear v =
    let k = Slu.support_len scratch in
    if k < 0 then Array.fill v 0 n 0.0
    else
      for t = 0 to k - 1 do
        v.((Slu.support scratch).(t)) <- 0.0
      done
  in
  (* Each RHS (unit row or column) is solved [inner] times back to back
     so the per-solve wall rises well above clock resolution (a
     support-fed solve takes a fraction of a microsecond); the quartile
     is over the RHS. *)
  let inner = 200 in
  let upper_quartile_us count solve =
    let samples =
      List.init count (fun k ->
          let t0 = Unix.gettimeofday () in
          for _ = 1 to inner do
            ignore (solve k b : int);
            clear b
          done;
          (Unix.gettimeofday () -. t0) /. float_of_int inner *. 1e6)
    in
    Statsutil.Stats.quantile 0.75 samples
  in
  (* Agreement check at existing tolerances, every RHS, both
     directions. *)
  let check name count reach dense =
    for k = 0 to count - 1 do
      Array.fill b 0 n 0.0;
      ignore (reach k b : int);
      Array.fill c 0 n 0.0;
      ignore (dense k c : int);
      for i = 0 to n - 1 do
        if Float.abs (b.(i) -. c.(i)) > 1e-9 then begin
          Printf.eprintf
            "KERNEL AB MISMATCH: %s rhs %d row %d: reach %g dense %g\n" name
            k i b.(i) c.(i);
          exit 1
        end
      done
    done;
    Array.fill b 0 n 0.0
  in
  let ncols = Lina.Csc.cols a in
  check "btran" n btran_reach btran_dense;
  check "ftran" ncols ftran_reach ftran_dense;
  (* Warm the caches once before timing. *)
  ignore (upper_quartile_us n btran_reach);
  let btran_reach = upper_quartile_us n btran_reach in
  let btran_dense = upper_quartile_us n btran_dense in
  let ftran_reach = upper_quartile_us ncols ftran_reach in
  let ftran_dense = upper_quartile_us ncols ftran_dense in
  [
    ("btran_reach_us", btran_reach);
    ("btran_dense_us", btran_dense);
    ("ftran_reach_us", ftran_reach);
    ("ftran_dense_us", ftran_dense);
  ]

(* The A/B pass as a wall-only record: upper-quartile per-solve
   microseconds as counters, no ticks. *)
let kernel_ab_record () =
  let counters, wall_s, minor_words = Record.measure kernel_ab_case in
  { Record.label = "kernel-ab"; status = "ok"; objective = Float.nan;
    ticks = 0; wall_s; minor_words; counters; detail = None }

let kernel_speedups ab =
  let speedup dense reach =
    Record.counter ab dense /. Float.max 1e-9 (Record.counter ab reach)
  in
  ( speedup "btran_dense_us" "btran_reach_us",
    speedup "ftran_dense_us" "ftran_reach_us" )

let gates : Record.gate list =
  [
    ( "kernel_speedup",
      fun runs ->
        let btran, ftran = kernel_speedups (Record.find "kernel-ab" runs) in
        if Float.min btran ftran >= kernel_ab_floor then Ok ()
        else
          Error
            (Printf.sprintf
               "upper-quartile per-solve speedup %.2fx (btran) / %.2fx \
                (ftran) under the %.1fx floor"
               btran ftran kernel_ab_floor) );
  ]

let run ~json_dir () =
  Printf.printf "\n== Simplex benchmark (deterministic work clock) ==\n";
  let cold_lp =
    cold_case ~label:"simplex-cold-30v-20r" ~reps:50 (small_lp ())
  in
  let node_lp = node_lp_case () in
  let cold_root =
    cold_case ~label:"simplex-cold-csigma-root-k8" ~reps:20 (csigma_root_sf ())
  in
  let cases = [ cold_lp; node_lp; cold_root ] in
  let table =
    Statsutil.Table.create
      ~headers:
        [ "case"; "solves"; "pivots"; "ticks"; "med ticks/solve"; "wall";
          "ticks/us"; "minor words"; "words/solve" ]
  in
  List.iter
    (fun (r : Record.t) ->
      let c k = Printf.sprintf "%.0f" (Record.counter r k) in
      Statsutil.Table.add_row table
        [
          r.label;
          c "solves";
          c "pivots";
          string_of_int r.ticks;
          c "median_ticks_per_solve";
          Printf.sprintf "%.3f s" r.wall_s;
          Printf.sprintf "%.1f" (ticks_per_us r);
          Printf.sprintf "%.0f" r.minor_words;
          Printf.sprintf "%.0f" (minor_words_per_solve r);
        ])
    cases;
  Statsutil.Table.print table;
  let c k = int_of_float (Record.counter node_lp k) in
  Printf.printf
    "update telemetry: %d updates, %d spike fill, refactors: %d fill / %d \
     drift / %d forced\n"
    (c "basis_updates") (c "spike_fill") (c "refactor_fill")
    (c "refactor_drift") (c "refactor_forced");
  Printf.printf
    "\n== Sparse-kernel A/B (Forrest–Tomlin factors of the node-LP optimal \
     basis, unit-row BTRAN, column FTRAN) ==\n";
  let ab = kernel_ab_record () in
  let btran, ftran = kernel_speedups ab in
  let us k = Record.counter ab k in
  Printf.printf
    "btran: reach %.2f us vs dense-scan %.2f us (%.2fx)\n\
     ftran: reach %.2f us vs dense-scan %.2f us (%.2fx)\n"
    (us "btran_reach_us") (us "btran_dense_us") btran (us "ftran_reach_us")
    (us "ftran_dense_us") ftran;
  let runs = cases @ [ ab ] in
  Record.enforce ~bench:"simplex" gates runs;
  Record.emit ~dir:json_dir
    {
      Record.bench = "simplex";
      clock = "deterministic work ticks (1 tick = 1 work unit)";
      runs;
    };
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
