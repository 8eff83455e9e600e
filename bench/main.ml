(* Benchmark entry point: regenerates every figure of the paper's
   evaluation (Section VI) plus the ablations of DESIGN.md and a set of
   Bechamel microbenchmarks.

     dune exec bench/main.exe                    # every section
     dune exec bench/main.exe -- --quick         # fast smoke pass
     dune exec bench/main.exe -- --only figures --figures 3,4
                                                 # just those figures
     dune exec bench/main.exe -- --only bnb      # one gate bench, writing
                                                 # ./BENCH_bnb.json
     dune exec bench/main.exe -- --scale paper   # the paper's full size
                                                 # (hours of compute)
   See --help for every knob. *)

open Cmdliner

let figures_arg =
  Arg.(
    value
    & opt (list string) []
    & info [ "figures" ] ~docv:"IDS"
        ~doc:"Comma-separated figure ids to reproduce (3,4,5,6,7,8,9); \
              empty = all.")

let scenarios_arg =
  Arg.(
    value & opt int 3
    & info [ "scenarios" ] ~docv:"N"
        ~doc:"Independent workloads per data point (paper: 24).")

let time_limit_arg =
  Arg.(
    value & opt float 15.0
    & info [ "time-limit" ] ~docv:"SECONDS"
        ~doc:"Per-solve time limit (paper: 3600).")

let requests_arg =
  Arg.(
    value & opt int 5
    & info [ "requests" ] ~docv:"K" ~doc:"Requests per workload (paper: 20).")

let flex_max_arg =
  Arg.(
    value & opt float 3.0
    & info [ "flex-max" ] ~docv:"HOURS"
        ~doc:"Largest temporal flexibility in the sweep (paper: 6).")

let flex_step_arg =
  Arg.(
    value & opt float 0.5
    & info [ "flex-step" ] ~docv:"HOURS"
        ~doc:"Flexibility increment (paper: 0.5).")

let scale_arg =
  Arg.(
    value
    & opt (enum [ ("scaled", `Scaled); ("paper", `Paper) ]) `Scaled
    & info [ "scale" ]
        ~doc:"Workload scale: 'scaled' (default, sized for this solver) or \
              'paper' (4x5 grid, 5-node stars, 20 requests).")

let seed_arg =
  Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED" ~doc:"Base RNG seed.")

let no_delta_arg =
  Arg.(
    value & flag
    & info [ "no-delta" ]
        ~doc:"Skip the Δ-Model (it mostly times out, as in the paper).")

let no_sigma_arg =
  Arg.(value & flag & info [ "no-sigma" ] ~doc:"Skip the Σ-Model.")

let no_seeding_arg =
  Arg.(
    value & flag
    & info [ "no-seeding" ]
        ~doc:"Do not seed the exact solves with the lifted greedy solution               (default on: it stands in for the primal heuristics of a               commercial solver and gives every formulation an incumbent,               so gaps are finite as in the paper's Fig. 4).")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:"Worker domains for the scenario sweep (default 1 = \
              sequential; 0 = autodetect the core count).  Tables are \
              byte-identical at any level — solver limits run on a \
              deterministic work clock unless --wall-clock is given.")

let wall_clock_arg =
  Arg.(
    value & flag
    & info [ "wall-clock" ]
        ~doc:"Bill solver time limits and reported runtimes on the wall \
              clock instead of the deterministic work clock.  Output then \
              varies run to run and across --jobs levels.")

let quick_arg =
  Arg.(
    value & flag
    & info [ "quick" ]
        ~doc:"Small smoke configuration: 1 scenario, 3 flexibilities, 5s \
              limits.")

let sections =
  [ "figures"; "ablations"; "micro"; "bnb"; "service"; "colgen"; "profile" ]

let only_arg =
  Arg.(
    value
    & opt (list (enum (List.map (fun s -> (s, s)) sections))) sections
    & info [ "only" ] ~docv:"SECTIONS"
        ~doc:"Comma-separated sections to run: figures, ablations, micro \
              (Bechamel kernels and the simplex bench), bnb (the jobs=1/2/4 \
              branch-and-bound determinism and speedup gate), service (the \
              churn-stream rung-coverage and rounding gates), colgen (path \
              master vs arc LP) and profile (the span-recorder smoke gate); \
              default all.")

let json_dir_arg =
  Arg.(
    value & opt dir "."
    & info [ "json-dir" ] ~docv:"DIR"
        ~doc:"Where the micro, bnb, service and colgen sections write \
              BENCH_<bench>.json (schema tvnep-bench/1).  Each file is \
              checked against the one it replaces (no run may spend more \
              than 10% more work ticks) and validated after writing.")

let flex_sweep ~flex_max ~flex_step =
  let rec go acc f =
    if f > flex_max +. 1e-9 then List.rev acc else go (f :: acc) (f +. flex_step)
  in
  go [] 0.0

let run figures scenarios time_limit requests flex_max flex_step scale seed
    no_delta no_sigma no_seeding jobs wall_clock quick only json_dir =
  let open Bench_harness in
  let params =
    match scale with
    | `Scaled -> { Tvnep.Scenario.scaled with num_requests = requests }
    | `Paper -> Tvnep.Scenario.paper
  in
  let scenarios, time_limit, flexes =
    if quick then (1, 5.0, [ 0.0; 1.0; 2.0 ])
    else (scenarios, time_limit, flex_sweep ~flex_max ~flex_step)
  in
  let cfg =
    {
      Figures.seed = Int64.of_int seed;
      scenarios;
      flexibilities = flexes;
      time_limit;
      params;
      with_delta = not no_delta;
      with_sigma = not no_sigma;
      seed_exact_with_greedy = not no_seeding;
      jobs;
      deterministic = not wall_clock;
    }
  in
  Printf.printf
    "TVNEP evaluation — %d scenario(s), %d request(s) each, %d flexibility \
     steps, %.0fs/solve (%s clock)\n"
    cfg.Figures.scenarios params.Tvnep.Scenario.num_requests
    (List.length flexes) time_limit
    (if wall_clock then "wall" else "work");
  let on section = List.mem section only in
  if on "figures" then Figures.run_and_print cfg figures;
  if on "ablations" then
    Ablations.run_all
      {
        Ablations.seed = cfg.Figures.seed;
        scenarios = cfg.Figures.scenarios;
        flex = 1.5;
        time_limit;
        params;
        jobs;
        deterministic = not wall_clock;
      };
  if on "micro" then Micro.run ~json_dir ();
  if on "bnb" then Bnb.run ~json_dir ();
  if on "service" then Service_bench.run ~json_dir ();
  if on "colgen" then Colgen_bench.run ~json_dir ();
  if on "profile" then Profile_gate.run ();
  0

let cmd =
  let term =
    Term.(
      const run $ figures_arg $ scenarios_arg $ time_limit_arg $ requests_arg
      $ flex_max_arg $ flex_step_arg $ scale_arg $ seed_arg $ no_delta_arg
      $ no_sigma_arg $ no_seeding_arg $ jobs_arg $ wall_clock_arg $ quick_arg
      $ only_arg $ json_dir_arg)
  in
  Cmd.v
    (Cmd.info "tvnep-bench"
       ~doc:"Reproduce the evaluation figures of the TVNEP paper")
    term

let () = exit (Cmd.eval' cmd)
