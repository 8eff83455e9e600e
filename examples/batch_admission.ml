(* Online-style batch admission with the greedy cΣ_A^G (Section V):
   requests are processed in arrival order, each admitted at the earliest
   feasible time, never revisiting earlier decisions — the regime a
   provider faces when answers must come in milliseconds rather than
   after a full MIP solve.

   The example also round-trips the generated instance through the text
   format (see Tvnep.Instance_io) so it can be archived and re-solved
   offline, and compares the greedy's revenue to the exact optimum.

   Run with:  dune exec examples/batch_admission.exe *)

let () =
  let params = { Tvnep.Scenario.scaled with num_requests = 6 } in
  let rng = Workload.Rng.create 99L in
  let inst = Tvnep.Scenario.generate rng { params with flexibility = 2.0 } in

  (* Archive the instance; a provider would log the day's workload. *)
  let path = Filename.temp_file "datacenter_day" ".tvnep" in
  Tvnep.Instance_io.save path inst;
  Printf.printf "instance archived to %s (%d bytes)\n\n" path
    (let ic = open_in path in
     let n = in_channel_length ic in
     close_in ic;
     n);
  let inst = Tvnep.Instance_io.load path in
  Sys.remove path;

  let greedy =
    Tvnep.Solver.run inst
      (Tvnep.Solver.Options.make ~method_:Tvnep.Solver.Greedy ())
  in
  let sol = Option.get greedy.Tvnep.Solver.solution in
  let stats = greedy.Tvnep.Solver.stats in
  Printf.printf "greedy admission (in arrival order):\n";
  Array.iteri
    (fun i (a : Tvnep.Solution.assignment) ->
      let r = Tvnep.Instance.request inst i in
      if a.Tvnep.Solution.accepted then
        Printf.printf "  %-4s admitted  [%.2f, %.2f]\n" r.Tvnep.Request.name
          a.Tvnep.Solution.t_start a.Tvnep.Solution.t_end
      else Printf.printf "  %-4s rejected\n" r.Tvnep.Request.name)
    sol.Tvnep.Solution.assignments;
  Printf.printf
    "\n%d/%d admitted, revenue %.2f — %d LPs, %d candidate slots, %.0f ms\n"
    (Tvnep.Solution.num_accepted sol)
    (Tvnep.Instance.num_requests inst)
    sol.Tvnep.Solution.objective stats.Runtime.Stats.greedy_lp_solves
    stats.Runtime.Stats.greedy_candidates
    (greedy.Tvnep.Solver.runtime *. 1000.0);
  assert (Tvnep.Validator.is_feasible inst sol);

  (* How much revenue did speed cost?  Compare with the exact cΣ solve,
     seeded with the greedy solution (the combination the paper's
     conclusion suggests). *)
  let exact =
    Tvnep.Solver.run inst
      (Tvnep.Solver.Options.make ~seed_with_greedy:true
         ~mip:{ Mip.Branch_bound.default_params with time_limit = 60.0 } ())
  in
  match exact.Tvnep.Solver.objective with
  | Some opt ->
    Printf.printf
      "exact cΣ optimum: %.2f (%s) — greedy is within %.1f%%\n" opt
      (Tvnep.Solver.status_to_string exact.Tvnep.Solver.status)
      (100.0 *. (opt -. sol.Tvnep.Solution.objective) /. Float.max 1e-9 opt)
  | None -> print_endline "exact solver found no solution in its budget"
