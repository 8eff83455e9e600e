(* Test entry point: aggregates all module suites. *)

let () =
  Alcotest.run "tvnep"
    (Test_lina.suite @ Test_lp.suite @ Test_mip.suite @ Test_graphs.suite
   @ Test_workload.suite @ Test_tvnep_types.suite @ Test_depgraph.suite
   @ Test_models.suite @ Test_greedy.suite @ Test_scenario.suite
   @ Test_extensions.suite @ Test_runtime.suite
   @ Test_service.suite @ Test_span.suite
   @ Test_colgen.suite @ Test_rounding.suite @ Test_golden.suite
   @ Test_lp_kernel.suite @ Test_bench_record.suite)
