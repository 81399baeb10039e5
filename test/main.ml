let () =
  Alcotest.run "rtlb"
    (Test_rat.suite @ Test_lp.suite @ Test_dag.suite @ Test_model.suite
   @ Test_overlap.suite @ Test_est_lct.suite @ Test_partition.suite
   @ Test_lower_bound.suite @ Test_cost.suite @ Test_analysis.suite
   @ Test_sched.suite @ Test_baselines.suite @ Test_workload.suite
   @ Test_synth.suite @ Test_rtfmt.suite @ Test_appfile.suite
   @ Test_extensions.suite
   @ Test_flow.suite @ Test_periodic.suite @ Test_json.suite
   @ Test_simulator.suite @ Test_slack.suite @ Test_makespan.suite
   @ Test_mutate.suite @ Test_multiunit.suite @ Test_coverage.suite
   @ Test_par.suite @ Test_validate.suite @ Test_obs.suite
   @ Test_incremental.suite @ Test_chaos.suite @ Test_soa.suite
   @ Test_serve.suite @ Test_resilience.suite @ Test_recurrent.suite
   @ Test_columns.suite @ Test_budgets.suite)
