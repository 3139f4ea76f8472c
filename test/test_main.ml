let () =
  Alcotest.run "specpre"
    [ ("frontend", Test_frontend.suite);
      ("cfg", Test_cfg.suite);
      ("interp", Test_interp.suite);
      ("alias", Test_alias.suite);
      ("ssa", Test_ssa.suite);
      ("ssapre", Test_ssapre.suite);
      ("strength", Test_strength.suite);
      ("refine", Test_refine.suite);
      ("units", Test_units.suite);
      ("dense", Test_dense.suite);
      ("cleanup", Test_cleanup.suite);
      ("store_promo", Test_store_promo.suite);
      ("paper", Test_paper_examples.suite);
      ("fuzz", Test_fuzz.suite);
      ("machine", Test_machine.suite);
      ("schedule", Test_schedule.suite);
      ("passes", Test_passes.suite);
      ("parallel", Test_parallel_compile.suite);
      ("workloads", Test_workloads.suite);
      ("engines", Test_engines.suite);
      ("profile_vm", Test_profile_vm.suite);
      ("stress", Test_stress.suite);
      ("safety", Test_safety.suite);
      ("fdo", Test_fdo.suite);
      ("backends", Test_backends.suite);
      ("service", Test_service.suite);
      ("digests", Test_digests.suite) ]
