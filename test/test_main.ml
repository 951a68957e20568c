let () =
  Alcotest.run "tfiris"
    [
      ("ordinal", Test_ordinal.suite);
      ("sprop", Test_cut.suite);
      ("resource", Test_resource.suite);
      ("logic", Test_logic.suite);
      ("tauto", Test_tauto.suite);
      ("shl", Test_shl.suite);
      ("machine", Test_machine.suite);
      ("prerun", Test_prerun.suite);
      ("safety", Test_safety.suite);
      ("types", Test_types.suite);
      ("concurrent", Test_conc.suite);
      ("analysis", Test_analysis.suite);
      ("symheap", Test_symheap.suite);
      ("transition", Test_transition.suite);
      ("refinement", Test_refinement.suite);
      ("termination", Test_termination.suite);
      ("promises", Test_promises.suite);
      ("obs", Test_obs.suite);
      ("telemetry", Test_telemetry.suite);
      ("ledger", Test_ledger.suite);
      ("certcache", Test_certcache.suite);
      ("profile", Test_profile.suite);
      ("forensics", Test_forensics.suite);
      ("robust", Test_robust.suite);
    ]
