let () =
  Alcotest.run "lrp"
    [ ("engine", Test_engine.suite);
      ("sched", Test_sched.suite);
      ("sim", Test_sim.suite);
      ("golden", Test_golden.suite);
      ("net", Test_net.suite);
      ("proto", Test_proto.suite);
      ("tcp-unit", Test_tcp_unit.suite);
      ("udp-e2e", Test_udp_e2e.suite);
      ("tcp-e2e", Test_tcp_e2e.suite);
      ("core", Test_core.suite);
      ("kernel", Test_kernel.suite);
      ("multicast", Test_multicast.suite);
      ("endpoint", Test_endpoint.suite);
      ("gateway", Test_gateway.suite);
      ("stats", Test_stats.suite);
      ("trace", Test_trace.suite);
      ("workload", Test_workload.suite);
      ("properties", Test_properties.suite);
      ("parallel", Test_parallel.suite);
      ("cluster", Test_cluster.suite);
      ("experiments", Test_experiments.suite);
      ("check", Test_check.suite);
      ("recorder", Test_recorder.suite);
      ("fuzz", Test_fuzz.suite);
      ("modern", Test_modern.suite);
      ("lint", Test_lint.suite);
      ("allocheck", Test_allocheck.suite) ]
