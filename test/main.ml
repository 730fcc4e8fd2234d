(* Suite order matters for wall time: [trace]'s jobs-4 sweep, [parallel]
   and [cluster] start worker domains that stay parked in the pool for
   the rest of the process, and every minor collection then stops them
   too.  So those three run last. *)
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
      ("workload", Test_workload.suite);
      ("properties", Test_properties.suite);
      ("experiments", Test_experiments.suite);
      ("check", Test_check.suite);
      ("recorder", Test_recorder.suite);
      ("fuzz", Test_fuzz.suite);
      ("modern", Test_modern.suite);
      ("lint", Test_lint.suite);
      ("allocheck", Test_allocheck.suite);
      ("trace", Test_trace.suite);
      ("parallel", Test_parallel.suite);
      ("cluster", Test_cluster.suite) ]
