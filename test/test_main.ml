(* Worker-mode escape hatch for the shard suite: the coordinator spawns
   workers by re-executing [Sys.executable_name worker --id=I --connect
   ADDR], and under the test runner that is this binary. Intercept the
   worker argv before Alcotest sees it. *)
let () = Omn_shard.Worker.serve_if_worker_argv ()

let () =
  Alcotest.run "omnet-diameter"
    [
      ("stats", Test_stats.suite);
      ("parallel", Test_parallel.suite);
      ("temporal", Test_temporal.suite);
      ("transform", Test_transform.suite);
      ("frontier", Test_frontier.suite);
      ("delivery", Test_delivery.suite);
      ("journey", Test_journey.suite);
      ("delay-cdf", Test_delay_cdf.suite);
      ("diameter", Test_diameter.suite);
      ("baseline", Test_baseline.suite);
      ("forwarding", Test_forwarding.suite);
      ("randnet", Test_randnet.suite);
      ("mobility", Test_mobility.suite);
      ("robust", Test_robust.suite);
      ("chaos", Test_chaos.suite);
      ("shard", Test_shard.suite);
      ("misc", Test_misc.suite);
      ("experiments", Test_experiments.suite);
      ("obs", Test_obs.suite);
      ("timeline", Test_timeline.suite);
      ("differential", Test_differential.suite);
      ("stream", Test_stream.suite);
      ("sampling", Test_sampling.suite);
    ]
