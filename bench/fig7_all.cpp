// All six Figure-7 panels as ONE job graph: every (panel, variant,
// K-point, replication) shard runs on a single shared thread pool with
// cross-sweep work stealing. Panel CSVs are bit-identical for any
// --threads value; the consolidated BENCH_JSON reports per-sweep and
// total wall clock, jobs/sec and worker utilization.
//
//   $ ./fig7_all --reps 2 --threads 0 --csv-dir results
#include "fig7_common.hpp"

int main(int argc, char** argv) {
  tcw::bench::Fig7SuiteOptions suite;
  tcw::Flags flags("fig7_all",
                   "Reproduce every Figure-7 panel as one scheduled job "
                   "graph over a shared thread pool");
  flags.add("t-end", &suite.base.t_end, "simulated slots per replication");
  flags.add("warmup", &suite.base.warmup,
            "warmup slots excluded from statistics");
  flags.add("reps", &suite.base.replications,
            "independent replications per point");
  flags.add("seed", &suite.base.seed, "base RNG seed");
  flags.add("threads", &suite.base.threads,
            "shared pool workers (0 = all hardware threads); panel CSVs "
            "are bit-identical for any value");
  flags.add("quick", &suite.base.quick,
            "shrink run length for smoke testing");
  flags.add("csv-dir", &suite.csv_dir,
            "directory for the per-panel CSVs (<panel>.csv)");
  tcw::bench::register_obs_flags(flags, suite.base.obs);
  if (!flags.parse(argc, argv)) return 1;
  return tcw::bench::run_fig7_suite(suite);
}
