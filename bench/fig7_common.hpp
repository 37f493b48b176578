// Driver behind fig7_all, the Figure 7 reproduction: for each (rho', M)
// panel it sweeps the time constraint K and prints the paper's series --
// the controlled protocol's analytic loss (eq. 4.7 + the iteration in K),
// corroborating simulation points, and the [Kurose 83] FCFS/LCFS baselines
// (analytic where stable, simulated always).
//
// Every panel's controlled/FCFS/LCFS sweeps are registered on one
// exec::SweepScheduler, so the whole figure runs as one job graph over a
// single shared pool; the CSVs are bit-identical for any thread count.
#pragma once

#include <string>
#include <vector>

#include "obs_support.hpp"

namespace tcw::bench {

struct Fig7Options {
  double offered_load = 0.5;    // rho' (set per panel by the suite)
  double message_length = 25.0; // M (set per panel by the suite)
  double t_end = 150000.0;      // slots simulated per replication
  double warmup = 10000.0;
  long long replications = 2;
  unsigned long long seed = 20261983;
  long long threads = 0;        // pool workers; 0 = all hardware threads
  bool quick = false;           // shrink runs (CI smoke)
  ObsOptions obs;               // --trace-out / --manifest-out / --progress
  std::vector<double> k_over_m =
      {0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0};
};

/// One Figure-7 panel of the paper: (name, rho', M).
struct Fig7PanelSpec {
  std::string name;
  double offered_load = 0.5;
  double message_length = 25.0;
};

/// A multi-panel suite consolidated onto one shared pool (fig7_all).
struct Fig7SuiteOptions {
  Fig7Options base;                   // per-panel rho/M are overridden
  std::vector<Fig7PanelSpec> panels;  // empty = all six fig7 panels
  std::string csv_dir = ".";          // panel CSVs land here as <panel>.csv
};

/// Run the suite as one scheduled job graph, print every panel's table,
/// plot and shape checks, and write the panel CSVs; returns the process
/// exit code.
int run_fig7_suite(const Fig7SuiteOptions& suite);

}  // namespace tcw::bench
