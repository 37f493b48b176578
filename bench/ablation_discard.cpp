// Element (4) ablation: the same protocol with and without sender
// discard. The paper's Section 4.2 attributes most of the controlled
// protocol's gain to element (4) -- the channel then only carries "useful"
// work -- and this bench quantifies that by splitting loss into its
// sender/receiver components and reporting channel utilization.
//
// Runs as two named sweeps ("discard"/"nodiscard") on one
// exec::SweepScheduler job graph; both arms share derived seeds per K
// (common random numbers), and the consolidated engine report/BENCH_JSON
// comes from the shared study runner plumbing.
#include <cstdio>
#include <iostream>
#include <vector>

#include "analysis/splitting.hpp"
#include "exec/sweep_scheduler.hpp"
#include "exec/thread_pool.hpp"
#include "net/experiment.hpp"
#include "study.hpp"
#include "util/csv.hpp"
#include "util/flags.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  double rho = 0.5;
  double m = 25.0;
  double t_end = 200000.0;
  long long threads = 0;
  unsigned long long seed = 7;
  bool quick = false;
  std::string csv = "ablation_discard.csv";
  tcw::Flags flags("ablation_discard",
                   "Element (4) on/off: loss decomposition vs K");
  flags.add("rho", &rho, "offered load rho'");
  flags.add("m", &m, "message length M");
  flags.add("t-end", &t_end, "simulated slots");
  flags.add("threads", &threads,
            "worker threads (0 = all hardware threads)");
  flags.add("seed", &seed, "base RNG seed");
  flags.add("quick", &quick, "shrink run length for smoke testing");
  flags.add("csv", &csv, "CSV output path");
  if (!flags.parse(argc, argv)) return 1;
  if (quick) t_end = 40000.0;

  std::printf("== element (4) ablation: sender discard on/off "
              "(rho'=%.2f, M=%.0f) ==\n\n", rho, m);

  const std::vector<double> k_over_ms{1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0};
  std::vector<double> grid;
  grid.reserve(k_over_ms.size());
  for (const double r : k_over_ms) grid.push_back(r * m);

  tcw::net::SweepConfig sweep;
  sweep.offered_load = rho;
  sweep.message_length = m;
  sweep.t_end = t_end;
  sweep.warmup = t_end / 15.0;
  sweep.replications = 1;
  sweep.base_seed = seed;

  const double width =
      tcw::analysis::optimal_window_load() / sweep.lambda();
  tcw::exec::ThreadPool pool(tcw::exec::resolve_threads(
      static_cast<int>(threads)));
  tcw::exec::SweepScheduler scheduler(pool);
  // Both arms derive job seeds from the same (base_seed, ki, rep), so the
  // comparison keeps the historical common-random-numbers design.
  const auto with_discard = tcw::net::run_sweep(
      {.config = sweep, .constraints = grid,
       .make_policy =
           [width](double k) {
             return tcw::core::ControlPolicy::optimal(k, width);
           }},
      {.scheduler = &scheduler, .name = "discard", .cache = {}});
  const auto without_discard = tcw::net::run_sweep(
      {.config = sweep, .constraints = grid,
       .make_policy =
           [width](double k) {
             return tcw::core::ControlPolicy::fcfs_baseline(k, width);
           }},
      {.scheduler = &scheduler, .name = "nodiscard", .cache = {}});
  tcw::bench::run_scheduler_with_report(scheduler, "ablation_discard");

  const auto with_points = with_discard.points();
  const auto without_points = without_discard.points();

  tcw::Table table({"K", "loss_with", "sender_frac_with", "util_with",
                    "loss_without", "receiver_frac_without",
                    "util_without"});
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const tcw::net::SweepPoint& with = with_points[i];
    const tcw::net::SweepPoint& without = without_points[i];
    table.add_row(
        {tcw::format_fixed(grid[i], 0), tcw::format_fixed(with.p_loss, 5),
         tcw::format_fixed(with.sender_loss_frac, 5),
         tcw::format_fixed(with.utilization, 4),
         tcw::format_fixed(without.p_loss, 5),
         tcw::format_fixed(without.receiver_loss_frac, 5),
         tcw::format_fixed(without.utilization, 4)});
  }
  table.write_pretty(std::cout);
  std::printf("\nWith element (4) every transmitted message is useful work;"
              "\nwithout it the channel wastes transmissions on messages "
              "already dead at the receiver.\n");
  if (!table.save_csv(csv)) return 1;
  std::printf("csv: %s\n", csv.c_str());
  return 0;
}
