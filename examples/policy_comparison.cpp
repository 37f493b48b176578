// Side-by-side comparison of the paper's protocol variants over a sweep of
// the time constraint K: the controlled protocol (Theorem-1 elements +
// sender discard) against the [Kurose 83] FCFS / LCFS / RANDOM baselines,
// with the analytic curves where available.
#include <cstdio>
#include <iostream>

#include "analysis/loss_model.hpp"
#include "net/experiment.hpp"
#include "util/csv.hpp"
#include "util/flags.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  double rho = 0.5;
  double m = 25.0;
  double t_end = 150000.0;
  long long reps = 2;
  tcw::Flags flags("policy_comparison",
                   "Loss vs K for all four protocol variants");
  flags.add("rho", &rho, "offered load rho'");
  flags.add("m", &m, "message length M in slots");
  flags.add("t-end", &t_end, "simulated slots per replication");
  flags.add("reps", &reps, "replications");
  if (!flags.parse(argc, argv)) return 1;

  tcw::net::SweepConfig cfg;
  cfg.offered_load = rho;
  cfg.message_length = m;
  cfg.t_end = t_end;
  cfg.warmup = t_end / 15.0;
  cfg.replications = static_cast<int>(reps);

  std::vector<double> grid;
  for (const double r : {1.0, 2.0, 3.0, 4.0, 6.0, 8.0}) grid.push_back(r * m);

  tcw::analysis::ProtocolModelConfig model;
  model.offered_load = rho;
  model.message_length = m;
  const auto analytic = tcw::analysis::controlled_loss_curve(model, grid);

  std::printf("policy comparison at rho' = %.2f, M = %.0f "
              "(loss fractions; lower is better)\n\n", rho, m);
  tcw::Table table({"K", "controlled(sim)", "controlled(eq4.7)",
                    "fcfs", "lcfs", "random"});
  const auto run = [&](tcw::net::ProtocolVariant v) {
    return tcw::net::run_sweep({.config = cfg, .constraints = grid,
                                .variant = v, .make_policy = {}})
        .points();
  };
  const auto ctrl = run(tcw::net::ProtocolVariant::Controlled);
  const auto fcfs = run(tcw::net::ProtocolVariant::FcfsNoDiscard);
  const auto lcfs = run(tcw::net::ProtocolVariant::LcfsNoDiscard);
  const auto rnd = run(tcw::net::ProtocolVariant::RandomNoDiscard);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    table.add_row({tcw::format_fixed(grid[i], 0),
                   tcw::format_fixed(ctrl[i].p_loss, 5),
                   tcw::format_fixed(analytic[i].p_loss, 5),
                   tcw::format_fixed(fcfs[i].p_loss, 5),
                   tcw::format_fixed(lcfs[i].p_loss, 5),
                   tcw::format_fixed(rnd[i].p_loss, 5)});
  }
  table.write_pretty(std::cout);
  std::printf("\nLCFS and RANDOM decay far more slowly than FCFS: late\n"
              "service orders leave a heavy waiting-time tail, which the\n"
              "controlled protocol converts into cheap sender discards.\n");
  return 0;
}
