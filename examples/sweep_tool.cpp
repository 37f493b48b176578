// General-purpose sweep driver: the experiment tool a downstream user
// reaches for first. Sweeps the time constraint K for any protocol
// variant and workload from the command line, prints the loss/delay
// series, and writes a CSV. For example (one command line, wrapped):
//
//   $ ./sweep_tool --variant controlled --rho 0.6 --m 25
//         --k-min 25 --k-max 400 --points 8 --csv out.csv
//
// It takes an arbitrary rho'/M/K grid for one variant; the paper's
// Figure 7 is fig7_all and the registered studies are study_tool.
#include <cstdio>
#include <iostream>

#include "analysis/loss_model.hpp"
#include "net/experiment.hpp"
#include "obs_support.hpp"
#include "util/csv.hpp"
#include "util/flags.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  std::string variant_name = "controlled";
  double rho = 0.5;
  double m = 25.0;
  double k_min = 25.0;
  double k_max = 400.0;
  long long points = 8;
  double t_end = 150000.0;
  long long reps = 2;
  unsigned long long seed = 1;
  long long threads = 0;
  std::string csv = "sweep.csv";
  bool with_analytic = true;
  tcw::bench::ObsOptions obs_opts;

  tcw::Flags flags("sweep_tool", "Sweep p(loss) vs K for any variant");
  flags.add("variant", &variant_name,
            "controlled | fcfs | lcfs | random");
  flags.add("rho", &rho, "offered load rho' = lambda*M");
  flags.add("m", &m, "message length M in slots");
  flags.add("k-min", &k_min, "smallest time constraint");
  flags.add("k-max", &k_max, "largest time constraint");
  flags.add("points", &points, "grid points");
  flags.add("t-end", &t_end, "simulated slots per replication");
  flags.add("reps", &reps, "replications per point");
  flags.add("seed", &seed, "base RNG seed");
  flags.add("threads", &threads,
            "sweep worker threads (0 = all hardware threads)");
  flags.add("csv", &csv, "CSV output path");
  flags.add("analytic", &with_analytic,
            "also evaluate the analytic model where available");
  tcw::bench::register_obs_flags(flags, obs_opts);
  if (!flags.parse(argc, argv)) return 1;

  tcw::net::ProtocolVariant variant = tcw::net::ProtocolVariant::Controlled;
  if (variant_name == "controlled") {
    variant = tcw::net::ProtocolVariant::Controlled;
  } else if (variant_name == "fcfs") {
    variant = tcw::net::ProtocolVariant::FcfsNoDiscard;
  } else if (variant_name == "lcfs") {
    variant = tcw::net::ProtocolVariant::LcfsNoDiscard;
  } else if (variant_name == "random") {
    variant = tcw::net::ProtocolVariant::RandomNoDiscard;
  } else {
    std::fprintf(stderr, "unknown variant '%s'\n", variant_name.c_str());
    return 1;
  }

  tcw::net::SweepConfig cfg;
  cfg.offered_load = rho;
  cfg.message_length = m;
  cfg.t_end = t_end;
  cfg.warmup = t_end / 15.0;
  cfg.replications = static_cast<int>(reps);
  cfg.base_seed = seed;
  cfg.threads = static_cast<int>(threads);

  const auto grid = tcw::net::linear_grid(k_min, k_max,
                                          static_cast<std::size_t>(points));

  // Standalone sweeps run on a transient pool inside run_sweep: manifest
  // only, no scheduler timeline.
  tcw::bench::ObsSession obs("sweep_tool", obs_opts);
  tcw::net::SweepTiming timing;
  tcw::net::SweepRequest request;
  request.config = cfg;
  request.constraints = grid;
  request.variant = variant;
  request.timing = &timing;
  const auto pts = tcw::net::run_sweep(request).points();

  tcw::analysis::ProtocolModelConfig model;
  model.offered_load = rho;
  model.message_length = m;

  tcw::Table table({"K", "p_loss", "ci95", "analytic", "mean_wait",
                    "sched", "utilization"});
  for (std::size_t i = 0; i < grid.size(); ++i) {
    double analytic = -1.0;
    if (with_analytic) {
      switch (variant) {
        case tcw::net::ProtocolVariant::Controlled:
          analytic =
              tcw::analysis::controlled_loss_at(model, grid[i], 0.2).p_loss;
          break;
        case tcw::net::ProtocolVariant::FcfsNoDiscard:
          analytic = tcw::analysis::fcfs_nodiscard_loss(model, grid[i]);
          break;
        case tcw::net::ProtocolVariant::LcfsNoDiscard:
          analytic = tcw::analysis::lcfs_nodiscard_loss(model, grid[i]);
          break;
        case tcw::net::ProtocolVariant::RandomNoDiscard:
          break;  // no analytic model for random order
      }
    }
    table.add_row({tcw::format_fixed(grid[i], 1),
                   tcw::format_fixed(pts[i].p_loss, 5),
                   tcw::format_fixed(pts[i].ci95, 5),
                   analytic < 0.0 ? "-" : tcw::format_fixed(analytic, 5),
                   tcw::format_fixed(pts[i].mean_wait, 2),
                   tcw::format_fixed(pts[i].mean_scheduling, 3),
                   tcw::format_fixed(pts[i].utilization, 4)});
  }
  std::printf("variant=%s rho'=%.2f M=%.0f (window width %.2f slots)\n\n",
              variant_name.c_str(), rho, m, cfg.heuristic_window_width());
  table.write_pretty(std::cout);
  if (!table.save_csv(csv)) {
    std::fprintf(stderr, "failed to write %s\n", csv.c_str());
    return 1;
  }
  std::printf("\nsweep engine: threads=%u jobs=%zu wall=%.3fs "
              "jobs_per_sec=%.2f\n",
              timing.threads, timing.jobs, timing.wall_seconds,
              timing.jobs_per_second);
  std::printf("csv: %s\n", csv.c_str());
  return obs.finish(nullptr);
}
