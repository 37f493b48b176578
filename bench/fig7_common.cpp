#include "fig7_common.hpp"

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <system_error>

#include "analysis/loss_model.hpp"
#include "analysis/splitting.hpp"
#include "exec/sweep_scheduler.hpp"
#include "exec/thread_pool.hpp"
#include "study.hpp"
#include "util/ascii_plot.hpp"
#include "util/csv.hpp"
#include "util/strings.hpp"

namespace tcw::bench {

namespace {

Fig7Options with_quick_applied(const Fig7Options& opts) {
  Fig7Options o = opts;
  if (o.quick) {
    o.t_end = 30000.0;
    o.warmup = 2000.0;
    o.replications = 1;
  }
  return o;
}

const std::vector<Fig7PanelSpec>& fig7_panels() {
  static const std::vector<Fig7PanelSpec> panels = {
      {"fig7_rho25_m25", 0.25, 25.0},  {"fig7_rho25_m100", 0.25, 100.0},
      {"fig7_rho50_m25", 0.50, 25.0},  {"fig7_rho50_m100", 0.50, 100.0},
      {"fig7_rho75_m25", 0.75, 25.0},  {"fig7_rho75_m100", 0.75, 100.0},
  };
  return panels;
}

std::vector<double> panel_grid(const Fig7Options& o) {
  std::vector<double> grid;
  grid.reserve(o.k_over_m.size());
  for (const double r : o.k_over_m) grid.push_back(r * o.message_length);
  return grid;
}

net::SweepConfig sweep_config_from(const Fig7Options& o) {
  net::SweepConfig sweep;
  sweep.offered_load = o.offered_load;
  sweep.message_length = o.message_length;
  sweep.t_end = o.t_end;
  sweep.warmup = o.warmup;
  sweep.replications = static_cast<int>(o.replications);
  sweep.base_seed = o.seed;
  sweep.threads = static_cast<int>(o.threads);
  return sweep;
}

// One panel's three variant sweeps on the suite's scheduler; their
// points are valid once the scheduler has run.
struct PanelRun {
  std::string name;
  Fig7Options opts;  // quick-resolved, with this panel's rho' and M
  std::vector<double> grid;
  net::ScheduledSweep controlled;
  net::ScheduledSweep fcfs;
  net::ScheduledSweep lcfs;
};

// Register one panel's controlled/FCFS/LCFS sweeps (named
// "<panel>/<variant>") on `scheduler`. Each sweep gets a kernel capture
// (under --flight-out / --series-out) and feeds the deadline-loss
// attribution report.
PanelRun schedule_panel(exec::SweepScheduler& scheduler,
                        const std::string& panel_name, const Fig7Options& o,
                        ObsSession& obs) {
  std::vector<double> grid = panel_grid(o);
  const auto schedule_variant = [&](const std::string& variant,
                                    net::ProtocolVariant kind) {
    net::SweepRequest request;
    request.config = sweep_config_from(o);
    request.constraints = grid;
    request.variant = kind;
    net::SweepBindings bindings;
    bindings.scheduler = &scheduler;
    bindings.name = panel_name + "/" + variant;
    if (obs.wants_capture()) {
      request.config.capture_request.capture =
          obs.make_capture(bindings.name, request.config.base_seed);
    }
    net::ScheduledSweep handle = net::run_sweep(request, bindings);
    obs.track_sweep(bindings.name, handle);
    return handle;
  };
  auto controlled =
      schedule_variant("controlled", net::ProtocolVariant::Controlled);
  auto fcfs = schedule_variant("fcfs", net::ProtocolVariant::FcfsNoDiscard);
  auto lcfs = schedule_variant("lcfs", net::ProtocolVariant::LcfsNoDiscard);
  return PanelRun{panel_name, o, std::move(grid), std::move(controlled),
                  std::move(fcfs), std::move(lcfs)};
}

// Print one panel's table, plot and shape checks, and write its CSV.
// Returns the process exit code contribution.
int render_panel(const PanelRun& run, const std::string& csv_path) {
  const Fig7Options& o = run.opts;
  std::printf("== %s: controlled window protocol, rho'=%.2f M=%.0f ==\n",
              run.name.c_str(), o.offered_load, o.message_length);
  std::printf("   (loss vs. time constraint K; K in slots of the channel\n"
              "    propagation delay tau; sim uses true waiting times)\n\n");

  analysis::ProtocolModelConfig model;
  model.offered_load = o.offered_load;
  model.message_length = o.message_length;

  const std::vector<double>& grid = run.grid;
  const std::vector<net::SweepPoint> ctrl = run.controlled.points();
  const std::vector<net::SweepPoint> fcfs = run.fcfs.points();
  const std::vector<net::SweepPoint> lcfs = run.lcfs.points();
  const auto analytic = analysis::controlled_loss_curve(model, grid);

  Table table({"K", "K_over_M", "ctrl_analytic", "ctrl_sim", "ctrl_ci95",
               "fcfs_analytic", "fcfs_sim", "lcfs_analytic", "lcfs_sim", "ctrl_sched_mean",
               "ctrl_utilization"});
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const double fcfs_analytic =
        analysis::fcfs_nodiscard_loss(model, grid[i]);
    const double lcfs_analytic =
        analysis::lcfs_nodiscard_loss(model, grid[i]);
    table.add_row({format_fixed(grid[i], 1),
                   format_fixed(grid[i] / o.message_length, 2),
                   format_fixed(analytic[i].p_loss, 5),
                   format_fixed(ctrl[i].p_loss, 5),
                   format_fixed(ctrl[i].ci95, 5),
                   format_fixed(fcfs_analytic, 5),
                   format_fixed(fcfs[i].p_loss, 5),
                   format_fixed(lcfs_analytic, 5),
                   format_fixed(lcfs[i].p_loss, 5),
                   format_fixed(ctrl[i].mean_scheduling, 3),
                   format_fixed(ctrl[i].utilization, 4)});
  }
  table.write_pretty(std::cout);

  // Text-mode echo of the paper's figure: loss vs K, log y-axis.
  std::vector<PlotSeries> series(4);
  series[0] = {"controlled (eq 4.7)", '*', {}};
  series[1] = {"controlled (sim)", 'o', {}};
  series[2] = {"fcfs (sim)", 'f', {}};
  series[3] = {"lcfs (sim)", 'l', {}};
  for (std::size_t i = 0; i < grid.size(); ++i) {
    series[0].y.push_back(analytic[i].p_loss);
    series[1].y.push_back(ctrl[i].p_loss);
    series[2].y.push_back(fcfs[i].p_loss);
    series[3].y.push_back(lcfs[i].p_loss);
  }
  PlotOptions plot_opts;
  plot_opts.log_y = true;
  std::printf("\n%s", render_plot(grid, series, plot_opts).c_str());

  // Shape checks the paper's Figure 7 supports: the controlled protocol
  // dominates both baselines, and loss decays with K.
  int ctrl_beats_fcfs = 0;
  int ctrl_beats_lcfs = 0;
  double worst_gap = 0.0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (ctrl[i].p_loss <= fcfs[i].p_loss + 1e-9) {
      ++ctrl_beats_fcfs;
    }
    if (ctrl[i].p_loss <= lcfs[i].p_loss + 1e-9) {
      ++ctrl_beats_lcfs;
    }
    worst_gap = std::max(
        worst_gap, std::abs(ctrl[i].p_loss - analytic[i].p_loss));
  }
  std::printf("\nshape: controlled <= FCFS at %d/%zu points, "
              "controlled <= LCFS at %d/%zu points\n",
              ctrl_beats_fcfs, grid.size(), ctrl_beats_lcfs, grid.size());
  std::printf("analytic vs sim worst abs gap: %.4f (paper reports 'close "
              "agreement'; see EXPERIMENTS.md)\n",
              worst_gap);
  std::printf("element-2 heuristic: nu* = %.4f -> window width %.2f slots\n",
              analysis::optimal_window_load(),
              sweep_config_from(o).heuristic_window_width());

  if (table.save_csv(csv_path)) {
    std::printf("csv: %s\n\n", csv_path.c_str());
  } else {
    std::fprintf(stderr, "failed to write %s\n", csv_path.c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int run_fig7_suite(const Fig7SuiteOptions& suite) {
  const std::vector<Fig7PanelSpec>& panels =
      suite.panels.empty() ? fig7_panels() : suite.panels;
  const Fig7Options base = with_quick_applied(suite.base);

  std::error_code dir_ec;
  std::filesystem::create_directories(suite.csv_dir, dir_ec);
  if (dir_ec) {
    std::fprintf(stderr, "cannot create csv dir %s: %s\n",
                 suite.csv_dir.c_str(), dir_ec.message().c_str());
    return 1;
  }

  ObsSession obs("fig7_all", base.obs);
  exec::ThreadPool pool(
      exec::resolve_threads(static_cast<int>(base.threads)));
  exec::SweepScheduler scheduler(pool);
  obs.attach(scheduler);

  std::printf("== fig7_all: %zu panels as one job graph on %zu worker(s) "
              "==\n\n",
              panels.size(), pool.size());

  std::vector<PanelRun> runs;
  runs.reserve(panels.size());
  for (const Fig7PanelSpec& p : panels) {
    Fig7Options o = base;
    o.offered_load = p.offered_load;
    o.message_length = p.message_length;
    runs.push_back(schedule_panel(scheduler, p.name, o, obs));
  }

  const exec::SchedulerReport report =
      run_scheduler_with_report(scheduler, "fig7_all");

  int rc = 0;
  for (const PanelRun& run : runs) {
    rc |= render_panel(run, suite.csv_dir + "/" + run.name + ".csv");
  }
  rc |= obs.finish(&report);
  return rc;
}

}  // namespace tcw::bench
