// The registered studies: the ablation/extension benches migrated onto
// the declarative registry + exec::SweepScheduler, plus the policy_grid
// MAC showdown. Each migrated study keeps the exact parameter defaults,
// quick-mode shrinks, table schemas, and CSV columns of the standalone
// binary it replaced; every study runs as `study_tool <name>`.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/splitting.hpp"
#include "core/policy.hpp"
#include "exec/sweep_scheduler.hpp"
#include "net/aggregate_sim.hpp"
#include "net/channel_plan.hpp"
#include "net/fluid_sim.hpp"
#include "net/network.hpp"
#include "net/priority.hpp"
#include "net/protocol_engine.hpp"
#include "obs/channel_counters.hpp"
#include "obs/registry.hpp"
#include "smdp/window_model.hpp"
#include "study.hpp"
#include "util/csv.hpp"
#include "util/strings.hpp"

namespace tcw::bench {

namespace {

// %.17g round-trips doubles exactly: two runs fingerprint identically iff
// their result-affecting parameters are bit-identical.
std::string fp_value(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// Theorem 1 ablation: holding elements (2) and (4) fixed, sweep all nine
// combinations of element (1) (initial-window position) and element (3)
// (split-half selection) and measure the simulated loss. The paper proves
// OldestFirst/OlderHalf -- global FCFS among surviving messages -- is
// optimal; this study regenerates that claim empirically.
class Theorem1Study final : public Study {
 public:
  void register_flags(Flags& flags) override {
    flags.add("t-end", &t_end_, "simulated slots per replication");
    flags.add("m", &m_, "message length M");
    flags.add("reps", &reps_, "replications per point");
  }

  void schedule(StudyContext& ctx) override {
    using core::ControlPolicy;
    using core::PositionRule;
    using core::SplitRule;
    double t_end = t_end_;
    long long reps = reps_;
    if (ctx.quick()) {
      t_end = 30000.0;
      reps = 1;
    }
    std::printf("== Theorem 1 ablation: loss under every (position, split) "
                "combination ==\n(element 2 fixed at the heuristic width, "
                "element 4 active, K = 2M and 4M)\n\n");
    for (const double rho : {0.25, 0.50, 0.75}) {
      net::SweepConfig cfg;
      cfg.offered_load = rho;
      cfg.message_length = m_;
      cfg.t_end = t_end;
      cfg.warmup = t_end / 15.0;
      cfg.replications = static_cast<int>(reps);
      const double width = cfg.heuristic_window_width();
      for (const double k : {2.0 * m_, 4.0 * m_}) {
        for (const auto pos :
             {PositionRule::OldestFirst, PositionRule::NewestFirst,
              PositionRule::RandomGap}) {
          for (const auto split :
               {SplitRule::OlderHalf, SplitRule::YoungerHalf,
                SplitRule::RandomHalf}) {
            const std::string name = "rho" + format_fixed(rho, 2) + "/K" +
                                     format_fixed(k, 0) + "/" +
                                     to_string(pos) + "/" + to_string(split);
            arms_.push_back(
                {rho, k, pos, split,
                 ctx.sweep(
                     name, cfg,
                     [pos, split, width](double deadline) {
                       ControlPolicy p =
                           ControlPolicy::optimal(deadline, width);
                       p.position = pos;
                       p.split = split;
                       return p;
                     },
                     {k})});
          }
        }
      }
    }
  }

  int render(StudyContext& ctx) override {
    Table table({"rho", "K", "position", "split", "p_loss", "ci95"});
    for (std::size_t i = 0; i < arms_.size(); i += 9) {
      double best = 1.0;
      std::string best_combo;
      for (std::size_t j = i; j < i + 9; ++j) {
        const Arm& arm = arms_[j];
        const auto pts = arm.sweep.points();
        table.add_row({format_fixed(arm.rho, 2), format_fixed(arm.k, 0),
                       to_string(arm.pos), to_string(arm.split),
                       format_fixed(pts[0].p_loss, 5),
                       format_fixed(pts[0].ci95, 5)});
        if (pts[0].p_loss < best) {
          best = pts[0].p_loss;
          best_combo = to_string(arm.pos) + "/" + to_string(arm.split);
        }
      }
      std::printf("rho'=%.2f K=%.0f: best combination = %s (loss %.4f)\n",
                  arms_[i].rho, arms_[i].k, best_combo.c_str(), best);
    }
    std::printf("\n");
    table.write_pretty(std::cout);
    if (!table.save_csv(ctx.csv_path())) {
      std::fprintf(stderr, "failed to write %s\n", ctx.csv_path().c_str());
      return 1;
    }
    std::printf("csv: %s\n", ctx.csv_path().c_str());
    return 0;
  }

 private:
  double t_end_ = 150000.0;
  double m_ = 25.0;
  long long reps_ = 2;
  struct Arm {
    double rho;
    double k;
    core::PositionRule pos;
    core::SplitRule split;
    net::ScheduledSweep sweep;
  };
  std::vector<Arm> arms_;
};

// Element (2) study: sweeps fixed window widths around the heuristic
// nu*/lambda and reports simulated loss, mean scheduling slots, and the
// renewal model's predicted slots-per-message, showing the heuristic
// sits at (or near) the empirical optimum.
class WindowSizeStudy final : public Study {
 public:
  void register_flags(Flags& flags) override {
    flags.add("rho", &rho_, "offered load rho'");
    flags.add("m", &m_, "message length M");
    flags.add("k-over-m", &k_over_m_,
              "time constraint K as a multiple of M");
    flags.add("t-end", &t_end_, "simulated slots");
    flags.add("reps", &reps_, "replications");
  }

  void schedule(StudyContext& ctx) override {
    double t_end = t_end_;
    long long reps = reps_;
    if (ctx.quick()) {
      t_end = 40000.0;
      reps = 1;
    }
    cfg_ = net::SweepConfig{};
    cfg_.offered_load = rho_;
    cfg_.message_length = m_;
    cfg_.t_end = t_end;
    cfg_.warmup = t_end / 15.0;
    cfg_.replications = static_cast<int>(reps);
    k_ = k_over_m_ * m_;
    heuristic_ = cfg_.heuristic_window_width();

    std::printf("== element (2) study: window width sweep "
                "(rho'=%.2f, M=%.0f, K=%.0f) ==\n", rho_, m_, k_);
    std::printf("heuristic width nu*/lambda = %.2f slots (nu* = %.4f)\n\n",
                heuristic_, analysis::optimal_window_load());

    for (const double scale :
         {0.125, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0, 8.0}) {
      const double width = scale * heuristic_;
      arms_.push_back(
          {scale, width,
           ctx.sweep(
               "width" + format_fixed(scale, 3), cfg_,
               [width](double deadline) {
                 return core::ControlPolicy::optimal(deadline, width);
               },
               {k_})});
    }
  }

  int render(StudyContext& ctx) override {
    Table table({"width", "width_over_heuristic", "nu", "p_loss", "ci95",
                 "sched_sim", "slots_per_msg_model"});
    double best_loss = 1.0;
    double best_width = 0.0;
    for (const Arm& arm : arms_) {
      const auto pts = arm.sweep.points();
      const double nu = cfg_.lambda() * arm.width;
      table.add_row({format_fixed(arm.width, 2), format_fixed(arm.scale, 3),
                     format_fixed(nu, 3), format_fixed(pts[0].p_loss, 5),
                     format_fixed(pts[0].ci95, 5),
                     format_fixed(pts[0].mean_scheduling, 3),
                     format_fixed(analysis::slots_per_message(nu), 3)});
      if (pts[0].p_loss < best_loss) {
        best_loss = pts[0].p_loss;
        best_width = arm.width;
      }
    }
    table.write_pretty(std::cout);
    std::printf("\nempirical best width %.2f slots (%.2fx the heuristic), "
                "loss %.4f\n",
                best_width, best_width / heuristic_, best_loss);
    if (!table.save_csv(ctx.csv_path())) return 1;
    std::printf("csv: %s\n", ctx.csv_path().c_str());
    return 0;
  }

 private:
  double rho_ = 0.5;
  double m_ = 25.0;
  double k_over_m_ = 3.0;
  double t_end_ = 200000.0;
  long long reps_ = 2;
  net::SweepConfig cfg_;
  double k_ = 0.0;
  double heuristic_ = 0.0;
  struct Arm {
    double scale;
    double width;
    net::ScheduledSweep sweep;
  };
  std::vector<Arm> arms_;
};

// Extension study (paper Section 5): "not necessarily splitting a window
// in half". Sweeps the cut fraction alpha, comparing the renewal model's
// slots-per-message against simulated loss, and reports the jointly
// optimal (nu*, alpha*) from analysis::optimal_window_load_alpha().
class SplitFractionStudy final : public Study {
 public:
  void register_flags(Flags& flags) override {
    flags.add("rho", &rho_, "offered load rho'");
    flags.add("m", &m_, "message length M");
    flags.add("k-over-m", &k_over_m_,
              "time constraint as a multiple of M");
    flags.add("t-end", &t_end_, "simulated slots");
    flags.add("reps", &reps_, "replications");
  }

  void schedule(StudyContext& ctx) override {
    double t_end = t_end_;
    long long reps = reps_;
    if (ctx.quick()) {
      t_end = 50000.0;
      reps = 1;
    }
    net::SweepConfig cfg;
    cfg.offered_load = rho_;
    cfg.message_length = m_;
    cfg.t_end = t_end;
    cfg.warmup = t_end / 15.0;
    cfg.replications = static_cast<int>(reps);
    const double k = k_over_m_ * m_;

    const auto joint = analysis::optimal_window_load_alpha();
    std::printf("== split-fraction sweep (rho'=%.2f, M=%.0f, K=%.0f) ==\n",
                rho_, m_, k);
    std::printf("joint renewal optimum: alpha* = %.3f, nu* = %.3f "
                "(%.4f slots/msg; binary alpha=0.5 costs %.4f)\n\n",
                joint.alpha, joint.nu, joint.slots_per_message,
                analysis::slots_per_message(
                    analysis::optimal_window_load()));

    for (const double alpha : {0.25, 0.35, 0.45, 0.5, 0.55, 0.65, 0.75}) {
      // Width chosen per-alpha by the same heuristic: minimize overhead.
      double best_nu = joint.nu;
      double best_cost = 1e9;
      for (double nu = 0.4; nu <= 3.0; nu += 0.02) {
        const double cost = analysis::slots_per_message_alpha(nu, alpha);
        if (cost < best_cost) {
          best_cost = cost;
          best_nu = nu;
        }
      }
      const double width = best_nu / cfg.lambda();
      arms_.push_back(
          {alpha, best_nu, best_cost,
           ctx.sweep(
               "alpha" + format_fixed(alpha, 2), cfg,
               [width, alpha](double deadline) {
                 auto p = core::ControlPolicy::optimal(deadline, width);
                 p.split_fraction = alpha;
                 return p;
               },
               {k})});
    }
  }

  int render(StudyContext& ctx) override {
    Table table({"alpha", "nu_star_alpha", "slots_per_msg_model",
                 "p_loss_sim", "ci95"});
    for (const Arm& arm : arms_) {
      const auto pts = arm.sweep.points();
      table.add_row({format_fixed(arm.alpha, 2), format_fixed(arm.nu, 3),
                     format_fixed(arm.cost, 4),
                     format_fixed(pts[0].p_loss, 5),
                     format_fixed(pts[0].ci95, 5)});
    }
    table.write_pretty(std::cout);
    std::printf("\nthe renewal overhead curve is flat near alpha = 0.5: the "
                "paper's binary\nsplit sits at (or within noise of) the "
                "optimum, answering Section 5's question.\n");
    if (!table.save_csv(ctx.csv_path())) return 1;
    std::printf("csv: %s\n", ctx.csv_path().c_str());
    return 0;
  }

 private:
  double rho_ = 0.6;
  double m_ = 25.0;
  double k_over_m_ = 2.0;
  double t_end_ = 200000.0;
  long long reps_ = 2;
  struct Arm {
    double alpha;
    double nu;
    double cost;
    net::ScheduledSweep sweep;
  };
  std::vector<Arm> arms_;
};

// Deploys the Section-3 decision model's output in the live protocol: the
// SMDP's optimal width table w*(backlog) is loaded into the controller
// and simulated head-to-head against the static nu*/lambda heuristic.
class AdaptiveWidthStudy final : public Study {
 public:
  void register_flags(Flags& flags) override {
    flags.add("lambda", &lambda_, "arrival rate per slot");
    flags.add("tx", &tx_, "transmission + detection slots (M + 1)");
    flags.add("t-end", &t_end_, "simulated slots per replication");
    flags.add("reps", &reps_, "replications");
    flags.add("samples", &samples_, "SMDP kernel samples");
  }

  void schedule(StudyContext& ctx) override {
    double t_end = t_end_;
    long long reps = reps_;
    long long samples = samples_;
    if (ctx.quick()) {
      t_end = 80000.0;
      reps = 1;
      samples = 4000;
    }
    const double m = static_cast<double>(tx_ - 1);
    net::SweepConfig cfg;
    cfg.offered_load = lambda_ * m;
    cfg.message_length = m;
    cfg.t_end = t_end;
    cfg.warmup = t_end / 15.0;
    cfg.replications = static_cast<int>(reps);
    const double heuristic_width = cfg.heuristic_window_width();

    std::printf("== adaptive element (2): SMDP width table vs static "
                "heuristic (lambda=%.3f, M=%.0f) ==\n\n", lambda_, m);

    // Solve the decision model at every deadline as jobs on the scheduler
    // next to the other sweeps: the kernel estimate in blocks across the
    // pool, then policy iteration. The adaptive arms are gated on the
    // solve and read their width tables when they start. The models do
    // not depend on the block count.
    smdp::WindowSmdpConfig wcfg;
    wcfg.lambda = lambda_;
    wcfg.tx_slots = static_cast<std::size_t>(tx_);
    wcfg.mc_samples = static_cast<std::size_t>(samples);
    auto pass = std::make_shared<smdp::WindowModelPass>(
        wcfg, kDeadlines, 2 * ctx.scheduler().threads());
    std::vector<std::function<void()>> blocks;
    for (std::size_t b = 0; b < pass->blocks(); ++b) {
      blocks.push_back([pass, b] { pass->estimate(b); });
    }
    const std::size_t kernel = ctx.job("smdp/kernel", std::move(blocks));
    const StudyContext::Prerequisite solve{
        ctx.job("smdp",
                {[this, pass, lambda = wcfg.lambda] {
                  models_ = smdp::solve_window_smdps(pass->models(), lambda);
                }},
                kernel),
        // v2 names the model's stream layout, one stream per (state,
        // width) pair, so adaptive shards stored under the earlier single
        // stream are not reused.
        "smdp-v2|lambda=" + fp_value(wcfg.lambda) +
            "|tx=" + std::to_string(wcfg.tx_slots) +
            "|max_window=" + std::to_string(wcfg.max_window) +
            "|samples=" + std::to_string(wcfg.mc_samples) +
            "|seed=" + std::to_string(wcfg.seed)};
    for (std::size_t d = 0; d < kDeadlines.size(); ++d) {
      const auto k = static_cast<long long>(kDeadlines[d]);
      // Appended, not "K" + std::to_string(k): GCC 12 at -O3 reports a
      // false-positive -Wrestrict on that concatenation.
      std::string kname = "K";
      kname += std::to_string(k);
      auto static_sweep = ctx.sweep(
          kname + "/static", cfg,
          [heuristic_width](double deadline) {
            return core::ControlPolicy::optimal(deadline, heuristic_width);
          },
          {static_cast<double>(k)});
      auto adaptive_sweep = ctx.sweep(
          kname + "/adaptive", cfg,
          [this, d, heuristic_width](double deadline) {
            auto p = core::ControlPolicy::optimal(deadline,
                                                  heuristic_width);
            const auto& widths = models_[d].width_per_state;
            p.width_table.assign(widths.begin(), widths.end());
            return p;
          },
          {static_cast<double>(k)}, solve);
      arms_.push_back({k, std::move(static_sweep), std::move(adaptive_sweep)});
    }
  }

  int render(StudyContext& ctx) override {
    Table table({"K", "loss_static", "ci_static", "loss_adaptive",
                 "ci_adaptive", "smdp_pseudo_loss"});
    for (std::size_t d = 0; d < arms_.size(); ++d) {
      const Arm& arm = arms_[d];
      const auto static_pts = arm.static_sweep.points();
      const auto adaptive_pts = arm.adaptive_sweep.points();
      table.add_row({std::to_string(arm.k),
                     format_fixed(static_pts[0].p_loss, 5),
                     format_fixed(static_pts[0].ci95, 5),
                     format_fixed(adaptive_pts[0].p_loss, 5),
                     format_fixed(adaptive_pts[0].ci95, 5),
                     format_fixed(models_[d].loss_fraction, 5)});
    }
    table.write_pretty(std::cout);
    std::printf("\n(the SMDP pseudo-loss column is the model's own optimum "
                "under the paper's\n waiting definition; the sim columns "
                "charge true waits, hence sit higher)\n");
    if (!table.save_csv(ctx.csv_path())) return 1;
    std::printf("csv: %s\n", ctx.csv_path().c_str());
    return 0;
  }

 private:
  double lambda_ = 0.12;
  long long tx_ = 5;  // M + 1 detection slot
  double t_end_ = 400000.0;
  long long reps_ = 3;
  long long samples_ = 20000;
  static inline const std::vector<std::size_t> kDeadlines = {12, 16, 24,
                                                             32, 48};
  struct Arm {
    long long k;
    net::ScheduledSweep static_sweep;
    net::ScheduledSweep adaptive_sweep;
  };
  std::vector<Arm> arms_;
  // One solved model per kDeadlines entry, written by the smdp job.
  std::vector<smdp::WindowPolicyResult> models_;
};

// Element (4) ablation: the same protocol with and without sender
// discard. The paper's Section 4.2 attributes most of the controlled
// protocol's gain to element (4) -- the channel then only carries "useful"
// work -- and this study quantifies that by splitting loss into its
// sender/receiver components and reporting channel utilization. Both arms
// derive their job seeds from the same (seed, K index), so they compare
// on common random numbers.
class DiscardStudy final : public Study {
 public:
  void register_flags(Flags& flags) override {
    flags.add("rho", &rho_, "offered load rho'");
    flags.add("m", &m_, "message length M");
    flags.add("t-end", &t_end_, "simulated slots");
    flags.add("seed", &seed_, "base RNG seed");
  }

  void schedule(StudyContext& ctx) override {
    std::printf("== element (4) ablation: sender discard on/off "
                "(rho'=%.2f, M=%.0f) ==\n\n", rho_, m_);
    for (const double r : {1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0}) {
      grid_.push_back(r * m_);
    }
    net::SweepConfig cfg;
    cfg.offered_load = rho_;
    cfg.message_length = m_;
    cfg.t_end = ctx.quick() ? 40000.0 : t_end_;
    cfg.warmup = cfg.t_end / 15.0;
    cfg.replications = 1;
    cfg.base_seed = seed_;
    const double width = analysis::optimal_window_load() / cfg.lambda();
    arms_.push_back(ctx.sweep(
        "discard", cfg,
        [width](double k) { return core::ControlPolicy::optimal(k, width); },
        grid_));
    arms_.push_back(ctx.sweep(
        "nodiscard", cfg,
        [width](double k) {
          return core::ControlPolicy::fcfs_baseline(k, width);
        },
        grid_));
  }

  int render(StudyContext& ctx) override {
    const auto with_points = arms_[0].points();
    const auto without_points = arms_[1].points();
    Table table({"K", "loss_with", "sender_frac_with", "util_with",
                 "loss_without", "receiver_frac_without", "util_without"});
    for (std::size_t i = 0; i < grid_.size(); ++i) {
      const net::SweepPoint& with = with_points[i];
      const net::SweepPoint& without = without_points[i];
      table.add_row({format_fixed(grid_[i], 0), format_fixed(with.p_loss, 5),
                     format_fixed(with.sender_loss_frac, 5),
                     format_fixed(with.utilization, 4),
                     format_fixed(without.p_loss, 5),
                     format_fixed(without.receiver_loss_frac, 5),
                     format_fixed(without.utilization, 4)});
    }
    table.write_pretty(std::cout);
    std::printf("\nWith element (4) every transmitted message is useful "
                "work;\nwithout it the channel wastes transmissions on "
                "messages already dead at the receiver.\n");
    if (!table.save_csv(ctx.csv_path())) return 1;
    std::printf("csv: %s\n", ctx.csv_path().c_str());
    return 0;
  }

 private:
  double rho_ = 0.5;
  double m_ = 25.0;
  double t_end_ = 200000.0;
  unsigned long long seed_ = 7;
  std::vector<double> grid_;
  std::vector<net::ScheduledSweep> arms_;  // with, then without discard
};

// Asynchrony sensitivity (paper Section 5, second extension): every probe
// step is stretched by a uniform 0..jitter extra slot time, modelling
// imperfect slot synchronization. The controller is unmodified, so this
// measures what the synchronous-channel assumption is worth. All jitter
// levels share one seed (common random numbers).
class AsynchronyStudy final : public Study {
 public:
  void register_flags(Flags& flags) override {
    flags.add("rho", &rho_, "offered load rho'");
    flags.add("m", &m_, "message length M");
    flags.add("k", &k_, "time constraint K in slots");
    flags.add("t-end", &t_end_, "simulated slots");
  }

  void schedule(StudyContext& ctx) override {
    double t_end = t_end_;
    if (ctx.quick()) t_end = 60000.0;
    const double lambda = rho_ / m_;
    const double width = analysis::optimal_window_load() / lambda;

    std::printf("== synchronization-jitter sweep (rho'=%.2f, M=%.0f, "
                "K=%.0f) ==\n\n", rho_, m_, k_);

    std::string config_text = "tcw-asynchrony-payload-v1|rho=" +
                              fp_value(rho_) + "|m=" + fp_value(m_) +
                              "|k=" + fp_value(k_) +
                              "|t_end=" + fp_value(t_end) + "|jitters=";
    for (const double j : jitters_) config_text += fp_value(j) + ",";

    std::vector<std::function<std::vector<double>()>> jobs;
    for (const double jitter : jitters_) {
      const double k = k_;
      const double m = m_;
      jobs.push_back([k, m, t_end, lambda, width, jitter] {
        net::AggregateConfig cfg;
        cfg.policy = core::ControlPolicy::optimal(k, width);
        cfg.message_length = m;
        cfg.t_end = t_end;
        cfg.warmup = t_end / 15.0;
        cfg.seed = 41;
        cfg.slot_jitter = jitter;
        net::AggregateSimulator sim(
            cfg, std::make_unique<chan::PoissonProcess>(lambda));
        const net::SimMetrics& metrics = sim.run();
        return std::vector<double>{metrics.p_loss(),
                                   metrics.wait_delivered.mean(),
                                   metrics.wait_p90.value(),
                                   metrics.usage.utilization()};
      });
    }
    results_ = ctx.generic_sweep("jitter", /*base_seed=*/41, config_text,
                                 std::move(jobs));
  }

  int render(StudyContext& ctx) override {
    Table table({"jitter", "p_loss", "mean_wait", "p90_wait",
                 "utilization"});
    for (std::size_t i = 0; i < jitters_.size(); ++i) {
      const std::vector<double>& p = results_->payload(i);
      if (p.size() != 4) {
        std::fprintf(stderr, "asynchrony: malformed result slot %zu\n", i);
        return 1;
      }
      table.add_row({format_fixed(jitters_[i], 2), format_fixed(p[0], 5),
                     format_fixed(p[1], 2), format_fixed(p[2], 2),
                     format_fixed(p[3], 4)});
    }
    table.write_pretty(std::cout);
    std::printf("\njitter inflates every probe and transmission, so it acts "
                "like a slower\nchannel: loss grows smoothly -- no cliff -- "
                "which bounds the cost of the\nsynchronous-operation "
                "assumption the paper flags as future work.\n");
    if (!table.save_csv(ctx.csv_path())) return 1;
    std::printf("csv: %s\n", ctx.csv_path().c_str());
    return 0;
  }

 private:
  double rho_ = 0.5;
  double m_ = 25.0;
  double k_ = 75.0;
  double t_end_ = 300000.0;
  const std::vector<double> jitters_{0.0, 0.1, 0.25, 0.5, 1.0, 2.0};
  std::shared_ptr<GenericSweep> results_;
};

// Extension study (paper Section 5): two priority classes -- a
// tight-deadline "voice" class and a loose-deadline "data" class -- share
// the channel, and the weighted round-robin share of windowing processes
// is swept to map the loss trade-off frontier between them.
class PriorityClassesStudy final : public Study {
 public:
  void register_flags(Flags& flags) override {
    flags.add("m", &m_, "message length M");
    flags.add("k-high", &k_high_, "deadline of the high-priority class");
    flags.add("k-low", &k_low_, "deadline of the low-priority class");
    flags.add("rate", &rate_each_,
              "arrival rate per class (messages/slot)");
    flags.add("t-end", &t_end_, "simulated slots");
  }

  void schedule(StudyContext& ctx) override {
    double t_end = t_end_;
    if (ctx.quick()) t_end = 50000.0;

    std::printf("== priority classes: K_high=%.0f vs K_low=%.0f, "
                "rho'_total=%.2f ==\n\n",
                k_high_, k_low_, 2.0 * rate_each_ * m_);

    std::string config_text = "tcw-priority-payload-v1|m=" + fp_value(m_) +
                              "|k_high=" + fp_value(k_high_) +
                              "|k_low=" + fp_value(k_low_) +
                              "|rate=" + fp_value(rate_each_) +
                              "|t_end=" + fp_value(t_end) + "|weights=";
    for (const auto& [w_high, w_low] : weights_) {
      config_text += std::to_string(w_high) + ":" + std::to_string(w_low) +
                     ",";
    }

    std::vector<std::function<std::vector<double>()>> jobs;
    for (const auto& [w_high, w_low] : weights_) {
      const double m = m_;
      const double k_high = k_high_;
      const double k_low = k_low_;
      const double rate = rate_each_;
      jobs.push_back([m, k_high, k_low, rate, t_end, w_high = w_high,
                      w_low = w_low] {
        net::PriorityConfig cfg;
        net::PriorityClassSpec high;
        high.deadline = k_high;
        high.arrival_rate = rate;
        high.weight = w_high;
        net::PriorityClassSpec low;
        low.deadline = k_low;
        low.arrival_rate = rate;
        low.weight = w_low;
        cfg.classes = {high, low};
        cfg.message_length = m;
        cfg.t_end = t_end;
        cfg.warmup = t_end / 15.0;
        cfg.seed = 23;

        net::PrioritySimulator sim(cfg);
        const auto& metrics = sim.run();
        const double util = (metrics[0].usage.payload_slots() +
                             metrics[1].usage.payload_slots()) /
                            (metrics[0].usage.total_slots() +
                             metrics[1].usage.total_slots());
        return std::vector<double>{metrics[0].p_loss(), metrics[1].p_loss(),
                                   metrics[0].wait_delivered.mean(),
                                   metrics[1].wait_delivered.mean(), util};
      });
    }
    results_ = ctx.generic_sweep("weights", /*base_seed=*/23, config_text,
                                 std::move(jobs));
  }

  int render(StudyContext& ctx) override {
    Table table({"w_high", "w_low", "loss_high", "loss_low", "wait_high",
                 "wait_low", "util_total"});
    for (std::size_t i = 0; i < weights_.size(); ++i) {
      const std::vector<double>& p = results_->payload(i);
      if (p.size() != 5) {
        std::fprintf(stderr, "priority: malformed result slot %zu\n", i);
        return 1;
      }
      table.add_row({std::to_string(weights_[i].first),
                     std::to_string(weights_[i].second),
                     format_fixed(p[0], 5), format_fixed(p[1], 5),
                     format_fixed(p[2], 2), format_fixed(p[3], 2),
                     format_fixed(p[4], 4)});
    }
    table.write_pretty(std::cout);
    std::printf("\nweight shifts loss between the classes while total "
                "utilization stays put:\nexactly the 'priority via window "
                "scheduling' knob Section 5 anticipates.\n");
    if (!table.save_csv(ctx.csv_path())) return 1;
    std::printf("csv: %s\n", ctx.csv_path().c_str());
    return 0;
  }

 private:
  double m_ = 25.0;
  double k_high_ = 75.0;
  double k_low_ = 600.0;
  double rate_each_ = 0.011;  // per class; total rho' ~ 0.55
  double t_end_ = 250000.0;
  const std::vector<std::pair<unsigned, unsigned>> weights_{
      {1, 4}, {1, 2}, {1, 1}, {2, 1}, {4, 1}, {8, 1}};
  std::shared_ptr<GenericSweep> results_;
};

// MAC policy showdown: the paper's window engine vs fixed-p slotted ALOHA
// vs pseudo-Bayesian dynamic ALOHA (see net/protocol_engine.hpp), swept
// over {engine} x {K} x {rho} on one shared scheduler. Every cell reports
// the loss fraction and its complement, the timely-delivery ratio -- the
// fraction of offered messages delivered within the constraint -- which
// is the quantity the paper's time-constrained setting actually prices.
class PolicyGridStudy final : public Study {
 public:
  void register_flags(Flags& flags) override {
    flags.add("t-end", &t_end_, "simulated slots per replication");
    flags.add("m", &m_, "message length M");
    flags.add("reps", &reps_, "replications per point");
    flags.add("p", &tx_prob_,
              "slotted-ALOHA transmission probability (<= 0 selects 1/e)");
    flags.add("engine", &engine_flag_,
              "run only this engine, case-insensitive (default: all)");
  }

  void schedule(StudyContext& ctx) override {
    net::EngineKind only = net::EngineKind::Window;
    const bool filtered = !engine_flag_.empty();
    if (!parse_engine_flag(engine_flag_, &only)) {
      flags_bad_ = true;
      return;
    }
    double t_end = t_end_;
    long long reps = reps_;
    k_over_m_ = {1.5, 2.0, 3.0, 4.0, 6.0, 8.0};
    if (ctx.quick()) {
      t_end = 25000.0;
      reps = 1;
      k_over_m_ = {2.0, 4.0};
    }
    std::vector<double> k_grid;
    for (const double r : k_over_m_) k_grid.push_back(r * m_);

    std::printf("== policy grid: window engine vs slotted/dynamic ALOHA "
                "(M=%.0f) ==\n(loss and timely-delivery ratio per "
                "{engine, K, rho} cell; one shared scheduler)\n\n", m_);

    for (const net::EngineKind kind :
         {net::EngineKind::Window, net::EngineKind::SlottedAloha,
          net::EngineKind::DynamicAloha}) {
      if (filtered && kind != only) continue;
      for (const double rho : rhos_) {
        net::SweepConfig cfg;
        cfg.offered_load = rho;
        cfg.message_length = m_;
        cfg.t_end = t_end;
        cfg.warmup = t_end / 15.0;
        cfg.replications = static_cast<int>(reps);
        cfg.mac.engine.kind = kind;
        cfg.mac.engine.tx_prob = tx_prob_;
        cfg.mac.engine.arrival_rate = cfg.lambda();
        const double width = cfg.heuristic_window_width();
        const std::string name =
            net::to_string(kind) + "/rho" + format_fixed(rho, 2);
        arms_.push_back({kind, rho,
                         ctx.sweep(
                             name, cfg,
                             [width](double deadline) {
                               return core::ControlPolicy::optimal(deadline,
                                                                   width);
                             },
                             k_grid)});
      }
    }
  }

  int render(StudyContext& ctx) override {
    if (flags_bad_) return 1;
    Table table({"engine", "rho", "K", "p_loss", "ci95", "timely_ratio",
                 "sender_loss_frac", "receiver_loss_frac", "utilization"});
    for (const Arm& arm : arms_) {
      const auto pts = arm.sweep.points();
      const std::string engine = net::to_string(arm.kind);
      for (const net::SweepPoint& pt : pts) {
        const double timely = 1.0 - pt.p_loss;
        table.add_row({engine, format_fixed(arm.rho, 2),
                       format_fixed(pt.constraint, 1),
                       format_fixed(pt.p_loss, 5), format_fixed(pt.ci95, 5),
                       format_fixed(timely, 5),
                       format_fixed(pt.sender_loss_frac, 5),
                       format_fixed(pt.receiver_loss_frac, 5),
                       format_fixed(pt.utilization, 4)});
        std::printf("BENCH_JSON {\"study\":\"policy_grid\","
                    "\"engine\":\"%s\",\"rho\":%.2f,\"k\":%.1f,"
                    "\"p_loss\":%.5f,\"timely_ratio\":%.5f}\n",
                    engine.c_str(), arm.rho, pt.constraint, pt.p_loss,
                    timely);
      }
    }
    table.write_pretty(std::cout);
    // Per-(rho, K) winner: arms are engine-major, so engine e at rho index
    // r lives at arm e*rhos + r and the K grid is shared across arms.
    std::printf("\nbest engine per cell (by timely-delivery ratio):\n");
    const std::size_t n_rho = rhos_.size();
    for (std::size_t r = 0; r < n_rho; ++r) {
      for (std::size_t ki = 0; ki < k_over_m_.size(); ++ki) {
        double best_loss = 2.0;
        const Arm* best = nullptr;
        double k = 0.0;
        for (std::size_t e = 0; e < arms_.size() / n_rho; ++e) {
          const Arm& arm = arms_[e * n_rho + r];
          const auto pts = arm.sweep.points();
          k = pts[ki].constraint;
          if (pts[ki].p_loss < best_loss) {
            best_loss = pts[ki].p_loss;
            best = &arm;
          }
        }
        std::printf("  rho'=%.2f K=%-5.1f -> %-13s (timely %.4f)\n",
                    rhos_[r], k, net::to_string(best->kind).c_str(),
                    1.0 - best_loss);
      }
    }
    if (!table.save_csv(ctx.csv_path())) return 1;
    std::printf("csv: %s\n", ctx.csv_path().c_str());
    return 0;
  }

 private:
  double t_end_ = 150000.0;
  double m_ = 25.0;
  long long reps_ = 2;
  double tx_prob_ = 0.0;
  std::string engine_flag_;
  bool flags_bad_ = false;
  const std::vector<double> rhos_{0.25, 0.50, 0.75};
  std::vector<double> k_over_m_;
  struct Arm {
    net::EngineKind kind;
    double rho;
    net::ScheduledSweep sweep;
  };
  std::vector<Arm> arms_;
};

// Large-N scaling study: the event-skipping batched kernel at station
// counts far beyond the per-slot grids (10^4..10^6), with the
// N -> infinity fluid limit (net::FluidSimulator) closing each load
// column. Payloads carry only deterministic metrics (no wall times), so
// cached shards resume to byte-identical CSVs.
class LargeNStudy final : public Study {
 public:
  void register_flags(Flags& flags) override {
    flags.add("t-end", &t_end_, "simulated slots per cell");
    flags.add("m", &m_, "message length M");
    flags.add("k-over-m", &k_over_m_,
              "time constraint K as a multiple of M");
  }

  void schedule(StudyContext& ctx) override {
    double t_end = t_end_;
    stations_ = {10000, 100000, 1000000};
    if (ctx.quick()) {
      t_end = 20000.0;
      stations_ = {10000, 100000};
    }
    const double k = k_over_m_ * m_;

    std::printf("== large-N scaling: event-skip kernel to N=%zu, fluid "
                "limit as N=inf (M=%.0f, K=%.0f) ==\n\n",
                stations_.back(), m_, k);

    std::string config_text = "tcw-large-n-payload-v1|m=" + fp_value(m_) +
                              "|k=" + fp_value(k) +
                              "|t_end=" + fp_value(t_end) + "|cells=";
    for (const double rho : rhos_) {
      for (const std::size_t n : stations_) {
        config_text += std::to_string(n) + ":" + fp_value(rho) + ",";
      }
    }
    config_text += "|fluid=";
    for (const double rho : rhos_) config_text += fp_value(rho) + ",";

    std::vector<std::function<std::vector<double>()>> jobs;
    for (const double rho : rhos_) {
      for (const std::size_t n : stations_) {
        const double m = m_;
        jobs.push_back([n, rho, k, m, t_end] {
          net::NetworkConfig cfg;
          const double lambda = rho / m;
          cfg.policy = core::ControlPolicy::optimal(
              k, analysis::optimal_window_load() / lambda);
          cfg.message_length = m;
          cfg.t_end = t_end;
          cfg.warmup = t_end / 15.0;
          cfg.seed = 57;
          cfg.consistency_check_every = 4096;
          cfg.shadow_replicas = 2;
          cfg.event_skip = true;
          auto sim = net::Network::homogeneous_poisson_batched(cfg, n,
                                                               lambda);
          const net::SimMetrics& metrics = sim.run();
          return std::vector<double>{
              metrics.p_loss(), 1.0 - metrics.p_loss(),
              static_cast<double>(sim.skipped_slots()) / t_end,
              static_cast<double>(metrics.arrivals),
              static_cast<double>(metrics.delivered),
              sim.stations_consistent() ? 1.0 : 0.0};
        });
      }
    }
    for (const double rho : rhos_) {
      const double m = m_;
      jobs.push_back([rho, k, m, t_end] {
        analysis::ProtocolModelConfig mc;
        mc.offered_load = rho;
        mc.message_length = m;
        net::FluidConfig cfg = net::protocol_fluid_config(mc, k);
        cfg.t_end = t_end;
        cfg.warmup = t_end / 15.0;
        cfg.seed = 57;
        net::FluidSimulator sim(cfg);
        const net::FluidMetrics& metrics = sim.run();
        // Slot layout matches the finite-N cells; the fluid kernel steps
        // no slots, so its "skip fraction" is identically 1.
        return std::vector<double>{
            metrics.p_loss(), 1.0 - metrics.p_loss(), 1.0,
            static_cast<double>(metrics.arrivals),
            static_cast<double>(metrics.accepted), 1.0};
      });
    }
    results_ = ctx.generic_sweep("cells", /*base_seed=*/57, config_text,
                                 std::move(jobs));
  }

  int render(StudyContext& ctx) override {
    Table table({"stations", "rho", "K", "p_loss", "timely_ratio",
                 "skip_fraction", "arrivals", "delivered"});
    const double k = k_over_m_ * m_;
    std::size_t job = 0;
    int bad = 0;
    const auto row = [&](const std::string& stations, double rho) {
      const std::vector<double>& p = results_->payload(job);
      ++job;
      if (p.size() != 6 || p[5] != 1.0) {
        std::fprintf(stderr,
                     "large_n: malformed or inconsistent result slot %zu\n",
                     job - 1);
        ++bad;
        return;
      }
      table.add_row({stations, format_fixed(rho, 2), format_fixed(k, 1),
                     format_fixed(p[0], 5), format_fixed(p[1], 5),
                     format_fixed(p[2], 4), format_fixed(p[3], 0),
                     format_fixed(p[4], 0)});
      std::printf("BENCH_JSON {\"study\":\"large_n\",\"engine\":\"window\","
                  "\"stations\":\"%s\",\"rho\":%.2f,\"k\":%.1f,"
                  "\"p_loss\":%.5f,\"timely_ratio\":%.5f}\n",
                  stations.c_str(), rho, k, p[0], p[1]);
    };
    for (const double rho : rhos_) {
      for (const std::size_t n : stations_) row(std::to_string(n), rho);
    }
    for (const double rho : rhos_) row("inf", rho);
    table.write_pretty(std::cout);
    std::printf("\nloss is flat in N at fixed rho' and the fluid row closes "
                "each column:\nthe finite-station protocol converges to the "
                "Section 4 impatient-M/G/1\nabstraction, and the event-skip "
                "kernel makes the approach observable\nat millions of "
                "stations.\n");
    if (bad != 0) return 1;
    if (!table.save_csv(ctx.csv_path())) return 1;
    std::printf("csv: %s\n", ctx.csv_path().c_str());
    return 0;
  }

 private:
  double t_end_ = 150000.0;
  double m_ = 25.0;
  double k_over_m_ = 3.0;
  const std::vector<double> rhos_{0.50, 0.90};
  std::vector<std::size_t> stations_;
  std::shared_ptr<GenericSweep> results_;
};

// Multi-channel study: the C >= 1 sharded channel model (ChannelPlan,
// net/channel_plan.hpp) swept over {channels} x {selector} x {rho} x {K}
// on one shared scheduler. The C = 1 column is the paper's single
// broadcast channel (bit-identical to the pre-multichannel kernels); the
// C > 1 columns split the same offered load across C parallel channels
// and compare the four arrival-routing selectors. render() also reports
// the per-channel slot-outcome counters the kernels flush into the obs
// registry, so channel-load balance is visible per selector.
class MultiChannelStudy final : public Study {
 public:
  void register_flags(Flags& flags) override {
    flags.add("t-end", &t_end_, "simulated slots per replication");
    flags.add("m", &m_, "message length M");
    flags.add("reps", &reps_, "replications per point");
    flags.add("engine", &engine_flag_,
              "MAC engine on every channel, case-insensitive "
              "(default: window)");
    flags.add("selector", &selector_flag_,
              "run only this selector on the C > 1 arms (default: all)");
    flags.add("channels", &channels_flag_,
              "run only this channel count (default: the full grid)");
    flags.add("skew", &skew_,
              "shard-map skew in [0,1) for hash-shard/uniform-random");
  }

  void schedule(StudyContext& ctx) override {
    net::EngineKind engine = net::EngineKind::Window;
    net::ChannelSelectorKind only = net::ChannelSelectorKind::HashShard;
    const bool filtered = !selector_flag_.empty();
    if (!parse_engine_flag(engine_flag_, &engine) ||
        !parse_selector_flag(selector_flag_, &only)) {
      flags_bad_ = true;
      return;
    }
    double t_end = t_end_;
    long long reps = reps_;
    k_over_m_ = {2.0, 4.0, 8.0};
    channel_grid_ = {1, 2, 4};
    if (ctx.quick()) {
      t_end = 20000.0;
      reps = 1;
      k_over_m_ = {2.0, 4.0};
      channel_grid_ = {1, 2};
    }
    if (channels_flag_ > 0) {
      channel_grid_ = {static_cast<std::uint32_t>(channels_flag_)};
    }
    std::vector<double> k_grid;
    for (const double r : k_over_m_) k_grid.push_back(r * m_);

    std::printf("== multichannel: C-channel sharding x selector policy "
                "(engine=%s, M=%.0f) ==\n(the C=1 column is the paper's "
                "single broadcast channel; C>1 splits the same\noffered "
                "load across C channels under each routing selector)\n\n",
                net::to_string(engine).c_str(), m_);

    for (const std::uint32_t channels : channel_grid_) {
      // C = 1 never consults the selector, so one arm covers them all.
      std::vector<net::ChannelSelectorKind> selectors;
      if (channels == 1) {
        selectors = {net::ChannelSelectorKind::HashShard};
      } else if (filtered) {
        selectors = {only};
      } else {
        selectors = {net::ChannelSelectorKind::HashShard,
                     net::ChannelSelectorKind::UniformRandom,
                     net::ChannelSelectorKind::LeastLoaded,
                     net::ChannelSelectorKind::DeadlineHop};
      }
      for (const net::ChannelSelectorKind selector : selectors) {
        for (const double rho : rhos_) {
          net::SweepConfig cfg;
          cfg.offered_load = rho;
          cfg.message_length = m_;
          cfg.t_end = t_end;
          cfg.warmup = t_end / 15.0;
          cfg.replications = static_cast<int>(reps);
          cfg.mac.engine.kind = engine;
          cfg.mac.engine.arrival_rate = cfg.lambda();
          cfg.mac.channel.channels = channels;
          cfg.mac.channel.selector = selector;
          cfg.mac.channel.skew = skew_;
          const double width = cfg.heuristic_window_width();
          // Appended piece by piece: GCC 12 at -O3 reports a
          // false-positive -Wrestrict on "c" + std::to_string(...).
          std::string name = "c";
          name += std::to_string(channels);
          name += '/';
          name += net::to_string(selector);
          name += "/rho";
          name += format_fixed(rho, 2);
          arms_.push_back({engine, channels, selector, rho,
                           ctx.sweep(
                               name, cfg,
                               [width](double deadline) {
                                 return core::ControlPolicy::optimal(
                                     deadline, width);
                               },
                               k_grid)});
        }
      }
    }
  }

  int render(StudyContext& ctx) override {
    if (flags_bad_) return 1;
    Table table({"engine", "channels", "selector", "rho", "K", "p_loss",
                 "ci95", "timely_ratio", "utilization"});
    for (const Arm& arm : arms_) {
      const std::string engine = net::to_string(arm.engine);
      const std::string selector = net::to_string(arm.selector);
      for (const net::SweepPoint& pt : arm.sweep.points()) {
        const double timely = 1.0 - pt.p_loss;
        table.add_row({engine, std::to_string(arm.channels), selector,
                       format_fixed(arm.rho, 2),
                       format_fixed(pt.constraint, 1),
                       format_fixed(pt.p_loss, 5), format_fixed(pt.ci95, 5),
                       format_fixed(timely, 5),
                       format_fixed(pt.utilization, 4)});
        std::printf("BENCH_JSON {\"study\":\"multichannel\","
                    "\"engine\":\"%s\",\"channels\":%u,\"selector\":\"%s\","
                    "\"rho\":%.2f,\"k\":%.1f,\"p_loss\":%.5f,"
                    "\"timely_ratio\":%.5f}\n",
                    engine.c_str(), arm.channels, selector.c_str(), arm.rho,
                    pt.constraint, pt.p_loss, timely);
      }
    }
    table.write_pretty(std::cout);

    // Per-channel slot-outcome counters, summed over every C > 1 cell this
    // process ran (cached shards never run, so these are volume counters,
    // not part of the byte-stable CSV). Channel 0 of a skewed shard map
    // should visibly out-collide the tail channels.
    std::uint32_t max_channels = 1;
    for (const std::uint32_t c : channel_grid_) {
      max_channels = std::max(max_channels, c);
    }
    const obs::RegistrySnapshot snap = obs::Registry::global().snapshot();
    for (std::uint32_t c = 0; c < max_channels; ++c) {
      const auto value = [&](const char* outcome) {
        return snap.counter(obs::channel_counter_name("net.aggregate", c,
                                                      outcome));
      };
      std::printf("BENCH_JSON {\"study\":\"multichannel\","
                  "\"counter_prefix\":\"net.aggregate\",\"channel\":%u,"
                  "\"probe_slots\":%llu,\"idle_slots\":%llu,"
                  "\"collisions\":%llu,\"successes\":%llu,"
                  "\"sender_discards\":%llu}\n",
                  c,
                  static_cast<unsigned long long>(value("probe_slots")),
                  static_cast<unsigned long long>(value("idle_slots")),
                  static_cast<unsigned long long>(value("collisions")),
                  static_cast<unsigned long long>(value("successes")),
                  static_cast<unsigned long long>(value("sender_discards")));
    }

    std::printf("\nsharding divides the contention set: at equal total "
                "load, C channels each run\nat rho'/C, so splitting trades "
                "per-channel utilization for collision relief;\nthe "
                "selectors differ in how evenly they spread that relief.\n");
    if (!table.save_csv(ctx.csv_path())) return 1;
    std::printf("csv: %s\n", ctx.csv_path().c_str());
    return 0;
  }

 private:
  double t_end_ = 150000.0;
  double m_ = 25.0;
  long long reps_ = 2;
  std::string engine_flag_;
  std::string selector_flag_;
  long long channels_flag_ = 0;
  double skew_ = 0.0;
  bool flags_bad_ = false;
  const std::vector<double> rhos_{0.60, 0.85};
  std::vector<double> k_over_m_;
  std::vector<std::uint32_t> channel_grid_;
  struct Arm {
    net::EngineKind engine;
    std::uint32_t channels;
    net::ChannelSelectorKind selector;
    double rho;
    net::ScheduledSweep sweep;
  };
  std::vector<Arm> arms_;
};

template <typename T>
StudyEntry entry(std::string name, std::string summary, std::string figure) {
  StudySpec spec;
  spec.name = std::move(name);
  spec.summary = std::move(summary);
  spec.figure = std::move(figure);
  spec.default_csv = spec.name + ".csv";
  return StudyEntry{std::move(spec),
                    [] { return std::make_unique<T>(); }};
}

}  // namespace

std::vector<StudyEntry> make_all_studies() {
  std::vector<StudyEntry> studies;
  studies.push_back(entry<Theorem1Study>(
      "ablation_theorem1",
      "Sweep policy elements (1) x (3) to verify Theorem 1",
      "Theorem 1: FCFS among survivors is optimal (elements 1 x 3)"));
  studies.push_back(entry<WindowSizeStudy>(
      "ablation_window_size",
      "Loss and scheduling overhead vs initial window width",
      "element (2): heuristic width nu*/lambda vs empirical optimum"));
  studies.push_back(entry<SplitFractionStudy>(
      "ablation_split_fraction",
      "Window cut fraction alpha: model overhead and sim loss",
      "Section 5: non-binary window splits (alpha sweep)"));
  studies.push_back(entry<AdaptiveWidthStudy>(
      "ablation_adaptive_width",
      "SMDP-optimal adaptive widths vs the static heuristic",
      "Section 3 decision model deployed as adaptive element (2)"));
  studies.push_back(entry<DiscardStudy>(
      "ablation_discard",
      "Element (4) on/off: loss decomposition vs K",
      "element (4): sender discard vs receiver-only loss (Section 4.2)"));
  studies.push_back(entry<AsynchronyStudy>(
      "ablation_asynchrony",
      "Loss vs per-step synchronization jitter",
      "Section 5: cost of the synchronous-operation assumption"));
  studies.push_back(entry<PriorityClassesStudy>(
      "priority_classes",
      "Two-class priority trade-off via process weights",
      "Section 5: priority classes via window scheduling weights"));
  studies.push_back(entry<PolicyGridStudy>(
      "policy_grid",
      "Window controller vs slotted/dynamic ALOHA over {engine, K, rho}",
      "MAC showdown: window policy vs fixed/dynamic ALOHA (loss + "
      "timeliness)"));
  studies.push_back(entry<LargeNStudy>(
      "large_n",
      "Event-skip kernel at N=10^4..10^6 against the fluid limit",
      "Section 4: finite-N protocol converges to the impatient-M/G/1 "
      "abstraction"));
  studies.push_back(entry<MultiChannelStudy>(
      "multichannel",
      "C-channel sharded contention over {channels, selector, rho, K}",
      "Extension: multi-channel sharding with pluggable arrival routing "
      "(C=1 is the paper's single channel)"));
  return studies;
}

}  // namespace tcw::bench
