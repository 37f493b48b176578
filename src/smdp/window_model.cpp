#include "smdp/window_model.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "obs/registry.hpp"
#include "sim/rng.hpp"
#include "sim/sampling.hpp"
#include "util/contract.hpp"

namespace tcw::smdp {

namespace {

const obs::Counter& kernel_pairs_counter() {
  static const obs::Counter counter =
      obs::Registry::global().counter("smdp.kernel_pairs");
  return counter;
}

const obs::Counter& mc_samples_counter() {
  static const obs::Counter counter =
      obs::Registry::global().counter("smdp.mc_samples");
  return counter;
}

}  // namespace

ProcessOutcome splitting_outcome(double oldest, double second) {
  TCW_EXPECTS(oldest >= 0.0 && second < 1.0);
  const auto m0 = static_cast<std::uint64_t>(oldest * 0x1p53);
  const auto m1 = static_cast<std::uint64_t>(second * 0x1p53);
  // A tie is never separated: the splitting loop would not terminate.
  TCW_EXPECTS(m0 < m1);
  // Depth d splits the two once it passes the leading bits of their
  // 53-bit mantissas that they share (m0 ^ m1 < 2^53, so 1 <= d <= 53).
  const int depth = std::countl_zero(m0 ^ m1) - 10;
  ProcessOutcome out;
  out.probe_slots = static_cast<double>(depth);
  out.resolved =
      std::ldexp(static_cast<double>((m0 >> (53 - depth)) + 1), -depth);
  return out;
}

std::vector<Smdp> build_window_smdps(
    const WindowSmdpConfig& config, const std::vector<std::size_t>& deadlines) {
  TCW_EXPECTS(!deadlines.empty());
  TCW_EXPECTS(std::isfinite(config.lambda) && config.lambda > 0.0);
  TCW_EXPECTS(config.tx_slots >= 1);
  TCW_EXPECTS(config.mc_samples >= 100);

  // One model per deadline, each with a dense row of K+1 next-state
  // weights for the pair being estimated.
  std::vector<Smdp> models;
  std::vector<std::size_t> row_begin;
  std::size_t rows_len = 0;
  for (const std::size_t k : deadlines) {
    TCW_EXPECTS(k >= 1);
    Smdp& model = models.emplace_back(k + 1);
    // "Wait one slot": no window is probed; one slot of fresh time accrues.
    for (std::size_t i = 0; i <= k; ++i) {
      ActionData wait;
      wait.label = "wait";
      wait.holding = 1.0;
      const std::size_t next = std::min(i + 1, k);
      wait.transitions.push_back({next, 1.0});
      // Waiting at the boundary lets one slot of arrivals age out.
      wait.cost = (i + 1 > k) ? config.lambda : 0.0;
      model.add_action(i, std::move(wait));
    }
    row_begin.push_back(rows_len);
    rows_len += k + 1;
  }
  std::vector<double> hits(rows_len, 0.0);
  std::vector<double> total_cost(deadlines.size());

  // Every deadline draws the pairs (i, w) in this order from this seed, so
  // a shorter deadline's stream is a prefix of a longer one's.
  sim::Rng rng(config.seed);
  const auto samples = static_cast<double>(config.mc_samples);
  const std::size_t k_max = *std::max_element(deadlines.begin(),
                                              deadlines.end());
  std::uint64_t pairs = 0;
  for (std::size_t i = 1; i <= k_max; ++i) {
    const std::size_t w_cap =
        config.max_window == 0 ? i : std::min(i, config.max_window);
    for (std::size_t w = 1; w <= w_cap; ++w) {
      ++pairs;
      // Monte Carlo kernel estimate for (state i, window width w).
      const sim::PoissonSampler arrivals(config.lambda *
                                         static_cast<double>(w));
      std::fill(total_cost.begin(), total_cost.end(), 0.0);
      double total_holding = 0.0;
      for (std::size_t s = 0; s < config.mc_samples; ++s) {
        // No arrival: one idle probe. One: it succeeds at once. More: only
        // the two oldest decide the splitting process.
        const auto n = arrivals(rng);
        ProcessOutcome oc{0.0, 1.0};
        double tx = static_cast<double>(config.tx_slots);
        if (n == 0) {
          oc.probe_slots = 1.0;
          tx = 0.0;
        } else if (n >= 2) {
          double p0 = sim::uniform01(rng);
          double p1 = sim::uniform01(rng);
          if (p1 < p0) std::swap(p0, p1);
          for (std::uint64_t j = 2; j < n; ++j) {
            const double p = sim::uniform01(rng);
            if (p < p0) {
              p1 = p0;
              p0 = p;
            } else if (p < p1) {
              p1 = p;
            }
          }
          oc = splitting_outcome(p0, p1);
        }
        const double sigma = oc.probe_slots + tx;
        const double next_backlog = static_cast<double>(i) -
                                    oc.resolved * static_cast<double>(w) +
                                    sigma;
        total_holding += sigma;
        for (std::size_t m = 0; m < deadlines.size(); ++m) {
          const std::size_t k = deadlines[m];
          if (k < i) continue;
          const double overflow =
              std::max(0.0, next_backlog - static_cast<double>(k));
          total_cost[m] += config.lambda * overflow;

          // Probabilistic rounding onto the lattice preserves the mean.
          const double clipped =
              std::clamp(next_backlog, 0.0, static_cast<double>(k));
          const double fl = std::floor(clipped);
          const double frac = clipped - fl;
          const auto j0 = static_cast<std::size_t>(fl);
          double* row = hits.data() + row_begin[m];
          row[j0] += 1.0 - frac;
          if (frac > 0.0) row[std::min(j0 + 1, k)] += frac;
        }
      }
      const double holding = std::max(total_holding / samples, 1e-9);
      for (std::size_t m = 0; m < deadlines.size(); ++m) {
        if (deadlines[m] < i) continue;
        ActionData act;
        act.label = "w=" + std::to_string(w);
        act.holding = holding;
        act.cost = total_cost[m] / samples;
        // Every touched bucket received a positive weight, so the nonzero
        // buckets are exactly the reachable next states.
        double* row = hits.data() + row_begin[m];
        for (std::size_t j = 0; j <= deadlines[m]; ++j) {
          if (row[j] == 0.0) continue;
          act.transitions.push_back({j, row[j] / samples});
          row[j] = 0.0;
        }
        models[m].add_action(i, std::move(act));
      }
    }
  }
  kernel_pairs_counter().add(pairs);
  mc_samples_counter().add(pairs * config.mc_samples);

  for (const Smdp& model : models) TCW_ENSURES(model.validate(1e-6));
  return models;
}

Smdp build_window_smdp(const WindowSmdpConfig& config) {
  return std::move(build_window_smdps(config, {config.deadline}).front());
}

std::vector<WindowPolicyResult> solve_window_models(
    const WindowSmdpConfig& config, const std::vector<std::size_t>& deadlines) {
  const std::vector<Smdp> models = build_window_smdps(config, deadlines);
  std::vector<WindowPolicyResult> out(models.size());
  for (std::size_t m = 0; m < models.size(); ++m) {
    out[m].state_actions = models[m].num_state_actions();
    out[m].stats = policy_iteration(models[m]);
    out[m].loss_fraction = out[m].stats.eval.gain / config.lambda;
    // Action 0 is "wait"; widths start at action index 1.
    out[m].width_per_state = out[m].stats.policy.choice;
  }
  return out;
}

WindowPolicyResult solve_window_model(const WindowSmdpConfig& config) {
  return std::move(solve_window_models(config, {config.deadline}).front());
}

}  // namespace tcw::smdp
