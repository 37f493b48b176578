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

// Distinctive hi coordinate on the derive_stream_seed plane for the pair
// streams, far outside the small (hi, lo) corner sweep shards use.
constexpr std::uint64_t kSmdpPairHi = 0x5D3DFA12ULL;

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

std::uint64_t pair_stream_seed(std::uint64_t seed, std::size_t state,
                               std::size_t width) {
  // State and width take 32 bits each of the lo coordinate.
  constexpr std::uint64_t kLimit = std::uint64_t{1} << 32;
  TCW_EXPECTS(state < kLimit && width < kLimit);
  return sim::derive_stream_seed(
      seed, kSmdpPairHi, (static_cast<std::uint64_t>(state) << 32) | width);
}

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

WindowModelPass::WindowModelPass(const WindowSmdpConfig& config,
                                 std::vector<std::size_t> deadlines,
                                 std::size_t blocks)
    : config_(config), deadlines_(std::move(deadlines)) {
  TCW_EXPECTS(!deadlines_.empty());
  TCW_EXPECTS(std::isfinite(config_.lambda) && config_.lambda > 0.0);
  TCW_EXPECTS(config_.tx_slots >= 1);
  TCW_EXPECTS(config_.mc_samples >= 100);
  TCW_EXPECTS(blocks >= 1);
  for (const std::size_t k : deadlines_) TCW_EXPECTS(k >= 1);

  const std::size_t k_max = *std::max_element(deadlines_.begin(),
                                              deadlines_.end());
  // A pair's expected work: its Poisson draw (~lambda*w + 1 uniforms), the
  // arrival positions (~lambda*w) and one accumulation per model it feeds.
  std::vector<double> work;
  double total = 0.0;
  for (std::size_t i = 1; i <= k_max; ++i) {
    const std::size_t w_cap =
        config_.max_window == 0 ? i : std::min(i, config_.max_window);
    const auto fed = static_cast<double>(std::count_if(
        deadlines_.begin(), deadlines_.end(),
        [i](std::size_t k) { return k >= i; }));
    for (std::size_t w = 1; w <= w_cap; ++w) {
      pairs_.push_back({i, w});
      work.push_back(1.0 + 2.0 * config_.lambda * static_cast<double>(w) +
                     fed);
      total += work.back();
    }
  }
  // Contiguous blocks of about total / blocks work each, none empty.
  blocks = std::min(blocks, pairs_.size());
  block_begin_.push_back(0);
  double acc = 0.0;
  for (std::size_t p = 0; p < pairs_.size() && block_begin_.size() < blocks;
       ++p) {
    acc += work[p];
    const double target = total * static_cast<double>(block_begin_.size()) /
                          static_cast<double>(blocks);
    const std::size_t left = pairs_.size() - (p + 1);
    if (acc >= target || left == blocks - block_begin_.size()) {
      block_begin_.push_back(p + 1);
    }
  }
  block_begin_.push_back(pairs_.size());
  estimated_.assign(this->blocks(), 0);
  actions_.resize(pairs_.size());
}

void WindowModelPass::estimate(std::size_t block) {
  TCW_EXPECTS(block < blocks() && estimated_[block] == 0);
  // Dense row of K+1 next-state weights per model, for the pair being
  // estimated.
  std::vector<std::size_t> row_begin;
  std::size_t rows_len = 0;
  for (const std::size_t k : deadlines_) {
    row_begin.push_back(rows_len);
    rows_len += k + 1;
  }
  std::vector<double> hits(rows_len, 0.0);
  std::vector<double> total_cost(deadlines_.size());

  const auto samples = static_cast<double>(config_.mc_samples);
  const std::size_t first = block_begin_[block];
  const std::size_t last = block_begin_[block + 1];
  for (std::size_t p = first; p < last; ++p) {
    const std::size_t i = pairs_[p].state;
    const std::size_t w = pairs_[p].width;
    // Monte Carlo kernel estimate for (state i, window width w).
    sim::Rng rng(pair_stream_seed(config_.seed, i, w));
    const sim::PoissonSampler arrivals(config_.lambda *
                                       static_cast<double>(w));
    std::fill(total_cost.begin(), total_cost.end(), 0.0);
    double total_holding = 0.0;
    for (std::size_t s = 0; s < config_.mc_samples; ++s) {
      // No arrival: one idle probe. One: it succeeds at once. More: only
      // the two oldest decide the splitting process.
      const auto n = arrivals(rng);
      ProcessOutcome oc{0.0, 1.0};
      double tx = static_cast<double>(config_.tx_slots);
      if (n == 0) {
        oc.probe_slots = 1.0;
        tx = 0.0;
      } else if (n >= 2) {
        double p0 = sim::uniform01(rng);
        double p1 = sim::uniform01(rng);
        if (p1 < p0) std::swap(p0, p1);
        for (std::uint64_t j = 2; j < n; ++j) {
          const double u = sim::uniform01(rng);
          if (u < p0) {
            p1 = p0;
            p0 = u;
          } else if (u < p1) {
            p1 = u;
          }
        }
        oc = splitting_outcome(p0, p1);
      }
      const double sigma = oc.probe_slots + tx;
      const double next_backlog = static_cast<double>(i) -
                                  oc.resolved * static_cast<double>(w) +
                                  sigma;
      total_holding += sigma;
      for (std::size_t m = 0; m < deadlines_.size(); ++m) {
        const std::size_t k = deadlines_[m];
        if (k < i) continue;
        const double overflow =
            std::max(0.0, next_backlog - static_cast<double>(k));
        total_cost[m] += config_.lambda * overflow;

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
    actions_[p].resize(deadlines_.size());
    for (std::size_t m = 0; m < deadlines_.size(); ++m) {
      if (deadlines_[m] < i) continue;
      ActionData& act = actions_[p][m];
      act.label = "w=" + std::to_string(w);
      act.holding = holding;
      act.cost = total_cost[m] / samples;
      // Every touched bucket received a positive weight, so the nonzero
      // buckets are exactly the reachable next states.
      double* row = hits.data() + row_begin[m];
      for (std::size_t j = 0; j <= deadlines_[m]; ++j) {
        if (row[j] == 0.0) continue;
        act.transitions.push_back({j, row[j] / samples});
        row[j] = 0.0;
      }
    }
  }
  kernel_pairs_counter().add(last - first);
  mc_samples_counter().add((last - first) * config_.mc_samples);
  estimated_[block] = 1;
}

std::vector<Smdp> WindowModelPass::models() {
  TCW_EXPECTS(!assembled_);
  TCW_EXPECTS(std::all_of(estimated_.begin(), estimated_.end(),
                          [](char done) { return done != 0; }));
  assembled_ = true;
  std::vector<Smdp> models;
  for (const std::size_t k : deadlines_) {
    Smdp& model = models.emplace_back(k + 1);
    // "Wait one slot": no window is probed; one slot of fresh time accrues.
    for (std::size_t i = 0; i <= k; ++i) {
      ActionData wait;
      wait.label = "wait";
      wait.holding = 1.0;
      const std::size_t next = std::min(i + 1, k);
      wait.transitions.push_back({next, 1.0});
      // Waiting at the boundary lets one slot of arrivals age out.
      wait.cost = (i + 1 > k) ? config_.lambda : 0.0;
      model.add_action(i, std::move(wait));
    }
  }
  // Widths follow the wait action in ascending order.
  for (std::size_t p = 0; p < pairs_.size(); ++p) {
    for (std::size_t m = 0; m < deadlines_.size(); ++m) {
      if (deadlines_[m] < pairs_[p].state) continue;
      models[m].add_action(pairs_[p].state, std::move(actions_[p][m]));
    }
  }
  for (const Smdp& model : models) TCW_ENSURES(model.validate(1e-6));
  return models;
}

std::vector<Smdp> build_window_smdps(
    const WindowSmdpConfig& config, const std::vector<std::size_t>& deadlines) {
  WindowModelPass pass(config, deadlines, 1);
  pass.estimate(0);
  return pass.models();
}

Smdp build_window_smdp(const WindowSmdpConfig& config) {
  return std::move(build_window_smdps(config, {config.deadline}).front());
}

std::vector<WindowPolicyResult> solve_window_smdps(
    const std::vector<Smdp>& models, double lambda) {
  std::vector<WindowPolicyResult> out(models.size());
  for (std::size_t m = 0; m < models.size(); ++m) {
    out[m].state_actions = models[m].num_state_actions();
    out[m].stats = policy_iteration(models[m]);
    out[m].loss_fraction = out[m].stats.eval.gain / lambda;
    // Action 0 is "wait"; widths start at action index 1.
    out[m].width_per_state = out[m].stats.policy.choice;
  }
  return out;
}

std::vector<WindowPolicyResult> solve_window_models(
    const WindowSmdpConfig& config, const std::vector<std::size_t>& deadlines) {
  return solve_window_smdps(build_window_smdps(config, deadlines),
                            config.lambda);
}

WindowPolicyResult solve_window_model(const WindowSmdpConfig& config) {
  return std::move(solve_window_models(config, {config.deadline}).front());
}

}  // namespace tcw::smdp
