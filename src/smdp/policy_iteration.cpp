#include "smdp/policy_iteration.hpp"

#include <cmath>
#include <limits>

#include "linalg/lu.hpp"
#include "obs/registry.hpp"
#include "util/contract.hpp"

namespace tcw::smdp {

std::optional<Evaluation> evaluate_policy(const Smdp& model,
                                          const Policy& policy) {
  const std::size_t n = model.num_states();
  TCW_EXPECTS(policy.choice.size() == n);

  // Unknowns x = (v_0, ..., v_{n-2}, g); v_{n-1} pinned to 0.
  // Row i:  v_i - sum_j p_ij v_j + g tau_i = r_i.
  linalg::Matrix a(n, n);
  linalg::Vector b(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const ActionData& act = model.action(i, policy.choice[i]);
    if (i < n - 1) a(i, i) += 1.0;
    for (const Transition& t : act.transitions) {
      if (t.next < n - 1) a(i, t.next) -= t.prob;
    }
    a(i, n - 1) = act.holding;
    b[i] = act.cost;
  }
  const auto x = linalg::solve(a, b);
  if (!x) return std::nullopt;
  Evaluation out;
  out.values.assign(x->begin(), x->end() - 1);
  out.values.push_back(0.0);
  out.gain = x->back();
  return out;
}

namespace {

const obs::Counter& policy_rounds_counter() {
  static const obs::Counter counter =
      obs::Registry::global().counter("smdp.policy_rounds");
  return counter;
}

/// Appendix A test quantity gamma_i^k, written for cost minimization:
/// smaller is better.
double gamma_value(const ActionData& act, const std::vector<double>& v,
                   std::size_t state) {
  double acc = act.cost - v[state];
  for (const Transition& t : act.transitions) acc += t.prob * v[t.next];
  return acc / act.holding;
}

}  // namespace

IterationStats policy_iteration(const Smdp& model,
                                std::optional<Policy> initial,
                                int max_iterations) {
  TCW_EXPECTS(model.validate());
  const std::size_t n = model.num_states();
  IterationStats stats;
  stats.policy = initial.value_or(Policy{std::vector<std::size_t>(n, 0)});
  TCW_EXPECTS(stats.policy.choice.size() == n);

  for (int round = 0; round < max_iterations; ++round) {
    ++stats.iterations;
    const auto eval = evaluate_policy(model, stats.policy);
    ++stats.linear_solves;
    TCW_ASSERT(eval.has_value());
    stats.eval = *eval;

    bool improved = false;
    Policy next = stats.policy;
    for (std::size_t i = 0; i < n; ++i) {
      double best = gamma_value(model.action(i, stats.policy.choice[i]),
                                eval->values, i);
      ++stats.test_quantities;
      for (std::size_t a = 0; a < model.num_actions(i); ++a) {
        if (a == stats.policy.choice[i]) continue;
        const double g = gamma_value(model.action(i, a), eval->values, i);
        ++stats.test_quantities;
        // Strict improvement with a tie tolerance prevents cycling.
        if (g < best - 1e-12) {
          best = g;
          next.choice[i] = a;
          improved = true;
        }
      }
    }
    if (!improved) {
      stats.converged = true;
      break;
    }
    stats.policy = next;
  }
  policy_rounds_counter().add(static_cast<std::uint64_t>(stats.iterations));
  return stats;
}

std::optional<IterationStats> brute_force_optimal(const Smdp& model,
                                                  std::uint64_t max_policies) {
  const std::size_t n = model.num_states();
  std::uint64_t total = 1;
  for (std::size_t i = 0; i < n; ++i) {
    total *= model.num_actions(i);
    if (total > max_policies) return std::nullopt;
  }

  IterationStats best;
  best.eval.gain = std::numeric_limits<double>::infinity();
  Policy p{std::vector<std::size_t>(n, 0)};
  for (std::uint64_t idx = 0; idx < total; ++idx) {
    std::uint64_t rem = idx;
    for (std::size_t i = 0; i < n; ++i) {
      p.choice[i] = rem % model.num_actions(i);
      rem /= model.num_actions(i);
    }
    const auto eval = evaluate_policy(model, p);
    ++best.linear_solves;
    if (!eval) continue;
    if (eval->gain < best.eval.gain) {
      best.eval = *eval;
      best.policy = p;
    }
  }
  best.converged = std::isfinite(best.eval.gain);
  best.iterations = static_cast<int>(total);
  return best;
}

}  // namespace tcw::smdp
