#include "smdp/window_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "obs/registry.hpp"
#include "smdp/value_iteration.hpp"
#include "util/contract.hpp"

namespace {

namespace smdp = tcw::smdp;

smdp::WindowSmdpConfig small_config() {
  smdp::WindowSmdpConfig cfg;
  cfg.deadline = 12;
  cfg.lambda = 0.1;
  cfg.tx_slots = 4;
  cfg.mc_samples = 4000;
  cfg.seed = 42;
  return cfg;
}

TEST(WindowSmdp, ModelIsWellFormed) {
  const auto model = smdp::build_window_smdp(small_config());
  EXPECT_EQ(model.num_states(), 13u);
  EXPECT_TRUE(model.validate(1e-6));
  // State 0 only waits; state i offers i windows plus wait.
  EXPECT_EQ(model.num_actions(0), 1u);
  EXPECT_EQ(model.num_actions(5), 6u);
  EXPECT_EQ(model.num_actions(12), 13u);
}

TEST(WindowSmdp, MaxWindowCapRespected) {
  auto cfg = small_config();
  cfg.max_window = 3;
  const auto model = smdp::build_window_smdp(cfg);
  EXPECT_EQ(model.num_actions(12), 4u);  // wait + widths 1..3
}

TEST(WindowSmdp, WaitActionStructure) {
  const auto model = smdp::build_window_smdp(small_config());
  const auto& wait = model.action(3, 0);
  EXPECT_EQ(wait.label, "wait");
  EXPECT_DOUBLE_EQ(wait.holding, 1.0);
  ASSERT_EQ(wait.transitions.size(), 1u);
  EXPECT_EQ(wait.transitions[0].next, 4u);
  EXPECT_DOUBLE_EQ(wait.cost, 0.0);
  // At the deadline boundary waiting sheds one slot of arrivals.
  const auto& edge = model.action(12, 0);
  EXPECT_DOUBLE_EQ(edge.cost, small_config().lambda);
  EXPECT_EQ(edge.transitions[0].next, 12u);
}

TEST(WindowSmdp, KernelIsDeterministicGivenSeed) {
  const auto a = smdp::build_window_smdp(small_config());
  const auto b = smdp::build_window_smdp(small_config());
  for (std::size_t s = 0; s < a.num_states(); ++s) {
    ASSERT_EQ(a.num_actions(s), b.num_actions(s));
    for (std::size_t act = 0; act < a.num_actions(s); ++act) {
      EXPECT_DOUBLE_EQ(a.action(s, act).cost, b.action(s, act).cost);
      EXPECT_DOUBLE_EQ(a.action(s, act).holding, b.action(s, act).holding);
    }
  }
}

TEST(WindowSmdp, SolveProducesSensiblePolicy) {
  const auto result = smdp::solve_window_model(small_config());
  EXPECT_TRUE(result.stats.converged);
  EXPECT_GE(result.loss_fraction, 0.0);
  EXPECT_LE(result.loss_fraction, 1.0);
  // The empty state can only wait.
  EXPECT_EQ(result.width_per_state[0], 0u);
  // With backlog present, some window should be probed somewhere.
  bool probes_somewhere = false;
  for (std::size_t i = 1; i < result.width_per_state.size(); ++i) {
    if (result.width_per_state[i] > 0) probes_somewhere = true;
    EXPECT_LE(result.width_per_state[i], i);
  }
  EXPECT_TRUE(probes_somewhere);
}

TEST(WindowSmdp, HigherLoadLosesMore) {
  auto low = small_config();
  low.lambda = 0.06;
  auto high = small_config();
  high.lambda = 0.2;
  const auto l = smdp::solve_window_model(low);
  const auto h = smdp::solve_window_model(high);
  EXPECT_GE(h.loss_fraction, l.loss_fraction);
}

TEST(WindowSmdp, LongerDeadlineLosesLess) {
  auto short_k = small_config();
  short_k.deadline = 8;
  auto long_k = small_config();
  long_k.deadline = 20;
  const auto s = smdp::solve_window_model(short_k);
  const auto l = smdp::solve_window_model(long_k);
  EXPECT_LE(l.loss_fraction, s.loss_fraction + 0.01);
}

TEST(WindowSmdp, ValueIterationAgreesOnGain) {
  const auto cfg = small_config();
  const auto model = smdp::build_window_smdp(cfg);
  const auto pi = smdp::policy_iteration(model);
  const auto vi = smdp::value_iteration(model, 1e-8, 500000);
  EXPECT_NEAR(vi.gain, pi.eval.gain, 1e-4);
}

TEST(WindowSmdp, StateActionCountGrowsQuadratically) {
  // The "computationally too expensive" observation: (K+1)(K+2)/2 + K
  // state-action pairs, each needing a kernel estimate, and each policy
  // evaluation solving a (K+1)x(K+1) linear system.
  auto cfg = small_config();
  cfg.deadline = 8;
  cfg.mc_samples = 500;
  const auto small_model = smdp::build_window_smdp(cfg);
  cfg.deadline = 16;
  const auto big_model = smdp::build_window_smdp(cfg);
  EXPECT_GT(big_model.num_state_actions(),
            3u * small_model.num_state_actions());
}

TEST(WindowSmdp, InvalidConfigurationRejected) {
  auto cfg = small_config();
  cfg.lambda = 0.0;
  EXPECT_THROW(smdp::build_window_smdp(cfg), tcw::ContractViolation);
  cfg = small_config();
  cfg.mc_samples = 10;
  EXPECT_THROW(smdp::build_window_smdp(cfg), tcw::ContractViolation);
  cfg = small_config();
  cfg.deadline = 0;
  EXPECT_THROW(smdp::build_window_smdp(cfg), tcw::ContractViolation);
}

TEST(WindowSmdp, NonFiniteOrNegativeLambdaRejected) {
  const std::vector<std::size_t> deadlines = {8, 12};
  for (const double lambda : {std::nan(""), HUGE_VAL, -HUGE_VAL, -0.1}) {
    auto cfg = small_config();
    cfg.lambda = lambda;
    EXPECT_THROW(smdp::build_window_smdp(cfg), tcw::ContractViolation)
        << lambda;
    EXPECT_THROW(smdp::build_window_smdps(cfg, deadlines),
                 tcw::ContractViolation)
        << lambda;
    EXPECT_THROW(smdp::solve_window_models(cfg, deadlines),
                 tcw::ContractViolation)
        << lambda;
  }
}

TEST(WindowSmdp, InvalidDeadlineListRejected) {
  const auto cfg = small_config();
  EXPECT_THROW(smdp::build_window_smdps(cfg, {}), tcw::ContractViolation);
  const std::vector<std::size_t> with_zero = {8, 0, 12};
  EXPECT_THROW(smdp::build_window_smdps(cfg, with_zero),
               tcw::ContractViolation);
}

TEST(WindowSmdp, CountersAddOncePerPass) {
  // One pass over deadlines {8, 12} with widths capped at 5 estimates
  // every (i, w) pair up to the largest deadline once:
  // sum_{i=1}^{12} min(i, 5) = 1+2+3+4+5 + 7*5 = 50 pairs.
  auto& registry = tcw::obs::Registry::global();
  const tcw::obs::Counter pairs = registry.counter("smdp.kernel_pairs");
  const tcw::obs::Counter samples = registry.counter("smdp.mc_samples");
  const tcw::obs::Counter rounds = registry.counter("smdp.policy_rounds");
  const std::uint64_t pairs_before = pairs.value();
  const std::uint64_t samples_before = samples.value();
  const std::uint64_t rounds_before = rounds.value();
  auto cfg = small_config();
  cfg.max_window = 5;
  const std::vector<std::size_t> deadlines = {12, 8};
  const auto solved = smdp::solve_window_models(cfg, deadlines);
  EXPECT_EQ(pairs.value() - pairs_before, 50u);
  EXPECT_EQ(samples.value() - samples_before, 50u * cfg.mc_samples);
  std::uint64_t sum = 0;
  for (const auto& r : solved) {
    sum += static_cast<std::uint64_t>(r.stats.iterations);
  }
  EXPECT_GT(sum, 0u);
  EXPECT_EQ(rounds.value() - rounds_before, sum);
}

}  // namespace
