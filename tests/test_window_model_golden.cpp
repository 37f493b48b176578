// Tests of the Section-3 window SMDP's kernel estimation:
//  * the closed-form splitting outcome against a direct simulation of the
//    splitting process (an oracle kept here, not in the library), on
//    random arrival sets and on adversarial near-ties that differ only in
//    the low mantissa bits;
//  * a bit-exact golden table of actions (cost, holding time, transition
//    probabilities) and policy-iteration results, recorded as hex floats
//    from the per-pair streams;
//  * the shared multi-deadline pass against one build per deadline, bit
//    for bit, over unsorted and repeated deadlines and a width cap, and
//    each pair's estimate unmoved by the deadline set or the cap;
//  * WindowModelPass (the pass in blocks) against the one-call pass for
//    every block count, in any block order and on concurrent threads,
//    plus its stage-order contracts.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/registry.hpp"
#include "sim/rng.hpp"
#include "sim/sampling.hpp"
#include "smdp/policy_iteration.hpp"
#include "smdp/window_model.hpp"
#include "util/contract.hpp"

namespace {

namespace smdp = tcw::smdp;
namespace sim = tcw::sim;

std::string hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

void expect_bits(double got, double want, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
            std::bit_cast<std::uint64_t>(want))
      << what << ": got " << hex(got) << ", golden " << hex(want);
}

void expect_same_action(const smdp::ActionData& got,
                        const smdp::ActionData& want, const std::string& what) {
  EXPECT_EQ(got.label, want.label) << what;
  expect_bits(got.cost, want.cost, what + " cost");
  expect_bits(got.holding, want.holding, what + " holding");
  ASSERT_EQ(got.transitions.size(), want.transitions.size()) << what;
  for (std::size_t t = 0; t < got.transitions.size(); ++t) {
    EXPECT_EQ(got.transitions[t].next, want.transitions[t].next) << what;
    expect_bits(got.transitions[t].prob, want.transitions[t].prob,
                what + " p[" + std::to_string(t) + "]");
  }
}

void expect_same_model(const smdp::Smdp& got, const smdp::Smdp& want,
                       const std::string& what) {
  ASSERT_EQ(got.num_states(), want.num_states()) << what;
  for (std::size_t s = 0; s < got.num_states(); ++s) {
    ASSERT_EQ(got.num_actions(s), want.num_actions(s)) << what;
    for (std::size_t a = 0; a < got.num_actions(s); ++a) {
      expect_same_action(got.action(s, a), want.action(s, a),
                         what + " (" + std::to_string(s) + ", " +
                             std::to_string(a) + ")");
    }
  }
}

// ---------------------------------------------------------------------------
// Oracle: the splitting process simulated probe by probe over a unit-width
// initial window holding the given sorted arrival positions, older half
// first. Probe slots exclude the success slot.

smdp::ProcessOutcome simulate_process(const std::vector<double>& pos) {
  const auto count_in = [&pos](double lo, double hi) {
    const auto first = std::lower_bound(pos.begin(), pos.end(), lo);
    const auto last = std::lower_bound(pos.begin(), pos.end(), hi);
    return static_cast<std::size_t>(last - first);
  };
  std::vector<std::pair<double, double>> pending;
  double lo = 0.0;
  double hi = 1.0;
  std::size_t probes = 0;
  while (true) {
    ++probes;
    const std::size_t n = count_in(lo, hi);
    if (n == 1) return {static_cast<double>(probes - 1), hi};
    if (n == 0) {
      // Sibling known to hold >= 2 arrivals: split it immediately.
      const auto sib = pending.back();
      pending.pop_back();
      const double mid = (sib.first + sib.second) / 2.0;
      pending.emplace_back(mid, sib.second);
      lo = sib.first;
      hi = mid;
    } else {
      const double mid = (lo + hi) / 2.0;
      pending.emplace_back(mid, hi);
      hi = mid;
    }
  }
}

void expect_matches_oracle(std::vector<double> pos) {
  std::sort(pos.begin(), pos.end());
  ASSERT_LT(pos[0], pos[1]);
  const auto want = simulate_process(pos);
  const auto got = smdp::splitting_outcome(pos[0], pos[1]);
  const std::string what = "p0=" + hex(pos[0]) + " p1=" + hex(pos[1]);
  expect_bits(got.probe_slots, want.probe_slots, what + " probe_slots");
  expect_bits(got.resolved, want.resolved, what + " resolved");
}

TEST(SplittingOutcome, ClosedFormMatchesSimulatedProcess) {
  sim::Rng rng(20261983);
  std::vector<double> pos;
  for (int set = 0; set < 100000; ++set) {
    const auto n = 2 + sim::uniform_index(rng, 63);  // n in [2, 64]
    pos.clear();
    for (std::uint64_t j = 0; j < n; ++j) pos.push_back(sim::uniform01(rng));
    std::sort(pos.begin(), pos.end());
    if (pos[0] == pos[1]) continue;
    expect_matches_oracle(pos);
    if (HasFailure()) return;
  }
}

TEST(SplittingOutcome, NearTiesDifferingInLowMantissaBits) {
  // The two oldest differ in one of their four lowest mantissa bits, so
  // the process runs to depth 50..53. Younger arrivals crowd in just
  // above them.
  sim::Rng rng(7);
  for (int set = 0; set < 20000; ++set) {
    const std::uint64_t base = rng() >> 11;
    const std::uint64_t low_bit = std::uint64_t{1}
                                  << sim::uniform_index(rng, 4);
    const std::uint64_t m0 = base & ~low_bit;
    const std::uint64_t m1 = base | low_bit;
    std::vector<double> pos = {static_cast<double>(m0) * 0x1.0p-53,
                               static_cast<double>(m1) * 0x1.0p-53};
    const auto extra = sim::uniform_index(rng, 63);
    for (std::uint64_t j = 0; j < extra; ++j) {
      const auto m = std::min<std::uint64_t>(
          m1 + sim::uniform_index(rng, 64), (std::uint64_t{1} << 53) - 1);
      pos.push_back(static_cast<double>(m) * 0x1.0p-53);
    }
    expect_matches_oracle(pos);
    if (HasFailure()) return;
  }
  // The extremes of the lattice.
  expect_matches_oracle({0.0, 0x1.0p-53});
  expect_matches_oracle({1.0 - 0x1.0p-52, 1.0 - 0x1.0p-53});
  expect_matches_oracle({0.5 - 0x1.0p-53, 0.5});
  expect_matches_oracle({0.0, 1.0 - 0x1.0p-53});
}

TEST(SplittingOutcome, TieIsAContractViolation) {
  EXPECT_THROW(smdp::splitting_outcome(0.25, 0.25), tcw::ContractViolation);
  EXPECT_THROW(smdp::splitting_outcome(0.5, 0.25), tcw::ContractViolation);
  EXPECT_THROW(smdp::splitting_outcome(-0.25, 0.25), tcw::ContractViolation);
  EXPECT_THROW(smdp::splitting_outcome(0.25, 1.0), tcw::ContractViolation);
}

// ---------------------------------------------------------------------------
// Golden table.

smdp::WindowSmdpConfig small_config() {
  smdp::WindowSmdpConfig cfg;
  cfg.deadline = 12;
  cfg.lambda = 0.1;
  cfg.tx_slots = 4;
  cfg.mc_samples = 4000;
  cfg.seed = 42;
  return cfg;
}

smdp::WindowSmdpConfig study_like_config(std::size_t deadline) {
  smdp::WindowSmdpConfig cfg;
  cfg.deadline = deadline;
  cfg.lambda = 0.12;
  cfg.tx_slots = 5;
  cfg.mc_samples = 4000;
  cfg.seed = 7;
  return cfg;
}

struct ActionGolden {
  const char* config;  // "small" or "l012" (study_like_config)
  std::size_t deadline;
  std::size_t state;
  std::size_t action;  // 0 = wait, w = width w
  double cost;
  double holding;
  std::vector<smdp::Transition> transitions;
};

const std::vector<ActionGolden>& action_golden() {
  static const std::vector<ActionGolden> table = {
      {"small", 12, 1, 1, 0x0p+0, 0x1.48a3d70a3d70ap+0,
       {{1, 0x1.d16872b020c4ap-1}, {4, 0x1.604189374bc6ap-4},
        {5, 0x1.47ae147ae147bp-10}, {6, 0x1.ba5e353f7ced9p-10},
        {7, 0x1.78d4fdf3b645ap-11}, {8, 0x1.604189374bc6ap-11},
        {9, 0x1.ba5e353f7ced9p-12}, {10, 0x1.1eb851eb851ecp-13},
        {11, 0x1.db22d0e560419p-14}}},
      {"small", 12, 5, 3, 0x1.0985f06f69447p-11, 0x1.d99999999999ap+0,
       {{3, 0x1.7ba5e353f7ceep-1}, {6, 0x1.c395810624dd3p-3},
        {8, 0x1.5a1cac083126fp-7}, {9, 0x1.ac083126e978dp-7},
        {10, 0x1.a7ef9db22d0e5p-8}, {11, 0x1.a1cac083126e9p-9},
        {12, 0x1.353f7ced91687p-8}}},
      {"small", 12, 9, 9, 0x1.d6fe5c91d14f9p-7, 0x1.9a3d70a3d70a4p+1,
       {{1, 0x1.ac8b439581062p-2}, {4, 0x1.75c28f5c28f5cp-2},
        {8, 0x1.47ef9db22d0e5p-6}, {9, 0x1.d6e978d4fdf3bp-5},
        {10, 0x1.cc4189374bc6ap-5}, {11, 0x1.4c8b439581062p-8},
        {12, 0x1.3e6e978d4fdf4p-4}}},
      {"small", 12, 12, 1, 0x1.d1ed288ce700dp-6, 0x1.4851eb851eb85p+0,
       {{12, 0x1p+0}}},
      {"small", 12, 12, 6, 0x1.419b3d07c84b8p-5, 0x1.4dc28f5c28f5cp+1,
       {{7, 0x1.19fbe76c8b439p-1}, {10, 0x1.4d0e560418937p-2},
        {12, 0x1.fbe76c8b43958p-4}}},
      {"small", 12, 12, 12, 0x1.b65ce075f7p-5, 0x1.e6c083126e979p+1,
       {{1, 0x1.3645a1cac0831p-2}, {4, 0x1.6fdf3b645a1cbp-2},
        {8, 0x1.2f1a9fbe76c8bp-8}, {9, 0x1.272b020c49ba6p-5},
        {10, 0x1.810624dd2f1aap-10}, {11, 0x1.4066666666666p-3},
        {12, 0x1.1d0a3d70a3d71p-3}}},
      {"l012", 8, 2, 2, 0x1.044a6223e1866p-9, 0x1.e9cac083126e9p+0,
       {{1, 0x1.926e978d4fdf4p-1}, {5, 0x1.7a5e353f7ced9p-3},
        {7, 0x1.126e978d4fdf4p-6}, {8, 0x1.999999999999ap-7}}},
      {"l012", 8, 6, 3, 0x1.431fddebd900dp-6, 0x1.27b645a1cac08p+1,
       {{4, 0x1.647ae147ae148p-1}, {8, 0x1.370a3d70a3d71p-2}}},
      {"l012", 8, 8, 4, 0x1.637a786c226dep-4, 0x1.5ce5604189375p+1,
       {{5, 0x1.378d4fdf3b646p-1}, {8, 0x1.90e5604189375p-2}}},
      {"l012", 8, 8, 8, 0x1.ae945a1cac0d3p-4, 0x1.035810624dd2fp+2,
       {{1, 0x1.8p-2}, {5, 0x1.7b645a1cac083p-2}, {8, 0x1.049ba5e353f7dp-2}}},
      {"l012", 12, 2, 2, 0x1.8e219652bd3c4p-14, 0x1.e9cac083126e9p+0,
       {{1, 0x1.926e978d4fdf4p-1}, {5, 0x1.7a5e353f7ced9p-3},
        {7, 0x1.126e978d4fdf4p-6}, {8, 0x1.374bc6a7ef9dbp-8},
        {9, 0x1.df3b645a1cac1p-9}, {10, 0x1.4395810624dd3p-10},
        {11, 0x1.d916872b020c5p-10}, {12, 0x1.147ae147ae148p-10}}},
      {"l012", 12, 8, 4, 0x1.62c5197a24899p-7, 0x1.5ce5604189375p+1,
       {{5, 0x1.378d4fdf3b646p-1}, {9, 0x1.3e76c8b439581p-2},
        {12, 0x1.49ba5e353f7cfp-4}}},
      {"l012", 12, 11, 5, 0x1.c92987e7c06f9p-5, 0x1.8ee978d4fdf3bp+1,
       {{7, 0x1.128f5c28f5c29p-1}, {11, 0x1.5cac083126e98p-2},
        {12, 0x1.f8d4fdf3b645ap-4}}},
      {"l012", 12, 12, 12, 0x1.b22a5f84cad62p-4, 0x1.3f916872b020cp+2,
       {{1, 0x1.d4fdf3b645a1dp-3}, {5, 0x1.6189374bc6a7fp-2},
        {9, 0x1.604189374bc6ap-8}, {10, 0x1.6083126e978d5p-5},
        {11, 0x1.9fbe76c8b4396p-9}, {12, 0x1.7f26e978d4fdfp-2}}},
  };
  return table;
}

smdp::WindowSmdpConfig golden_config(const ActionGolden& g) {
  return std::string(g.config) == "small" ? small_config()
                                          : study_like_config(g.deadline);
}

TEST(WindowSmdpGolden, ActionsMatchRecordedKernel) {
  for (const ActionGolden& g : action_golden()) {
    const auto model = smdp::build_window_smdp(golden_config(g));
    const std::string what = std::string(g.config) + " K=" +
                             std::to_string(g.deadline) + " (" +
                             std::to_string(g.state) + ", w=" +
                             std::to_string(g.action) + ")";
    const auto& act = model.action(g.state, g.action);
    expect_bits(act.cost, g.cost, what + " cost");
    expect_bits(act.holding, g.holding, what + " holding");
    ASSERT_EQ(act.transitions.size(), g.transitions.size()) << what;
    for (std::size_t t = 0; t < act.transitions.size(); ++t) {
      EXPECT_EQ(act.transitions[t].next, g.transitions[t].next) << what;
      expect_bits(act.transitions[t].prob, g.transitions[t].prob,
                  what + " p[" + std::to_string(t) + "]");
    }
  }
}

struct SolveGolden {
  smdp::WindowSmdpConfig config;
  double gain;
  int iterations;
  std::vector<std::size_t> widths;
};

TEST(WindowSmdpGolden, PolicyIterationMatchesRecordedSolve) {
  const std::vector<SolveGolden> table = {
      {small_config(), 0x1.afb0410740dd5p-14, 5,
       {0, 1, 2, 2, 3, 4, 3, 4, 5, 5, 3, 3, 4}},
      {study_like_config(8), 0x1.e57e5b8271293p-9, 4,
       {0, 1, 2, 3, 4, 5, 4, 6, 6}},
      {study_like_config(12), 0x1.44df380723505p-10, 4,
       {0, 1, 2, 3, 4, 5, 4, 6, 6, 6, 9, 10, 6}},
  };
  for (const SolveGolden& g : table) {
    const auto solved = smdp::solve_window_model(g.config);
    const std::string what = "K=" + std::to_string(g.config.deadline);
    expect_bits(solved.stats.eval.gain, g.gain, what + " gain");
    expect_bits(solved.loss_fraction, g.gain / g.config.lambda,
                what + " loss_fraction");
    EXPECT_EQ(solved.stats.iterations, g.iterations) << what;
    EXPECT_EQ(solved.width_per_state, g.widths) << what;
  }
}

// ---------------------------------------------------------------------------
// Shared multi-deadline pass.

TEST(WindowSmdpShared, PassEqualsOneBuildPerDeadline) {
  for (const std::size_t cap : {std::size_t{0}, std::size_t{5}}) {
    auto cfg = study_like_config(0);
    cfg.max_window = cap;
    cfg.mc_samples = 1000;
    const std::vector<std::size_t> deadlines = {16, 8, 12, 8, 1};
    const auto models = smdp::build_window_smdps(cfg, deadlines);
    ASSERT_EQ(models.size(), deadlines.size());
    for (std::size_t d = 0; d < deadlines.size(); ++d) {
      cfg.deadline = deadlines[d];
      expect_same_model(models[d], smdp::build_window_smdp(cfg),
                        "cap=" + std::to_string(cap) +
                            " K=" + std::to_string(deadlines[d]));
    }
  }
}

TEST(WindowSmdpShared, SolvesEqualOneSolvePerDeadline) {
  auto cfg = study_like_config(0);
  const std::vector<std::size_t> deadlines = {12, 8, 12};
  const auto solved = smdp::solve_window_models(cfg, deadlines);
  ASSERT_EQ(solved.size(), deadlines.size());
  for (std::size_t d = 0; d < deadlines.size(); ++d) {
    cfg.deadline = deadlines[d];
    const auto one = smdp::solve_window_model(cfg);
    const std::string what = "K=" + std::to_string(deadlines[d]);
    expect_bits(solved[d].stats.eval.gain, one.stats.eval.gain, what);
    expect_bits(solved[d].loss_fraction, one.loss_fraction, what);
    EXPECT_EQ(solved[d].width_per_state, one.width_per_state) << what;
    EXPECT_EQ(solved[d].state_actions, one.state_actions) << what;
    EXPECT_EQ(solved[d].stats.iterations, one.stats.iterations) << what;
  }
}

TEST(WindowModelPass, PairEstimateIgnoresDeadlinesAndCap) {
  // Every pair reads its own stream, so neither a longer deadline in the
  // same pass nor a width cap that drops other pairs moves it.
  auto cfg = study_like_config(0);
  cfg.mc_samples = 1000;
  const smdp::Smdp alone = smdp::build_window_smdps(cfg, {8}).front();
  const auto longer = smdp::build_window_smdps(cfg, {16, 8});
  cfg.max_window = 5;
  const auto capped = smdp::build_window_smdps(cfg, {16, 8});
  for (std::size_t i = 1; i <= 8; ++i) {
    for (std::size_t w = 1; w <= i; ++w) {
      // Appended: GCC 12 at -O3 reports a false-positive -Wrestrict on
      // "literal" + std::to_string(...).
      std::string what = "(";
      what += std::to_string(i) + ", w=" + std::to_string(w) + ")";
      expect_same_action(longer[1].action(i, w), alone.action(i, w),
                         what + " beside K=16");
      if (w > cfg.max_window) continue;
      expect_same_action(capped[1].action(i, w), alone.action(i, w),
                         what + " capped at 5");
    }
  }
}

// ---------------------------------------------------------------------------
// The pass in blocks.

TEST(WindowModelPass, EveryBlockCountEqualsOnePass) {
  for (const std::size_t cap : {std::size_t{0}, std::size_t{5}}) {
    auto cfg = study_like_config(0);
    cfg.max_window = cap;
    cfg.mc_samples = 1000;
    const std::vector<std::size_t> deadlines = {16, 8, 12, 8, 1};
    const auto want = smdp::build_window_smdps(cfg, deadlines);
    for (const std::size_t blocks :
         std::vector<std::size_t>{1, 2, 3, 7, 64, 1000}) {
      smdp::WindowModelPass pass(cfg, deadlines, blocks);
      // Last block first: a block depends only on its own pairs.
      for (std::size_t b = pass.blocks(); b-- > 0;) pass.estimate(b);
      const auto got = pass.models();
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t d = 0; d < deadlines.size(); ++d) {
        expect_same_model(got[d], want[d],
                          "cap=" + std::to_string(cap) + " blocks=" +
                              std::to_string(blocks) +
                              " K=" + std::to_string(deadlines[d]));
      }
    }
  }
}

TEST(WindowModelPass, ConcurrentBlocksEqualOnePass) {
  auto cfg = study_like_config(0);
  cfg.mc_samples = 1000;
  const std::vector<std::size_t> deadlines = {12, 16, 24};
  const auto want = smdp::build_window_smdps(cfg, deadlines);
  smdp::WindowModelPass pass(cfg, deadlines, 8);
  ASSERT_EQ(pass.blocks(), 8u);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&pass, t] {
      for (std::size_t b = t; b < pass.blocks(); b += 4) pass.estimate(b);
    });
  }
  for (auto& th : threads) th.join();
  const auto got = pass.models();
  for (std::size_t d = 0; d < deadlines.size(); ++d) {
    expect_same_model(got[d], want[d], "K=" + std::to_string(deadlines[d]));
  }
}

TEST(WindowModelPass, BlocksBalanceWorkAndNeverExceedPairs) {
  auto cfg = study_like_config(0);
  // K = 2 has pairs (1,1), (2,1), (2,2).
  EXPECT_EQ(smdp::WindowModelPass(cfg, {2}, 10).blocks(), 3u);
  EXPECT_EQ(smdp::WindowModelPass(cfg, {2}, 3).blocks(), 3u);
  EXPECT_EQ(smdp::WindowModelPass(cfg, {48}, 8).blocks(), 8u);
  EXPECT_THROW(smdp::WindowModelPass(cfg, {2}, 0), tcw::ContractViolation);
}

TEST(WindowModelPass, StagesRunInOrderAndOnce) {
  auto cfg = study_like_config(0);
  cfg.mc_samples = 100;
  smdp::WindowModelPass pass(cfg, {4}, 2);
  EXPECT_THROW(pass.estimate(2), tcw::ContractViolation);  // no such block
  pass.estimate(1);
  EXPECT_THROW(pass.estimate(1), tcw::ContractViolation);
  EXPECT_THROW(pass.models(), tcw::ContractViolation);  // block 0 missing
  pass.estimate(0);
  EXPECT_EQ(pass.models().size(), 1u);
  EXPECT_THROW(pass.models(), tcw::ContractViolation);  // moved out
}

TEST(WindowModelPass, CountersAddOncePerPassForAnyBlockCount) {
  auto& registry = tcw::obs::Registry::global();
  const tcw::obs::Counter pairs = registry.counter("smdp.kernel_pairs");
  const tcw::obs::Counter samples = registry.counter("smdp.mc_samples");
  auto cfg = study_like_config(0);
  cfg.mc_samples = 100;
  cfg.max_window = 5;
  const std::uint64_t pairs_before = pairs.value();
  const std::uint64_t samples_before = samples.value();
  smdp::WindowModelPass pass(cfg, {12, 8}, 4);
  for (std::size_t b = 0; b < pass.blocks(); ++b) pass.estimate(b);
  // sum_{i=1}^{12} min(i, 5) = 50 pairs, as in one build_window_smdps.
  EXPECT_EQ(pairs.value() - pairs_before, 50u);
  EXPECT_EQ(samples.value() - samples_before, 50u * cfg.mc_samples);
}

}  // namespace
