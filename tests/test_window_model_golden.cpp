// Tests of the Section-3 window SMDP's kernel estimation:
//  * the closed-form splitting outcome against a direct simulation of the
//    splitting process (an oracle kept here, not in the library), on
//    random arrival sets and on adversarial near-ties that differ only in
//    the low mantissa bits;
//  * a bit-exact golden table of actions (cost, holding time, transition
//    probabilities) and policy-iteration results, recorded as hex floats
//    from the per-deadline Monte-Carlo builder the shared pass replaced;
//  * the shared multi-deadline pass against one build per deadline, bit
//    for bit, over unsorted and repeated deadlines and a width cap.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

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
      {"small", 12, 1, 1, 0x0p+0, 0x1.472b020c49ba6p+0,
       {{1, 0x1.d2f1a9fbe76c9p-1}, {4, 0x1.50e5604189375p-4},
        {5, 0x1.89374bc6a7efap-11}, {6, 0x1.0624dd2f1a9fcp-9},
        {7, 0x1.70a3d70a3d70ap-10}, {8, 0x1.916872b020c4ap-11},
        {9, 0x1.3f7ced916872bp-12}, {10, 0x1.cac083126e979p-13},
        {11, 0x1.3f7ced916872bp-12}}},
      {"small", 12, 5, 3, 0x1.1205bc01a36e3p-12, 0x1.d883126e978d5p+0,
       {{3, 0x1.7c6a7ef9db22dp-1}, {6, 0x1.c49ba5e353f7dp-3},
        {8, 0x1.4189374bc6a7fp-7}, {9, 0x1.96872b020c49cp-7},
        {10, 0x1.29fbe76c8b439p-8}, {11, 0x1.06a7ef9db22d1p-8},
        {12, 0x1.56872b020c49cp-8}}},
      {"small", 12, 9, 9, 0x1.ed73d3c361154p-7, 0x1.a5a1cac083127p+1,
       {{1, 0x1.9e76c8b439581p-2}, {4, 0x1.6c083126e978dp-2},
        {8, 0x1.6624dd2f1a9fcp-6}, {9, 0x1.03be76c8b4396p-4},
        {10, 0x1.036872b020c4ap-4}, {11, 0x1.75c28f5c28f5cp-8},
        {12, 0x1.5df7ced916873p-4}}},
      {"small", 12, 12, 1, 0x1.d9a0f9096bb6cp-6, 0x1.4916872b020c5p+0,
       {{12, 0x1p+0}}},
      {"small", 12, 12, 6, 0x1.5bf4538ef34cfp-5, 0x1.50189374bc6a8p+1,
       {{7, 0x1.1978d4fdf3b64p-1}, {10, 0x1.4978d4fdf3b64p-2},
        {12, 0x1.072b020c49ba6p-3}}},
      {"small", 12, 12, 12, 0x1.a3f0538ef34f3p-5, 0x1.e0395810624ddp+1,
       {{1, 0x1.45604189374bcp-2}, {4, 0x1.6b020c49ba5e3p-2},
        {8, 0x1.f3b645a1cac08p-9}, {9, 0x1.245a1cac08312p-5},
        {10, 0x1.c28f5c28f5c29p-10}, {11, 0x1.3ef9db22d0e56p-3},
        {12, 0x1.0bd70a3d70a3dp-3}}},
      {"l012", 8, 2, 2, 0x1.13404ea4a8c16p-10, 0x1.e0624dd2f1aap+0,
       {{1, 0x1.94bc6a7ef9db2p-1}, {5, 0x1.820c49ba5e354p-3},
        {7, 0x1.7ced916872b02p-7}, {8, 0x1.3333333333333p-7}}},
      {"l012", 8, 6, 3, 0x1.74997a24894b8p-6, 0x1.26e147ae147aep+1,
       {{4, 0x1.67ae147ae147bp-1}, {8, 0x1.30a3d70a3d70ap-2}}},
      {"l012", 8, 8, 4, 0x1.5ecf56eac8655p-4, 0x1.544189374bc6ap+1,
       {{5, 0x1.416872b020c4ap-1}, {8, 0x1.7d2f1a9fbe76dp-2}}},
      {"l012", 8, 8, 8, 0x1.99551d68c697cp-4, 0x1.fec8b43958106p+1,
       {{1, 0x1.87ae147ae147bp-2}, {5, 0x1.7d70a3d70a3d7p-2},
        {8, 0x1.f5c28f5c28f5cp-3}}},
      {"l012", 12, 2, 2, 0x0p+0, 0x1.e0624dd2f1aap+0,
       {{1, 0x1.94bc6a7ef9db2p-1}, {5, 0x1.820c49ba5e354p-3},
        {7, 0x1.7ced916872b02p-7}, {8, 0x1.020c49ba5e354p-8},
        {9, 0x1.a1cac083126e9p-9}, {10, 0x1.374bc6a7ef9dbp-10},
        {11, 0x1.16872b020c49cp-10}}},
      {"l012", 12, 8, 4, 0x1.6b9ffd60e94f1p-7, 0x1.544189374bc6ap+1,
       {{5, 0x1.416872b020c4ap-1}, {9, 0x1.283126e978d5p-2},
        {12, 0x1.53f7ced916873p-4}}},
      {"l012", 12, 11, 5, 0x1.c3d71758e21b4p-5, 0x1.88p+1,
       {{7, 0x1.18d4fdf3b645ap-1}, {11, 0x1.4a3d70a3d70a4p-2},
        {12, 0x1.083126e978d5p-3}}},
      {"l012", 12, 12, 12, 0x1.bb7ba8826aa8cp-4, 0x1.44083126e978dp+2,
       {{1, 0x1.c3126e978d4fep-3}, {5, 0x1.5ef9db22d0e56p-2},
        {9, 0x1.0a3d70a3d70a4p-8}, {10, 0x1.6872b020c49bap-5},
        {11, 0x1.df3b645a1cac1p-10}, {12, 0x1.8c66666666666p-2}}},
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
      {small_config(), 0x1.d2772a464b0bcp-14, 4,
       {0, 1, 2, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4}},
      {study_like_config(8), 0x1.ed027ab4254cbp-9, 4,
       {0, 0, 2, 3, 4, 4, 4, 4, 7}},
      {study_like_config(12), 0x1.31f29f380e42bp-10, 4,
       {0, 0, 2, 3, 3, 4, 5, 4, 7, 6, 7, 4, 5}},
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

}  // namespace
