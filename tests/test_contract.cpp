#include "util/contract.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <limits>
#include <memory>

#include "analysis/busy_period.hpp"
#include "analysis/loss_model.hpp"
#include "analysis/mg1.hpp"
#include "chan/arrivals.hpp"
#include "dist/families.hpp"
#include "net/aggregate_sim.hpp"
#include "net/network.hpp"

namespace {

namespace analysis = tcw::analysis;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

TEST(Contract, PassingChecksDoNothing) {
  EXPECT_NO_THROW(TCW_EXPECTS(1 + 1 == 2));
  EXPECT_NO_THROW(TCW_ENSURES(true));
  EXPECT_NO_THROW(TCW_ASSERT(42 > 0));
}

TEST(Contract, FailingPreconditionThrows) {
  EXPECT_THROW(TCW_EXPECTS(false), tcw::ContractViolation);
}

TEST(Contract, FailingPostconditionThrows) {
  EXPECT_THROW(TCW_ENSURES(2 < 1), tcw::ContractViolation);
}

TEST(Contract, FailingInvariantThrows) {
  EXPECT_THROW(TCW_ASSERT(false), tcw::ContractViolation);
}

TEST(Contract, MessageNamesKindExpressionAndLocation) {
  try {
    TCW_EXPECTS(1 == 2);
    FAIL() << "should have thrown";
  } catch (const tcw::ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("precondition"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("test_contract.cpp"), std::string::npos);
  }
}

TEST(Contract, AssertLogWritesBreachToStderrWithoutThrowing) {
  testing::internal::CaptureStderr();
  EXPECT_NO_THROW(TCW_ASSERT_LOG(1 == 2));
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("invariant"), std::string::npos) << err;
  EXPECT_NE(err.find("1 == 2"), std::string::npos) << err;
  EXPECT_NE(err.find("test_contract.cpp"), std::string::npos) << err;
}

TEST(Contract, AssertLogIsSilentOnPass) {
  testing::internal::CaptureStderr();
  TCW_ASSERT_LOG(2 > 1);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

TEST(Contract, SideEffectsInConditionRunOnce) {
  int calls = 0;
  const auto bump = [&calls] {
    ++calls;
    return true;
  };
  TCW_ASSERT(bump());
  EXPECT_EQ(calls, 1);
}

// ---------------------------------------------------------------------------
// The analytic layer's time constraint K: a K that is not finite, or whose
// refined lattice no vector can index, is a ContractViolation at every
// entry point, never a silent K = 0 answer.
// ---------------------------------------------------------------------------

TEST(AnalyticContract, NonFiniteOrHugeKRejectedByMg1) {
  const auto s = tcw::dist::deterministic(10);
  const double lambda = 0.05;
  for (const double K : {kInf, kNan, -1.0, 1e300}) {
    EXPECT_THROW(analysis::mg1_waiting_cdf(s, lambda, K),
                 tcw::ContractViolation)
        << K;
    EXPECT_THROW(analysis::mg1_impatient_loss(s, lambda, K),
                 tcw::ContractViolation)
        << K;
    EXPECT_THROW(analysis::lcfs_waiting_cdf(s, lambda, K),
                 tcw::ContractViolation)
        << K;
    EXPECT_THROW(analysis::lcfs_waiting_cdf(s, lambda, K, 100),
                 tcw::ContractViolation)
        << K;
  }
  const std::size_t huge = std::numeric_limits<std::size_t>::max();
  EXPECT_THROW(analysis::accepted_wait_distribution(s, lambda, huge),
               tcw::ContractViolation);
  EXPECT_THROW(analysis::accepted_wait_distribution(s, lambda, huge / 4),
               tcw::ContractViolation);
  EXPECT_THROW(analysis::mg1_waiting_distribution(s, lambda, huge / 2),
               tcw::ContractViolation);
}

TEST(AnalyticContract, NonFiniteOrHugeKRejectedByLossModel) {
  const analysis::ProtocolModelConfig cfg;  // rho' = 0.5: stable baselines
  for (const double K : {kInf, kNan, -1.0, 1e300}) {
    EXPECT_THROW(analysis::controlled_loss_at(cfg, K), tcw::ContractViolation)
        << K;
    EXPECT_THROW(analysis::fcfs_nodiscard_loss(cfg, K),
                 tcw::ContractViolation)
        << K;
    EXPECT_THROW(analysis::lcfs_nodiscard_loss(cfg, K),
                 tcw::ContractViolation)
        << K;
  }
  EXPECT_THROW(analysis::controlled_loss_curve(cfg, {25.0, kInf}),
               tcw::ContractViolation);
}

TEST(AnalyticContract, NanInitialGuessRejected) {
  // A NaN warm start used to survive the clamp: at K = 0 the fixpoint ran
  // every iteration and returned p_loss = NaN.
  const analysis::ProtocolModelConfig cfg;
  for (const double K : {0.0, 50.0}) {
    EXPECT_THROW(analysis::controlled_loss_at(cfg, K, kNan),
                 tcw::ContractViolation)
        << K;
  }
  EXPECT_NO_THROW(analysis::controlled_loss_at(cfg, 50.0, kInf));
}

TEST(AnalyticContract, LargeFiniteKStillEvaluates) {
  // Well inside the lattice bound the limit p -> 0 as K grows holds.
  const analysis::ProtocolModelConfig cfg;
  EXPECT_LT(analysis::controlled_loss_at(cfg, 2000.0).p_loss, 1e-12);
  EXPECT_LT(analysis::fcfs_nodiscard_loss(cfg, 2000.0), 1e-12);
}

// ---------------------------------------------------------------------------
// ProtocolModelConfig: one rejection per knob, at service_distribution and
// at controlled_loss_at.
// ---------------------------------------------------------------------------

void expect_config_rejected(
    const std::function<void(analysis::ProtocolModelConfig&)>& edit) {
  analysis::ProtocolModelConfig cfg;
  edit(cfg);
  EXPECT_THROW(analysis::service_distribution(cfg, 1.0),
               tcw::ContractViolation);
  EXPECT_THROW(analysis::controlled_loss_at(cfg, 50.0),
               tcw::ContractViolation);
}

TEST(AnalyticContract, OfferedLoadMustBeFinitePositive) {
  for (const double v : {kNan, kInf, 0.0, -0.5}) {
    expect_config_rejected([v](auto& c) { c.offered_load = v; });
  }
}

TEST(AnalyticContract, MessageLengthMustBeFinitePositive) {
  for (const double v : {kNan, kInf, 0.0, -25.0}) {
    expect_config_rejected([v](auto& c) { c.message_length = v; });
  }
}

TEST(AnalyticContract, SuccessOverheadMustBeFiniteNonnegative) {
  for (const double v : {kNan, kInf, -1.0}) {
    expect_config_rejected([v](auto& c) { c.success_overhead = v; });
  }
  analysis::ProtocolModelConfig cfg;
  cfg.success_overhead = 0.0;
  EXPECT_NO_THROW(analysis::controlled_loss_at(cfg, 50.0));
}

TEST(AnalyticContract, FixpointToleranceMustBeFinitePositive) {
  // A NaN tolerance used to run every iteration and return unconverged.
  for (const double v : {kNan, kInf, 0.0, -1e-10}) {
    expect_config_rejected([v](auto& c) { c.fixpoint_tol = v; });
  }
}

TEST(AnalyticContract, FixpointNeedsAtLeastOneIteration) {
  // Zero iterations used to return the initial guess unexamined.
  for (const int v : {0, -3}) {
    expect_config_rejected([v](auto& c) { c.fixpoint_max_iters = v; });
  }
}

TEST(AnalyticContract, LatticeRefinementMustBePositive) {
  expect_config_rejected([](auto& c) { c.refine = 0; });
}

// The simulators' quiescent skip counts post-warmup slots from
// ceil(warmup), so warmup must be a finite, nonnegative time.
void expect_aggregate_rejected(
    const std::function<void(tcw::net::AggregateConfig&)>& edit) {
  tcw::net::AggregateConfig cfg;
  edit(cfg);
  EXPECT_THROW(tcw::net::AggregateSimulator(
                   cfg, std::make_unique<tcw::chan::PoissonProcess>(0.01)),
               tcw::ContractViolation);
}

TEST(SimContract, WarmupMustBeFiniteNonnegative) {
  for (const double v : {kNan, kInf, -kInf, -1.0}) {
    expect_aggregate_rejected([v](auto& c) { c.warmup = v; });
    tcw::net::NetworkConfig cfg;
    cfg.warmup = v;
    EXPECT_THROW(tcw::net::Network{cfg}, tcw::ContractViolation);
  }
  tcw::net::AggregateConfig agg;
  agg.warmup = 0.0;
  EXPECT_NO_THROW(tcw::net::AggregateSimulator(
      agg, std::make_unique<tcw::chan::PoissonProcess>(0.01)));
  tcw::net::NetworkConfig net;
  net.warmup = 0.0;
  EXPECT_NO_THROW(tcw::net::Network{net});
}

TEST(SimContract, WaitHistogramMaxMustBeFiniteNonnegative) {
  // A NaN maximum used to fall back silently to 2K.
  for (const bool record : {false, true}) {
    for (const double v : {kNan, kInf, -1.0}) {
      expect_aggregate_rejected([v, record](auto& c) {
        c.record_wait_histogram = record;
        c.wait_hist_max = v;
      });
    }
  }
  tcw::net::AggregateConfig cfg;
  cfg.record_wait_histogram = true;
  cfg.wait_hist_max = 0.0;  // 0 still means 2K
  EXPECT_NO_THROW(tcw::net::AggregateSimulator(
      cfg, std::make_unique<tcw::chan::PoissonProcess>(0.01)));
}

}  // namespace
