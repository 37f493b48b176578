// google-benchmark microbenchmarks of the library's hot kernels: RNG
// draws, event-queue churn, lattice convolutions, the renewal-function
// series, the busy-period recursion, the splitting recursions, controller probe steps, and end-to-end
// simulated slots per second.
#include <benchmark/benchmark.h>

#include <memory>

#include "analysis/busy_period.hpp"
#include "analysis/loss_model.hpp"
#include "analysis/mg1.hpp"
#include "analysis/splitting.hpp"
#include "chan/arrivals.hpp"
#include "core/controller.hpp"
#include "dist/families.hpp"
#include "net/aggregate_sim.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/sampling.hpp"

namespace {

void BM_Xoshiro(benchmark::State& state) {
  tcw::sim::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng());
  }
}
BENCHMARK(BM_Xoshiro);

void BM_Uniform01(benchmark::State& state) {
  tcw::sim::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tcw::sim::uniform01(rng));
  }
}
BENCHMARK(BM_Uniform01);

void BM_PoissonSample(benchmark::State& state) {
  tcw::sim::Rng rng(1);
  const double mu = static_cast<double>(state.range(0)) / 10.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tcw::sim::poisson(rng, mu));
  }
}
BENCHMARK(BM_PoissonSample)->Arg(5)->Arg(13)->Arg(50);

void BM_EventQueueChurn(benchmark::State& state) {
  tcw::sim::EventQueue q;
  tcw::sim::Rng rng(2);
  const std::size_t depth = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < depth; ++i) {
    q.schedule(tcw::sim::uniform01(rng) * 1e6, [] {});
  }
  double t = 1e6;
  for (auto _ : state) {
    auto e = q.pop();
    benchmark::DoNotOptimize(e);
    q.schedule(t += 0.5, [] {});
  }
}
BENCHMARK(BM_EventQueueChurn)->Arg(64)->Arg(1024)->Arg(16384);

void BM_Convolve(benchmark::State& state) {
  const auto len = static_cast<std::size_t>(state.range(0));
  const auto a = tcw::dist::geometric0(2.0 / static_cast<double>(len));
  for (auto _ : state) {
    benchmark::DoNotOptimize(tcw::dist::Pmf::convolve(a, a, len));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Convolve)->Arg(64)->Arg(256)->Arg(1024)->Complexity();

void BM_RenewalFunction(benchmark::State& state) {
  // Args = {runs, len}. runs = 1: the refined equilibrium beta of Figure
  // 7's FCFS service (rho' = 0.5, M = 25): 256 sub-cells in 39 runs of
  // equal values. runs = 0: a run-free beta, the same cells perturbed so
  // that no two neighbours are equal (one run per cell).
  tcw::analysis::ProtocolModelConfig cfg;
  cfg.offered_load = 0.5;
  cfg.message_length = 25.0;
  const auto service = tcw::analysis::service_distribution(
      cfg, tcw::analysis::optimal_window_load());
  auto beta = tcw::analysis::refined_equilibrium(service, cfg.refine);
  if (state.range(0) == 0) {
    for (std::size_t j = 0; j < beta.size(); ++j) {
      beta[j] *= 1.0 + 1e-3 * static_cast<double>(j % 7);
    }
  }
  const double rho = tcw::analysis::offered_intensity(service, cfg.lambda());
  const auto len = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(tcw::analysis::renewal_function(beta, rho, len));
  }
}
BENCHMARK(BM_RenewalFunction)
    ->ArgNames({"runs", "len"})
    ->Args({1, 256})
    ->Args({1, 1024})
    ->Args({1, 4096})
    ->Args({0, 256})
    ->Args({0, 1024})
    ->Args({0, 4096});

void BM_BusyPeriod(benchmark::State& state) {
  // Args = {det, busy-period length}. det = 0: the geometric-shifted
  // service of Figure 7's LCFS baseline (rho' = 0.5, M = 25); det = 10:
  // deterministic(10) at rho = 0.5.
  tcw::analysis::ProtocolModelConfig cfg;
  cfg.offered_load = 0.5;
  cfg.message_length = 25.0;
  const bool figure7 = state.range(0) == 0;
  const auto service =
      figure7 ? tcw::analysis::service_distribution(
                    cfg, tcw::analysis::optimal_window_load())
              : tcw::dist::deterministic(10);
  const double lambda = figure7 ? cfg.lambda() : 0.05;
  const auto len = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tcw::analysis::busy_period_distribution(service, lambda, len));
  }
}
BENCHMARK(BM_BusyPeriod)
    ->ArgNames({"det", "len"})
    ->Args({0, 400})
    ->Args({10, 2000});

void BM_ImpatientLoss(benchmark::State& state) {
  const auto service = tcw::dist::deterministic(26);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tcw::analysis::mg1_impatient_loss(service, 0.02,
                                          static_cast<double>(state.range(0))));
  }
}
BENCHMARK(BM_ImpatientLoss)->Arg(50)->Arg(200)->Arg(800);

void BM_SplitProbesRecursion(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(tcw::analysis::expected_split_probes(n));
  }
}
BENCHMARK(BM_SplitProbesRecursion)->Arg(16)->Arg(64);

void BM_ControllerProbeLoop(benchmark::State& state) {
  // Idle-heavy probe loop: the controller's own bookkeeping cost.
  auto policy = tcw::core::ControlPolicy::optimal(1e12, 10.0);
  tcw::core::WindowController ctrl(policy);
  double now = 10.0;
  for (auto _ : state) {
    const auto w = ctrl.next_probe(now);
    benchmark::DoNotOptimize(w);
    if (w) ctrl.on_feedback(tcw::core::Feedback::Idle);
    now += 1.0;
  }
}
BENCHMARK(BM_ControllerProbeLoop);

void BM_AggregateSimSlots(benchmark::State& state) {
  // End-to-end simulated slots per wall second at rho' = 0.5, M = 25.
  for (auto _ : state) {
    tcw::net::AggregateConfig cfg;
    cfg.policy = tcw::core::ControlPolicy::optimal(75.0, 54.0);
    cfg.message_length = 25.0;
    cfg.t_end = 20000.0;
    cfg.warmup = 1000.0;
    cfg.seed = 3;
    tcw::net::AggregateSimulator sim(
        cfg, std::make_unique<tcw::chan::PoissonProcess>(0.02));
    benchmark::DoNotOptimize(sim.run().delivered);
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_AggregateSimSlots);

}  // namespace

BENCHMARK_MAIN();
