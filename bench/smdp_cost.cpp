// Reproduces the paper's Section 3/4 *computational* claim: using the
// semi-Markov decision model as a performance tool is "too computationally
// expensive to be of practical use". The state space is {0..K} and every
// state offers up to K window widths, so the model has O(K^2) state-action
// pairs, each policy evaluation solves a (K+1)x(K+1) linear system, and
// kernel construction itself needs Monte-Carlo estimation per pair.
// This bench sweeps K and reports model size, wall time for kernel
// construction and policy iteration, and the resulting optimal policy.
// It builds one deadline at a time on purpose: the paper's claim is the
// cost of the model at a given K, so build_ms must time that K alone,
// not its share of build_window_smdps' one pass over every K.
#include <chrono>
#include <cstdio>
#include <iostream>

#include "smdp/policy_iteration.hpp"
#include "smdp/window_model.hpp"
#include "util/csv.hpp"
#include "util/flags.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  bool quick = false;
  long long max_k = 56;
  std::string csv = "smdp_cost.csv";
  tcw::Flags flags("smdp_cost",
                   "Cost of the semi-Markov decision model vs deadline K");
  flags.add("quick", &quick, "smaller K sweep for smoke testing");
  flags.add("max-k", &max_k, "largest deadline K to build");
  flags.add("csv", &csv, "CSV output path");
  if (!flags.parse(argc, argv)) return 1;
  if (quick) max_k = 24;

  using Clock = std::chrono::steady_clock;
  const auto ms_since = [](Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
  };

  std::printf("== SMDP cost sweep (lambda=0.12, M+1=5 slots, MC kernels) "
              "==\n\n");
  tcw::Table table({"K", "states", "state_actions", "build_ms", "solve_ms",
                    "pi_iterations", "linear_solves", "loss_fraction"});

  for (long long k = 8; k <= max_k; k *= 2) {
    tcw::smdp::WindowSmdpConfig cfg;
    cfg.deadline = static_cast<std::size_t>(k);
    cfg.lambda = 0.12;
    cfg.tx_slots = 5;
    cfg.mc_samples = quick ? 2000 : 10000;

    const auto t0 = Clock::now();
    const auto model = tcw::smdp::build_window_smdp(cfg);
    const double build_ms = ms_since(t0);

    const auto t1 = Clock::now();
    const auto stats = tcw::smdp::policy_iteration(model);
    const double solve_ms = ms_since(t1);

    table.add_row({std::to_string(k), std::to_string(model.num_states()),
                   std::to_string(model.num_state_actions()),
                   tcw::format_fixed(build_ms, 1),
                   tcw::format_fixed(solve_ms, 1),
                   std::to_string(stats.iterations),
                   std::to_string(stats.linear_solves),
                   tcw::format_fixed(stats.eval.gain / cfg.lambda, 5)});
  }
  table.write_pretty(std::cout);

  std::printf("\noptimal element-2 widths w*(i) at K=%lld (0 = wait):\n",
              std::min(max_k, 24LL));
  tcw::smdp::WindowSmdpConfig cfg;
  cfg.deadline = static_cast<std::size_t>(std::min(max_k, 24LL));
  cfg.lambda = 0.12;
  cfg.tx_slots = 5;
  cfg.mc_samples = quick ? 2000 : 10000;
  const auto solved = tcw::smdp::solve_window_model(cfg);
  for (std::size_t i = 0; i < solved.width_per_state.size(); ++i) {
    std::printf("  backlog %2zu -> width %zu\n", i,
                solved.width_per_state[i]);
  }
  std::printf("(compare the mid-backlog widths with the static heuristic "
              "nu*/lambda ~ %.1f slots)\n", 1.0884 / cfg.lambda);

  if (!table.save_csv(csv)) return 1;
  std::printf("csv: %s\n", csv.c_str());
  return 0;
}
