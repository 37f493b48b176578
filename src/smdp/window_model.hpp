// The semi-Markov decision model of the controlled window protocol
// (paper Section 3): pseudo-time state space S = {0, 1, ..., K} (slots of
// past time that may still hold untransmitted arrivals; element (4) caps
// the backlog at K), with one decision per state -- the initial window
// width, element (2), the one policy element Theorem 1 leaves open.
// Elements (1) and (3) are fixed at their optimal values inside the
// transition kernel (window at the oldest end, older half first).
//
// The kernel of each (state, width) pair is estimated by Monte Carlo over
// the windowing process (Poisson arrivals, exact splitting dynamics in
// closed form), with probabilistic rounding onto the slot lattice. Costs
// are the expected one-step pseudo losses: lambda times the expected
// backlog overflow past K during the process. Solving the model yields
// both the optimal width table w*(i) and the minimal loss rate -- and
// demonstrates, timed, the computational expense the paper cites for using
// the decision model as a performance tool.
//
// A sample's process outcome does not depend on K, and every deadline
// visits the (state, width) pairs in the same order from the same seed, so
// one Monte-Carlo pass builds the models for a whole set of deadlines: each
// sample is drawn once and accumulated into every model with K >= i. Each
// model is bit-identical to building its deadline alone.
#pragma once

#include <cstdint>
#include <vector>

#include "smdp/policy_iteration.hpp"
#include "smdp/smdp.hpp"

namespace tcw::smdp {

struct WindowSmdpConfig {
  std::size_t deadline = 32;     // K, slots (state space size K+1)
  double lambda = 0.08;          // arrivals per slot
  std::size_t tx_slots = 5;      // transmission + detection slots (M + 1)
  std::size_t max_window = 0;    // cap on widths offered per state; 0 = i
  std::size_t mc_samples = 20000;  // kernel samples per (state, width)
  std::uint64_t seed = 7;
};

/// Build the SMDP. State i offers widths w = 1..min(i, cap) plus, in state
/// 0 (and as a fallback everywhere), the "wait one slot" action.
Smdp build_window_smdp(const WindowSmdpConfig& config);

/// One model per entry of `deadlines` (any order, repeats allowed), from
/// one Monte-Carlo pass; `config.deadline` is ignored. Entry k equals
/// build_window_smdp with `config.deadline = deadlines[k]`, bit for bit.
std::vector<Smdp> build_window_smdps(
    const WindowSmdpConfig& config, const std::vector<std::size_t>& deadlines);

/// Outcome of one windowing process over a unit-width initial window
/// holding two or more arrivals, elements (1) and (3) at their Theorem-1
/// values (oldest window, older half first).
struct ProcessOutcome {
  double probe_slots = 0.0;  // idle/collision probe slots (success slot
                             // is absorbed into the transmission time)
  double resolved = 0.0;     // resolved prefix, fraction of the window
};

/// The process ends at the first dyadic depth d that separates the two
/// oldest arrivals `oldest` < `second`, transmitting the oldest:
/// probe_slots = d and resolved = (floor(oldest * 2^d) + 1) * 2^-d. Both
/// positions lie in [0, 1) on the 2^-53 lattice sim::uniform01 draws.
ProcessOutcome splitting_outcome(double oldest, double second);

struct WindowPolicyResult {
  std::vector<std::size_t> width_per_state;  // chosen w per state (0 = wait)
  double loss_fraction = 0.0;  // gain / lambda: fraction of messages lost
  IterationStats stats;        // policy-iteration cost diagnostics
  std::size_t state_actions = 0;
};

/// Build and solve the model with Howard policy iteration.
WindowPolicyResult solve_window_model(const WindowSmdpConfig& config);

/// solve_window_model for every entry of `deadlines`, built in one pass
/// (build_window_smdps).
std::vector<WindowPolicyResult> solve_window_models(
    const WindowSmdpConfig& config, const std::vector<std::size_t>& deadlines);

}  // namespace tcw::smdp
