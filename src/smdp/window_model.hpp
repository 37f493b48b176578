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
// Each (state, width) pair draws its samples from its own stream, seeded
// from (seed, state, width) alone, and a sample's process outcome does not
// depend on K, so one Monte-Carlo pass builds the models for a whole set
// of deadlines: each sample is drawn once and accumulated into every model
// with K >= i. Each model is bit-identical to building its deadline alone,
// and a width cap or another deadline set leaves a pair's estimate as it
// is. WindowModelPass runs that pass in blocks of pairs on several
// threads, with the same result.
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

/// build_window_smdps in blocks of pairs, so that the Monte-Carlo pass can
/// run on several threads: estimate(b) builds block b from its pairs' own
/// streams, and models() assembles the blocks. The models are bit for bit
/// those of build_window_smdps, for any block count, order or thread.
class WindowModelPass {
 public:
  /// Splits the pairs up to the largest deadline into `blocks` contiguous
  /// blocks of about equal expected work (one per pair if there are fewer
  /// pairs). `config.deadline` is ignored, as in build_window_smdps.
  WindowModelPass(const WindowSmdpConfig& config,
                  std::vector<std::size_t> deadlines, std::size_t blocks);

  std::size_t blocks() const { return block_begin_.size() - 1; }
  /// Estimate the pairs of one block. Distinct blocks may run
  /// concurrently and in any order; each block runs once.
  void estimate(std::size_t block);
  /// One model per deadline, once every block is estimated. Moves the
  /// estimates out, so call it once.
  std::vector<Smdp> models();

 private:
  struct Pair {
    std::size_t state;
    std::size_t width;
  };
  WindowSmdpConfig config_;
  std::vector<std::size_t> deadlines_;
  std::vector<Pair> pairs_;                // by state, then width
  std::vector<std::size_t> block_begin_;   // first pair per block, then end
  std::vector<char> estimated_;            // per block; written by its runner
  // Per pair, one action per deadline (left empty where K < state).
  std::vector<std::vector<ActionData>> actions_;
  bool assembled_ = false;
};

/// The seed of pair (state, width)'s Monte-Carlo stream: a point on the
/// sim::derive_stream_seed plane that depends on nothing else.
std::uint64_t pair_stream_seed(std::uint64_t seed, std::size_t state,
                               std::size_t width);

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

/// Howard policy iteration on every model of build_window_smdps or
/// WindowModelPass::models(), built at arrival rate `lambda`.
std::vector<WindowPolicyResult> solve_window_smdps(
    const std::vector<Smdp>& models, double lambda);

}  // namespace tcw::smdp
