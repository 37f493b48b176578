// Streaming summary statistics.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

namespace tcw::sim {

/// Welford's online mean/variance accumulator.
class RunningStats {
 public:
  void add(double x);
  /// Add `n` samples equal to `x` in O(1): the parallel-Welford merge of
  /// an accumulator holding them (its m2 is 0). Rounds differently from
  /// n calls to add(x).
  void add_run(double x, std::uint64_t n);

  std::uint64_t count() const { return n_; }
  double mean() const;
  /// Unbiased sample variance (n-1 denominator); 0 for n < 2.
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return sum_; }

  /// Half-width of the normal-approximation 95% confidence interval.
  double ci95_halfwidth() const;

  /// Merge another accumulator (parallel Welford combination).
  void merge(const RunningStats& other);

  void reset() { *this = RunningStats{}; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// A RunningStats fed through a one-run buffer: consecutive samples with
/// the same bit pattern coalesce into one run, folded by a single
/// RunningStats::add_run (by add when the run has one sample). The state
/// depends only on the sequence of values, never on how it was batched
/// into add/add_run calls, so a kernel that records n equal samples at
/// once matches one that records them one by one, bit for bit. -0.0 and
/// +0.0 never coalesce, nor do NaNs, so a stream without repeats folds
/// exactly as plain RunningStats::add calls do.
class RunLengthStats {
 public:
  void add(double x) { add_run(x, 1); }
  void add_run(double x, std::uint64_t n) {
    if (n == 0) return;
    if (run_n_ != 0 && !std::isnan(x) &&
        std::bit_cast<std::uint64_t>(x) ==
            std::bit_cast<std::uint64_t>(run_x_)) {
      run_n_ += n;
      return;
    }
    fold(stats_, run_x_, run_n_);
    run_x_ = x;
    run_n_ = n;
  }

  /// Every sample so far, the pending run folded in.
  RunningStats summary() const;
  std::uint64_t count() const { return stats_.count() + run_n_; }
  double mean() const { return summary().mean(); }

 private:
  static void fold(RunningStats& stats, double x, std::uint64_t n);

  RunningStats stats_;
  double run_x_ = 0.0;
  std::uint64_t run_n_ = 0;
};

/// Time-weighted average of a piecewise-constant signal, e.g. queue length.
class TimeWeightedStats {
 public:
  explicit TimeWeightedStats(double start_time = 0.0)
      : last_time_(start_time) {}

  /// Record that the signal changed to `value` at `time` (>= last time).
  void update(double time, double value);

  /// Close the window at `time` and return the time average so far.
  double time_average(double time) const;

  double current_value() const { return value_; }

 private:
  double last_time_;
  double value_ = 0.0;
  double weighted_sum_ = 0.0;
  double start_time_ = 0.0;
  bool started_ = false;
};

/// Ratio counter with exact integer numerator/denominator (e.g. losses/arrivals).
class RatioCounter {
 public:
  void add(bool hit) {
    ++total_;
    if (hit) ++hits_;
  }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t total() const { return total_; }
  double ratio() const {
    return total_ == 0 ? 0.0 : static_cast<double>(hits_) / static_cast<double>(total_);
  }
  /// Normal-approximation 95% CI half-width for the proportion.
  double ci95_halfwidth() const;

 private:
  std::uint64_t hits_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace tcw::sim
