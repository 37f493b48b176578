#include "sim/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/contract.hpp"

namespace tcw::sim {

void RunningStats::add(double x) {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStats::add_run(double x, std::uint64_t n) {
  if (n == 0) return;
  RunningStats run;
  run.n_ = n;
  run.mean_ = x;
  run.sum_ = x * static_cast<double>(n);
  run.min_ = x;
  run.max_ = x;
  merge(run);
}

double RunningStats::mean() const { return n_ == 0 ? 0.0 : mean_; }

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::ci95_halfwidth() const {
  if (n_ < 2) return 0.0;
  return 1.959963984540054 * stddev() / std::sqrt(static_cast<double>(n_));
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double n_total = na + nb;
  mean_ += delta * nb / n_total;
  m2_ += other.m2_ + delta * delta * na * nb / n_total;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void RunLengthStats::fold(RunningStats& stats, double x, std::uint64_t n) {
  // NaNs never form a run: one add_run(NaN, n) call folds as n samples,
  // as n add(NaN) calls do (a merge would also poison min and max).
  if (n == 1 || std::isnan(x)) {
    for (std::uint64_t i = 0; i < n; ++i) stats.add(x);
  } else {
    stats.add_run(x, n);
  }
}

RunningStats RunLengthStats::summary() const {
  RunningStats folded = stats_;
  fold(folded, run_x_, run_n_);
  return folded;
}

void TimeWeightedStats::update(double time, double value) {
  TCW_EXPECTS(time >= last_time_);
  if (!started_) {
    start_time_ = last_time_;
    started_ = true;
  }
  weighted_sum_ += value_ * (time - last_time_);
  last_time_ = time;
  value_ = value;
}

double TimeWeightedStats::time_average(double time) const {
  TCW_EXPECTS(time >= last_time_);
  const double begin = started_ ? start_time_ : last_time_;
  const double span = time - begin;
  if (span <= 0.0) return value_;
  return (weighted_sum_ + value_ * (time - last_time_)) / span;
}

double RatioCounter::ci95_halfwidth() const {
  if (total_ < 2) return 0.0;
  const double p = ratio();
  return 1.959963984540054 *
         std::sqrt(std::max(p * (1.0 - p), 0.0) / static_cast<double>(total_));
}

}  // namespace tcw::sim
