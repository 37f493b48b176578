#include "util/interval_set.hpp"

#include <algorithm>

#include "util/contract.hpp"

namespace tcw {

namespace {
// First part whose hi > x (i.e. the part containing or after x).
std::vector<Interval>::const_iterator lower_part(
    const std::vector<Interval>& parts, double x) {
  return std::lower_bound(
      parts.begin(), parts.end(), x,
      [](const Interval& p, double v) { return p.hi <= v; });
}
}  // namespace

void IntervalSet::insert(double lo, double hi) {
  TCW_EXPECTS(lo <= hi);
  if (lo == hi) return;
  // Find all parts overlapping or touching [lo, hi) and merge them.
  auto first = std::lower_bound(
      parts_.begin(), parts_.end(), lo,
      [](const Interval& p, double v) { return p.hi < v; });
  auto last = first;
  while (last != parts_.end() && last->lo <= hi) {
    lo = std::min(lo, last->lo);
    hi = std::max(hi, last->hi);
    ++last;
  }
  const auto pos = parts_.erase(first, last);
  parts_.insert(pos, Interval{lo, hi});
}

void IntervalSet::erase(double lo, double hi) {
  TCW_EXPECTS(lo <= hi);
  if (lo == hi) return;
  std::vector<Interval> out;
  out.reserve(parts_.size() + 1);
  for (const Interval& p : parts_) {
    if (p.hi <= lo || p.lo >= hi) {
      out.push_back(p);
      continue;
    }
    if (p.lo < lo) out.push_back(Interval{p.lo, lo});
    if (p.hi > hi) out.push_back(Interval{hi, p.hi});
  }
  parts_ = std::move(out);
}

void IntervalSet::erase_below(double x) {
  // Drop the parts wholly below x, then trim the one straddling it; every
  // later part already starts above x. In place: no allocation.
  parts_.erase(parts_.begin(), lower_part(parts_, x));
  if (!parts_.empty()) parts_.front().lo = std::max(parts_.front().lo, x);
}

bool IntervalSet::contains(double x) const {
  const auto it = lower_part(parts_, x);
  return it != parts_.end() && it->contains(x);
}

double IntervalSet::measure(double lo, double hi) const {
  if (hi <= lo) return 0.0;
  double total = 0.0;
  for (auto it = lower_part(parts_, lo); it != parts_.end() && it->lo < hi;
       ++it) {
    total += std::max(0.0, std::min(hi, it->hi) - std::max(lo, it->lo));
  }
  return total;
}

double IntervalSet::total_measure() const {
  double total = 0.0;
  for (const Interval& p : parts_) total += p.length();
  return total;
}

double IntervalSet::first_uncovered(double x) const {
  auto it = lower_part(parts_, x);
  while (it != parts_.end() && it->contains(x)) {
    x = it->hi;
    ++it;
  }
  return x;
}

std::optional<double> IntervalSet::max_covered() const {
  if (parts_.empty()) return std::nullopt;
  return parts_.back().hi;
}

std::vector<Interval> IntervalSet::gaps(double lo, double hi) const {
  std::vector<Interval> out;
  double cursor = lo;
  for (const Interval& p : parts_) {
    if (p.hi <= lo) continue;
    if (p.lo >= hi) break;
    if (p.lo > cursor) out.push_back(Interval{cursor, std::min(p.lo, hi)});
    cursor = std::max(cursor, p.hi);
    if (cursor >= hi) break;
  }
  if (cursor < hi) out.push_back(Interval{cursor, hi});
  return out;
}

bool IntervalSet::check_invariant() const {
  for (std::size_t i = 0; i < parts_.size(); ++i) {
    if (parts_[i].empty()) return false;
    if (i > 0 && parts_[i - 1].hi >= parts_[i].lo) return false;
  }
  return true;
}

}  // namespace tcw
