#include "net/metrics.hpp"

#include <cmath>

namespace tcw::net {

void SimMetrics::add_quiescent_stretch(double start, std::uint64_t slots,
                                       double backlog, double warmup) {
  usage.add_idle_slots(slots);
  // Slots start, start + 1, ... are integers, so the first counted one is
  // the first integer at or after both start and warmup.
  const double end = start + static_cast<double>(slots);
  const double first = std::fmax(start, std::ceil(warmup));
  if (end <= first) return;
  const auto counted = static_cast<std::uint64_t>(end - first);
  pseudo_backlog.add_run(backlog, counted);
  process_slots.add_run(1.0, counted);
}

double SimMetrics::p_loss_ci95() const {
  const std::uint64_t d = decided();
  if (d < 2) return 0.0;
  const double p = p_loss();
  return 1.959963984540054 *
         std::sqrt(std::fmax(p * (1.0 - p), 0.0) / static_cast<double>(d));
}

}  // namespace tcw::net
