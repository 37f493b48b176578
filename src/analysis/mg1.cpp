#include "analysis/mg1.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "obs/registry.hpp"
#include "util/contract.hpp"

namespace tcw::analysis {

namespace {

/// A maximal run beta[first..last] of one exactly repeated nonzero value.
struct Run {
  std::size_t first, last;
  double value;
};

/// Forward substitution of U = delta_0 + rho * (beta conv U) over the runs
/// of beta[1..] (beta[0] stays in the denominator): with prefix sums
/// P[i] = U[0] + ... + U[i-1], a run [a, b] of value v adds
/// v * (P[k-a+1] - P[k-b]) to U[k], and a one-cell run adds v * U[k-a].
/// P is a plain running sum plus the running sum of its rounding errors
/// (TwoSum), so a prefix difference stays accurate where U is small
/// against its sum. Blocks of cells end before the second run and within
/// the first: every later run then reads only final prefixes and is one
/// contiguous loop per block; only the first run goes cell by cell.
/// Returns U on `len` lattice points and z = P[len], its plain sum.
std::pair<std::vector<double>, double> solve_renewal(
    const std::vector<double>& beta, double rho, std::size_t len) {
  TCW_EXPECTS(len > 0 && rho >= 0.0);
  const double denom = 1.0 - rho * (beta.empty() ? 0.0 : beta[0]);
  TCW_EXPECTS(denom > 0.0);
  std::vector<Run> runs;
  std::uint64_t steps = 0;
  for (std::size_t a = 1, b = 1; a < std::min(beta.size(), len); a = ++b) {
    while (b + 1 < beta.size() && beta[b + 1] == beta[a]) ++b;
    if (beta[a] != 0.0) runs.push_back({a, b, beta[a]});
  }
  for (const Run& run : runs) steps += len - run.first;
  const Run head = runs.empty() ? Run{len, len, 0.0} : runs.front();
  const std::size_t block =
      std::min(runs.size() > 1 ? runs[1].first : len, head.last + 1);
  // P[i] sits at [pad + i]; pad zeros are P[i < 0] (unsigned i = k - b).
  const std::size_t pad = runs.empty() ? 0 : runs.back().last;
  std::vector<double> hi(pad + len + 1, 0.0);
  std::vector<double> lo(pad + len + 1, 0.0);
  const auto diff = [&](std::size_t h, std::size_t l) {  // P[h] - P[l]
    return (hi[pad + h] - hi[pad + l]) + (lo[pad + h] - lo[pad + l]);
  };
  std::vector<double> far(block);
  std::vector<double> u(len, 0.0);
  u[0] = 1.0 / denom;
  hi[pad + 1] = u[0];
  for (std::size_t k0 = 1; k0 < len; k0 += block) {
    const std::size_t k1 = std::min(len, k0 + block);
    std::fill(far.begin(), far.end(), 0.0);
    for (std::size_t r = 1; r < runs.size() && runs[r].first < k1; ++r) {
      const auto [a, b, v] = runs[r];
      for (std::size_t k = std::max(k0, a); k < k1; ++k) {
        far[k - k0] += v * (a == b ? u[k - a] : diff(k + 1 - a, k - b));
      }
    }
    double inside = 0.0;  // U[k0] + ... + U[k - head.first]
    for (std::size_t k = k0; k < k1; ++k) {
      double near = 0.0;
      if (head.first <= k && head.first == head.last) {
        near = head.value * u[k - head.first];
      } else if (head.first <= k) {
        if (k - head.first >= k0) inside += u[k - head.first];
        const std::size_t h = std::min(k + 1 - head.first, k0);
        near = head.value * (diff(h, k - head.last) + inside);
      }
      u[k] = rho * (far[k - k0] + near) / denom;
      const double sum = hi[pad + k] + u[k];
      const double part = sum - hi[pad + k];
      lo[pad + k + 1] =
          lo[pad + k] + ((hi[pad + k] - (sum - part)) + (u[k] - part));
      hi[pad + k + 1] = sum;
    }
  }
  static const obs::Counter solves =
      obs::Registry::global().counter("analysis.renewal_solves");
  static const obs::Counter run_steps =
      obs::Registry::global().counter("analysis.renewal_steps");
  solves.add(1);
  run_steps.add(steps);
  return {std::move(u), hi[pad + len]};
}

}  // namespace

double offered_intensity(const dist::Pmf& service, double lambda) {
  TCW_EXPECTS(lambda >= 0.0);
  return lambda * service.mean();
}

double pk_mean_wait(const dist::Pmf& service, double lambda) {
  const double rho = offered_intensity(service, lambda);
  TCW_EXPECTS(rho < 1.0);
  const double m = service.mean();
  const double second_moment = service.variance() + m * m;
  return lambda * second_moment / (2.0 * (1.0 - rho));
}

std::vector<double> refined_equilibrium(const dist::Pmf& service, unsigned c) {
  TCW_EXPECTS(c >= 1);
  const double mean = service.mean();
  TCW_EXPECTS(mean > 0.0);
  const std::size_t support = service.size();  // values 0..support-1
  std::vector<double> beta;
  beta.reserve(c * (support > 0 ? support - 1 : 0));
  double sf = service.total_mass() - service.at(0);  // P(S > 0)
  for (std::size_t k = 0; k + 1 < support; ++k) {
    const double cell = std::max(sf, 0.0) / (static_cast<double>(c) * mean);
    for (unsigned m = 0; m < c; ++m) beta.push_back(cell);
    sf -= service.at(k + 1);
  }
  return beta;
}

std::vector<double> renewal_function(const std::vector<double>& beta,
                                     double rho, std::size_t len) {
  return std::move(solve_renewal(beta, rho, len).first);
}

namespace {

/// Most lattice points a renewal solve can index.
std::size_t max_cells() { return std::vector<double>().max_size(); }

struct ZBracket {
  double lower = 0.0;
  double upper = 0.0;
};

/// z(K, rho) bracketed by the left/right sub-cell mass placements.
ZBracket z_bracket(const dist::Pmf& service, double lambda, double K,
                   unsigned refine) {
  TCW_EXPECTS(std::isfinite(K) && K >= 0.0);
  const double rho = offered_intensity(service, lambda);
  if (K == 0.0) return ZBracket{1.0, 1.0};  // only the i = 0 term survives

  const auto beta = refined_equilibrium(service, refine);
  const double k_sub = std::floor(K * static_cast<double>(refine) + 1e-9);
  TCW_EXPECTS(k_sub < static_cast<double>(max_cells()));
  const auto len = static_cast<std::size_t>(k_sub) + 1;

  // Left placement: sub-cell mass at its left endpoint makes the i-fold
  // sums stochastically smaller, so its CDF -- and hence z -- is an upper
  // bound. Shifting the mass one sub-cell right gives the lower bound.
  std::vector<double> beta_right(beta.size() + 1, 0.0);
  std::copy(beta.begin(), beta.end(), beta_right.begin() + 1);
  return ZBracket{solve_renewal(beta_right, rho, len).second,
                  solve_renewal(beta, rho, len).second};
}

/// The first `slots` slot cells of the refined lattice `u`, times `scale`.
std::vector<double> slot_cells(const std::vector<double>& u, unsigned refine,
                               std::size_t slots, double scale) {
  std::vector<double> out(slots, 0.0);
  for (std::size_t w = 0; w < slots; ++w) {
    double cell = 0.0;
    for (unsigned m = 0; m < refine; ++m) cell += u[w * refine + m];
    out[w] = scale * cell;
  }
  return out;
}

// Clamped at 0: at large K, z -> 1/(1 - rho) and the difference cancels
// to a few ulps of either sign.
double loss_from_z(double rho, double z) {
  return std::max(0.0, 1.0 - z / (1.0 + rho * z));
}

}  // namespace

double mg1_waiting_cdf(const dist::Pmf& service, double lambda, double K,
                       unsigned refine) {
  const double rho = offered_intensity(service, lambda);
  TCW_EXPECTS(rho < 1.0);
  const ZBracket z = z_bracket(service, lambda, K, refine);
  return (1.0 - rho) * 0.5 * (z.lower + z.upper);
}

dist::Pmf mg1_waiting_distribution(const dist::Pmf& service, double lambda,
                                   std::size_t len, unsigned refine) {
  TCW_EXPECTS(len > 0);
  const double rho = offered_intensity(service, lambda);
  TCW_EXPECTS(rho < 1.0);
  const auto beta = refined_equilibrium(service, refine);
  TCW_EXPECTS(len <= max_cells() / refine);
  const auto u = renewal_function(beta, rho, len * refine);
  std::vector<double> out = slot_cells(u, refine, len, 1.0 - rho);
  double covered = 0.0;
  for (const double v : out) covered += v;
  return dist::Pmf(std::move(out), std::max(0.0, 1.0 - covered));
}

ImpatientLoss mg1_impatient_loss(const dist::Pmf& service, double lambda,
                                 double K, unsigned refine) {
  ImpatientLoss out;
  out.rho = offered_intensity(service, lambda);
  TCW_EXPECTS(out.rho > 0.0);
  const ZBracket z = z_bracket(service, lambda, K, refine);
  out.z_lower = z.lower;
  out.z_upper = z.upper;
  out.z = 0.5 * (z.lower + z.upper);
  out.p_loss = loss_from_z(out.rho, out.z);
  out.loss_lower = loss_from_z(out.rho, z.upper);
  out.loss_upper = loss_from_z(out.rho, z.lower);
  out.p_idle = 1.0 / (1.0 + out.rho * out.z);
  return out;
}

dist::Pmf accepted_wait_distribution(const dist::Pmf& service, double lambda,
                                     std::size_t K, unsigned refine) {
  const double rho = offered_intensity(service, lambda);
  TCW_EXPECTS(rho > 0.0);
  const auto beta = refined_equilibrium(service, refine);
  TCW_EXPECTS(K < max_cells() / refine);
  const auto [u, z] = solve_renewal(beta, rho, (K + 1) * refine);
  // P(0) from the same (left-placement) series for internal consistency.
  const double p_idle = 1.0 / (1.0 + rho * z);
  return dist::Pmf(slot_cells(u, refine, K + 1, p_idle), 0.0);
}

}  // namespace tcw::analysis
