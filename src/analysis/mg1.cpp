#include "analysis/mg1.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "obs/registry.hpp"
#include "util/contract.hpp"

namespace tcw::analysis {

namespace {

const obs::Counter& renewal_solves() {
  static const obs::Counter counter =
      obs::Registry::global().counter("analysis.renewal_solves");
  return counter;
}

/// Equilibrium (residual) distribution of an integer-slot service time on
/// a lattice refined by `c` sub-cells per slot. The continuous residual
/// density is constant over each unit cell [k, k+1); refining spreads each
/// cell's mass P(S>k)/E[S] evenly over its c sub-cells.
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

double sum_prefix(const std::vector<double>& v, std::size_t end_inclusive) {
  double acc = 0.0;
  const std::size_t end = std::min(end_inclusive + 1, v.size());
  for (std::size_t i = 0; i < end; ++i) acc += v[i];
  return acc;
}

/// Forward substitution of U = delta_0 + rho * (beta conv U) for each of
/// the N lattice pmfs in `betas`, in one shared k-loop. The N add chains
/// are independent, so interleaving them overlaps their latencies, while
/// each u[k] still adds its terms in ascending j.
template <std::size_t N>
std::array<std::vector<double>, N> renewal_functions(
    const std::array<const std::vector<double>*, N>& betas, double rho,
    std::size_t len) {
  TCW_EXPECTS(len > 0);
  TCW_EXPECTS(rho >= 0.0);
  renewal_solves().add(N);
  std::array<std::vector<double>, N> u;
  std::array<const double*, N> b{};
  std::array<std::size_t, N> b_top{};  // last index of each beta
  std::array<double, N> denom{};
  for (std::size_t c = 0; c < N; ++c) {
    const std::vector<double>& beta = *betas[c];
    const double b0 = beta.empty() ? 0.0 : beta[0];
    denom[c] = 1.0 - rho * b0;
    TCW_EXPECTS(denom[c] > 0.0);
    u[c].assign(len, 0.0);
    u[c][0] = 1.0 / denom[c];
    b[c] = beta.data();
    b_top[c] = beta.empty() ? 0 : beta.size() - 1;
  }
  for (std::size_t k = 1; k < len; ++k) {
    std::array<double, N> acc{};
    std::array<std::size_t, N> j_max{};
    std::size_t j_common = k;
    for (std::size_t c = 0; c < N; ++c) {
      j_max[c] = std::min(k, b_top[c]);
      j_common = std::min(j_common, j_max[c]);
    }
    for (std::size_t j = 1; j <= j_common; ++j) {
      for (std::size_t c = 0; c < N; ++c) acc[c] += b[c][j] * u[c][k - j];
    }
    for (std::size_t c = 0; c < N; ++c) {
      for (std::size_t j = j_common + 1; j <= j_max[c]; ++j) {
        acc[c] += b[c][j] * u[c][k - j];
      }
      u[c][k] = rho * acc[c] / denom[c];
    }
  }
  return u;
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

std::vector<double> renewal_function(const std::vector<double>& beta,
                                     double rho, std::size_t len) {
  return std::move(renewal_functions<1>({&beta}, rho, len)[0]);
}

namespace {

struct ZBracket {
  double lower = 0.0;
  double upper = 0.0;
};

/// z(K, rho) bracketed by the left/right sub-cell mass placements.
ZBracket z_bracket(const dist::Pmf& service, double lambda, double K,
                   unsigned refine) {
  const double rho = offered_intensity(service, lambda);
  if (K <= 0.0) return ZBracket{1.0, 1.0};  // only the i = 0 term survives

  const auto beta = refined_equilibrium(service, refine);
  if (beta.empty()) {
    // Service is the constant 0 (excluded upstream by mean() > 0 checks);
    // degenerate but well defined: no waiting ever.
    return ZBracket{1.0, 1.0};
  }
  const auto k_sub = static_cast<std::size_t>(
      std::floor(K * static_cast<double>(refine) + 1e-9));
  const std::size_t len = k_sub + 1;

  // Left placement: sub-cell mass at its left endpoint makes the i-fold
  // sums stochastically smaller, so its CDF -- and hence z -- is an upper
  // bound. Shifting the mass one sub-cell right gives the lower bound.
  std::vector<double> beta_right(beta.size() + 1, 0.0);
  std::copy(beta.begin(), beta.end(), beta_right.begin() + 1);
  const auto [u_left, u_right] =
      renewal_functions<2>({&beta, &beta_right}, rho, len);

  return ZBracket{sum_prefix(u_right, k_sub), sum_prefix(u_left, k_sub)};
}

double loss_from_z(double rho, double z) { return 1.0 - z / (1.0 + rho * z); }

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
  const std::size_t sub_len = len * refine;
  const auto u = renewal_function(
      beta.empty() ? std::vector<double>{0.0} : beta, rho, sub_len);
  std::vector<double> out(len, 0.0);
  for (std::size_t w = 0; w < len; ++w) {
    double cell = 0.0;
    for (unsigned m = 0; m < refine; ++m) cell += u[w * refine + m];
    out[w] = (1.0 - rho) * cell;
  }
  double covered = 0.0;
  for (const double v : out) covered += v;
  return dist::Pmf(std::move(out), std::max(0.0, 1.0 - covered));
}

ImpatientLoss mg1_impatient_loss(const dist::Pmf& service, double lambda,
                                 double K, unsigned refine) {
  TCW_EXPECTS(K >= 0.0);
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
  const std::size_t len = (K + 1) * refine;
  const auto u = renewal_function(
      beta.empty() ? std::vector<double>{0.0} : beta, rho, len);

  // P(0) from the same (left-placement) series for internal consistency.
  const auto k_sub = static_cast<std::size_t>(K) * refine + (refine - 1);
  const double z = sum_prefix(u, std::min<std::size_t>(k_sub, len - 1));
  const double p_idle = 1.0 / (1.0 + rho * z);

  std::vector<double> out(K + 1, 0.0);
  for (std::size_t w = 0; w <= K; ++w) {
    double cell = 0.0;
    for (unsigned m = 0; m < refine; ++m) cell += u[w * refine + m];
    out[w] = p_idle * cell;
  }
  return dist::Pmf(std::move(out), 0.0);
}

}  // namespace tcw::analysis
