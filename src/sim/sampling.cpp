#include "sim/sampling.hpp"

#include <cmath>

#include "util/contract.hpp"

namespace tcw::sim {

double uniform01(Rng& rng) {
  // Top 53 bits -> [0,1) double.
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

double uniform(Rng& rng, double lo, double hi) {
  TCW_EXPECTS(lo <= hi);
  return lo + (hi - lo) * uniform01(rng);
}

std::uint64_t uniform_index(Rng& rng, std::uint64_t n) {
  TCW_EXPECTS(n > 0);
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % n);
  std::uint64_t x = rng();
  while (x >= limit) x = rng();
  return x % n;
}

double exponential(Rng& rng, double lambda) {
  TCW_EXPECTS(lambda > 0.0);
  // -log(1-u) avoids log(0) since uniform01 < 1.
  return -std::log1p(-uniform01(rng)) / lambda;
}

bool bernoulli(Rng& rng, double p) {
  TCW_EXPECTS(p >= 0.0 && p <= 1.0);
  return uniform01(rng) < p;
}

std::uint64_t geometric1(Rng& rng, double p) {
  TCW_EXPECTS(p > 0.0 && p <= 1.0);
  if (p == 1.0) return 1;
  // Inversion: ceil(log(1-u)/log(1-p)).
  const double u = uniform01(rng);
  const double k = std::ceil(std::log1p(-u) / std::log1p(-p));
  return k < 1.0 ? 1 : static_cast<std::uint64_t>(k);
}

PoissonSampler::PoissonSampler(double mu) {
  TCW_EXPECTS(std::isfinite(mu) && mu >= 0.0);
  if (mu == 0.0) return;
  // Split large means: Poisson(mu) = Poisson(mu/2) + Poisson(mu/2), halved
  // until every leaf mean is below 30.
  double leaf = mu;
  leaves_ = 1;
  while (leaf >= 30.0) {
    TCW_EXPECTS(leaves_ < (std::uint64_t{1} << 63));
    leaf /= 2.0;
    leaves_ *= 2;
  }
  limit_ = std::exp(-leaf);
}

std::uint64_t PoissonSampler::operator()(Rng& rng) const {
  std::uint64_t n = 0;
  for (std::uint64_t leaf = 0; leaf < leaves_; ++leaf) {
    // Knuth multiplication method.
    double prod = uniform01(rng);
    while (prod > limit_) {
      prod *= uniform01(rng);
      ++n;
    }
  }
  return n;
}

std::uint64_t poisson(Rng& rng, double mu) { return PoissonSampler(mu)(rng); }

std::uint64_t binomial(Rng& rng, std::uint64_t n, double p) {
  TCW_EXPECTS(p >= 0.0 && p <= 1.0);
  std::uint64_t count = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    if (bernoulli(rng, p)) ++count;
  }
  return count;
}

std::size_t discrete(Rng& rng, const std::vector<double>& weights) {
  TCW_EXPECTS(!weights.empty());
  double total = 0.0;
  for (const double w : weights) {
    TCW_EXPECTS(w >= 0.0);
    total += w;
  }
  TCW_EXPECTS(total > 0.0);
  double x = uniform01(rng) * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0.0) return i;
  }
  return weights.size() - 1;  // numeric edge: return the last positive index
}

}  // namespace tcw::sim
