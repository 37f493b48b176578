// Distribution samplers on top of the tcw RNGs. Self-contained (no
// std::*_distribution) so simulation streams are bit-reproducible across
// standard libraries.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/rng.hpp"

namespace tcw::sim {

/// Uniform double in [0, 1) with 53 bits of randomness.
double uniform01(Rng& rng);

/// Uniform double in [lo, hi).
double uniform(Rng& rng, double lo, double hi);

/// Uniform integer in [0, n) using rejection (unbiased). n must be > 0.
std::uint64_t uniform_index(Rng& rng, std::uint64_t n);

/// Exponential with rate `lambda` (mean 1/lambda).
double exponential(Rng& rng, double lambda);

/// Bernoulli(p).
bool bernoulli(Rng& rng, double p);

/// Geometric on {1, 2, 3, ...} with success probability p: P(X=k) = (1-p)^(k-1) p.
std::uint64_t geometric1(Rng& rng, double p);

/// Poisson with mean `mu` (finite, >= 0): Knuth's multiplication method,
/// with means of 30 and above split into equal halves until each leaf is
/// below 30.
std::uint64_t poisson(Rng& rng, double mu);

/// poisson() for many draws at one mean: exp(-mean) is computed once, at
/// construction, instead of per draw. Same draws, same values.
class PoissonSampler {
 public:
  explicit PoissonSampler(double mu);
  std::uint64_t operator()(Rng& rng) const;

 private:
  double limit_ = 1.0;        // exp(-leaf mean)
  std::uint64_t leaves_ = 0;  // Poisson(mu) = sum of this many leaf draws
};

/// Binomial(n, p) by direct Bernoulli summation (n is small in this library).
std::uint64_t binomial(Rng& rng, std::uint64_t n, double p);

/// Sample an index from an (unnormalized) non-negative weight vector.
std::size_t discrete(Rng& rng, const std::vector<double>& weights);

/// Fisher-Yates shuffle.
template <typename T>
void shuffle(Rng& rng, std::vector<T>& v) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(uniform_index(rng, i));
    using std::swap;
    swap(v[i - 1], v[j]);
  }
}

}  // namespace tcw::sim
