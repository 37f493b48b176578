#include "analysis/busy_period.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <utility>

#include "analysis/mg1.hpp"
#include "obs/registry.hpp"
#include "util/contract.hpp"

namespace tcw::analysis {

namespace {

const obs::Counter& busy_period_steps() {
  static const obs::Counter counter =
      obs::Registry::global().counter("analysis.busy_period_steps");
  return counter;
}

// Two doubles as one SSE2 register (GCC/Clang vector extension), so the
// tile runs two-wide without the auto-vectorizer: at -O2 GCC 12 leaves a
// plain double-array tile scalar.
typedef double Lanes __attribute__((vector_size(16)));
constexpr std::size_t kLanes = sizeof(Lanes) / sizeof(double);
constexpr std::size_t kTileVectors = 8;
constexpr std::size_t kTileCells = kLanes * kTileVectors;

Lanes load(const double* from) {
  Lanes x;
  std::memcpy(&x, from, sizeof x);
  return x;
}

/// acc[v] += from[2v, 2v + 2) * scale for every vector v of one tile. The
/// loads are spelled out as one pack: as a loop, GCC recomputes each
/// load's offset from the entry's shift instead of addressing it from one
/// source pointer.
template <std::size_t... V>
void add_entry(Lanes (&acc)[kTileVectors], const double* from, Lanes scale,
               std::index_sequence<V...>) {
  const Lanes x[] = {load(from + V * kLanes)...};
  ((acc[V] += x[V] * scale), ...);
}

/// dst[0, kTileCells) = sum over support[entries - 1] down to support[0]
/// of src[i - shift] * q: one tile of the next arrived-work table, its
/// accumulators kept in registers across all entries. `src` and `dst`
/// point at the tile's first cell; src must be readable from the largest
/// shift below it to `kTileCells` cells from it.
void convolve_tile(const double* src,
                   const std::pair<std::size_t, double>* support,
                   std::size_t entries, double* dst) {
  Lanes acc[kTileVectors] = {};
  for (std::size_t e = entries; e-- > 0;) {
    const double q = support[e].second;
    add_entry(acc, src - support[e].first, Lanes{q, q},
              std::make_index_sequence<kTileVectors>());
  }
  std::memcpy(dst, acc, sizeof acc);
}

}  // namespace

dist::Pmf one_slot_work(const dist::Pmf& service, double lambda, double tol) {
  TCW_EXPECTS(lambda > 0.0);
  // sum_j e^-lambda lambda^j / j! * B^(j); the Poisson weights die fast
  // for the per-slot rates this library works at (lambda << 1).
  std::vector<dist::Pmf> components;
  std::vector<double> weights;
  double weight = std::exp(-lambda);
  dist::Pmf convolution_power(std::vector<double>{1.0});  // B^(0)
  std::size_t j = 0;
  double remaining = 1.0;
  const std::size_t cap = 64 * service.size() + 64;
  while (remaining > tol && j < 200) {
    components.push_back(convolution_power);
    weights.push_back(weight);
    remaining -= weight;
    ++j;
    weight *= lambda / static_cast<double>(j);
    convolution_power = dist::Pmf::convolve(convolution_power, service, cap);
  }
  dist::Pmf out = dist::Pmf::mixture(components, weights);
  // The dropped Poisson tail is genuine probability mass "somewhere high".
  out = dist::Pmf(out.probabilities(), out.tail_mass() +
                                           std::max(remaining, 0.0));
  out.trim(0.0);
  return out;
}

dist::Pmf busy_period_from_work(const dist::Pmf& initial,
                                const dist::Pmf& service, double lambda,
                                std::size_t max_len) {
  TCW_EXPECTS(max_len >= 2);
  TCW_EXPECTS(initial.total_mass() > 0.0);
  busy_period_steps().add(max_len - 1);
  const dist::Pmf slot_work = one_slot_work(service, lambda);
  // Sparse support of the one-slot work below max_len (larger work never
  // lands in the table; for deterministic-ish services a handful of
  // spikes) and its lattice stride g: every A_n lives on multiples of g,
  // so the recursion runs on the compressed lattice where cell i holds
  // P(A_n = i*g). The cells it drops are exactly +0.0.
  std::vector<std::pair<std::size_t, double>> support;
  std::size_t g = 0;
  for (std::size_t j = 0; j < slot_work.size() && j < max_len; ++j) {
    if (slot_work.at(j) > 1e-15) {
      support.emplace_back(j, slot_work.at(j));
      g = std::gcd(g, j);
    }
  }
  if (g == 0) g = 1;  // all work in the j = 0 atom
  for (auto& entry : support) entry.first /= g;  // j -> compressed shift
  const std::size_t cells = (max_len - 1) / g + 1;
  const std::size_t reach = support.empty() ? 0 : support.back().first;

  std::vector<double> out(max_len, 0.0);
  out[0] = initial.at(0);  // no initial work: no busy period

  // arrived[i] = P(A_n = i*g), updated incrementally in n; cells at and
  // beyond `live` are zero. Both buffers carry `reach` zero cells below
  // cell 0 and one tile of cells above the last one, so every support
  // entry reads and every tile writes a full tile. The cells below 0 are
  // never written; the cells above the last one only feed each other.
  const std::size_t padded = reach + cells + kTileCells;
  std::vector<double> arrived(padded, 0.0);
  std::vector<double> next(padded, 0.0);
  arrived[reach] = 1.0;  // A_0 = 0
  std::size_t live = 1;
  for (std::size_t n = 1; n < max_len; ++n) {
    // A_n = A_{n-1} + one slot of work, one tile of cells at a time. The
    // entries run in descending shift, so every cell adds its nonzero
    // terms in ascending order of the source cell -- the order of the
    // scatter next[m + j] += arrived[m] * q over ascending m. The extra
    // terms read from zero cells are exact +0.0 and change no bit.
    const std::size_t next_live = std::min(cells, live + reach);
    std::size_t entries = 0;  // support entries with shift below the tile top
    for (std::size_t c0 = 0; c0 < next_live; c0 += kTileCells) {
      while (entries < support.size() &&
             support[entries].first < c0 + kTileCells) {
        ++entries;
      }
      convolve_tile(arrived.data() + reach + c0, support.data(), entries,
                    next.data() + reach + c0);
    }
    arrived.swap(next);
    live = next_live;
    // Cycle lemma: P(T = n) = sum_j initial[j] (j/n) P(A_n = n - j); only
    // the j with n - j on the lattice can contribute.
    double mass = 0.0;
    const std::size_t j_hi = std::min(initial.size() - 1, n);
    const std::size_t j_lo = n % g == 0 ? g : n % g;
    std::size_t cell = (n - j_lo) / g;  // of A_n = n - j
    for (std::size_t j = j_lo; j <= j_hi; j += g, --cell) {
      mass += initial.at(j) * static_cast<double>(j) /
              static_cast<double>(n) * arrived[reach + cell];
    }
    out[n] = mass;
  }
  double total = 0.0;
  for (const double v : out) total += v;
  return dist::Pmf(std::move(out),
                   std::max(0.0, initial.total_mass() - total));
}

dist::Pmf busy_period_distribution(const dist::Pmf& service, double lambda,
                                   std::size_t max_len) {
  return busy_period_from_work(service, service, lambda, max_len);
}

dist::Pmf lcfs_waiting_distribution(const dist::Pmf& service, double lambda,
                                    std::size_t max_len) {
  const double rho = offered_intensity(service, lambda);
  TCW_EXPECTS(rho < 1.0);
  // Residual service of the customer found in progress (PASTA): the
  // integer-lattice equilibrium distribution, shifted up one slot because
  // at least the current slot of the service in progress must complete
  // (a conservative, at-most-one-slot bias).
  const dist::Pmf residual = service.equilibrium().shifted(1);
  const dist::Pmf t =
      busy_period_from_work(residual, service, lambda, max_len);
  std::vector<double> out(t.size(), 0.0);
  out[0] = 1.0 - rho;
  for (std::size_t n = 0; n < t.size(); ++n) out[n] += rho * t.at(n);
  return dist::Pmf(std::move(out), rho * t.tail_mass());
}

double lcfs_waiting_cdf(const dist::Pmf& service, double lambda, double K,
                        std::size_t max_len) {
  TCW_EXPECTS(K >= 0.0);
  if (max_len == 0) {
    // P(W <= K) only needs the busy-period table up to K; everything
    // longer lands in the (complementary) tail either way.
    max_len = static_cast<std::size_t>(K) + 2;
  }
  const dist::Pmf w = lcfs_waiting_distribution(service, lambda, max_len);
  return w.cdf(static_cast<std::size_t>(std::floor(K)));
}

}  // namespace tcw::analysis
