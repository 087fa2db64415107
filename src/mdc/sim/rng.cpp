#include "mdc/sim/rng.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace mdc {

namespace {
std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Rng::nextU64() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() noexcept {
  // 53 significant bits -> double in [0, 1).
  return static_cast<double>(nextU64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  MDC_EXPECT(lo <= hi, "uniform: lo > hi");
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniformInt(std::uint64_t n) {
  MDC_EXPECT(n > 0, "uniformInt: n == 0");
  // Lemire-style rejection-free enough for simulation purposes; the modulo
  // bias at n << 2^64 is negligible, but use multiply-shift anyway.
  // __extension__: __int128 is a GCC/Clang extension (-Wpedantic).
  __extension__ using U128 = unsigned __int128;
  const U128 m = static_cast<U128>(nextU64()) * n;
  return static_cast<std::uint64_t>(m >> 64);
}

bool Rng::bernoulli(double p) {
  MDC_EXPECT(p >= 0.0 && p <= 1.0, "bernoulli: p out of [0,1]");
  return uniform() < p;
}

double Rng::exponential(double meanValue) {
  MDC_EXPECT(meanValue > 0.0, "exponential: mean <= 0");
  double u = uniform();
  if (u <= 0.0) u = 0x1.0p-53;  // avoid log(0)
  return -meanValue * std::log(u);
}

double Rng::normal(double mu, double sigma) {
  double u1 = uniform();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  return mu + sigma * r * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::pareto(double xm, double alpha) {
  MDC_EXPECT(xm > 0.0 && alpha > 0.0, "pareto: bad parameters");
  double u = uniform();
  if (u <= 0.0) u = 0x1.0p-53;
  return xm / std::pow(u, 1.0 / alpha);
}

std::size_t Rng::weightedIndex(std::span<const double> weights) {
  MDC_EXPECT(!weights.empty(), "weightedIndex: no weights");
  double total = 0.0;
  for (double w : weights) {
    MDC_EXPECT(w >= 0.0, "weightedIndex: negative weight");
    total += w;
  }
  MDC_EXPECT(total > 0.0, "weightedIndex: all weights zero");
  double target = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.size() - 1;  // floating-point edge
}

Rng Rng::fork() noexcept { return Rng{nextU64()}; }

ZipfSampler::ZipfSampler(std::size_t n, double alpha) {
  MDC_EXPECT(n > 0, "ZipfSampler: n == 0");
  MDC_EXPECT(alpha >= 0.0, "ZipfSampler: alpha < 0");
  cdf_.resize(n);
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), alpha);
    cdf_[i] = acc;
  }
  for (auto& c : cdf_) c /= acc;
}

std::size_t ZipfSampler::sample(Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::size_t>(std::distance(cdf_.begin(), it));
}

double ZipfSampler::probability(std::size_t rank) const {
  MDC_EXPECT(rank < cdf_.size(), "ZipfSampler: rank out of range");
  if (rank == 0) return cdf_[0];
  return cdf_[rank] - cdf_[rank - 1];
}

}  // namespace mdc
