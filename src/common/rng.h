#ifndef PREFDB_COMMON_RNG_H_
#define PREFDB_COMMON_RNG_H_

#include <cstdint>
#include <random>
#include <vector>

namespace prefdb {

/// Deterministic random-number source used by the data generators and the
/// randomized property tests. Wraps a Mersenne Twister with convenience
/// draws; given the same seed, all platforms produce the same streams.
class Rng {
 public:
  explicit Rng(uint64_t seed) : gen_(seed) {}

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t Uniform(int64_t lo, int64_t hi);

  /// Uniform double in [lo, hi).
  double UniformReal(double lo, double hi);

  /// Bernoulli draw with probability `p` of true.
  bool Bernoulli(double p);

  /// Zipf-distributed rank in [1, n] with exponent `s` (s > 0). Rank 1 is the
  /// most frequent. Uses an inverse-CDF table built lazily per (n, s); the
  /// most recently used tables are kept, so generators that interleave a few
  /// configurations build each table once.
  int64_t Zipf(int64_t n, double s);

  /// Gaussian draw with the given mean and standard deviation.
  double Gaussian(double mean, double stddev);

  /// Underlying engine, for std::shuffle and distributions not wrapped here.
  std::mt19937_64& engine() { return gen_; }

 private:
  struct ZipfTable {
    int64_t n;
    double s;
    std::vector<double> cdf;
  };
  static constexpr size_t kZipfTables = 8;

  // The inverse CDF of Zipf(n, s), built on a miss.
  const std::vector<double>& ZipfCdf(int64_t n, double s);

  std::mt19937_64 gen_;
  // Inverse-CDF tables of recent Zipf configurations, most recently used
  // first; at most kZipfTables.
  std::vector<ZipfTable> zipf_tables_;
};

}  // namespace prefdb

#endif  // PREFDB_COMMON_RNG_H_
