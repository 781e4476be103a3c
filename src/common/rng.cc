#include "common/rng.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace prefdb {

int64_t Rng::Uniform(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  std::uniform_int_distribution<int64_t> dist(lo, hi);
  return dist(gen_);
}

double Rng::UniformReal(double lo, double hi) {
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(gen_);
}

bool Rng::Bernoulli(double p) {
  std::bernoulli_distribution dist(p);
  return dist(gen_);
}

const std::vector<double>& Rng::ZipfCdf(int64_t n, double s) {
  auto hit = std::find_if(
      zipf_tables_.begin(), zipf_tables_.end(),
      [n, s](const ZipfTable& t) { return t.n == n && t.s == s; });
  if (hit != zipf_tables_.end()) {
    std::rotate(zipf_tables_.begin(), hit, hit + 1);
    return zipf_tables_.front().cdf;
  }
  if (zipf_tables_.size() == kZipfTables) zipf_tables_.pop_back();
  std::vector<double> cdf(static_cast<size_t>(n));
  double sum = 0.0;
  for (int64_t k = 1; k <= n; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k), s);
    cdf[static_cast<size_t>(k - 1)] = sum;
  }
  for (double& v : cdf) v /= sum;
  zipf_tables_.insert(zipf_tables_.begin(), ZipfTable{n, s, std::move(cdf)});
  return zipf_tables_.front().cdf;
}

int64_t Rng::Zipf(int64_t n, double s) {
  assert(n >= 1);
  const std::vector<double>& cdf = ZipfCdf(n, s);
  double u = UniformReal(0.0, 1.0);
  auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  if (it == cdf.end()) --it;
  return static_cast<int64_t>(it - cdf.begin()) + 1;
}

double Rng::Gaussian(double mean, double stddev) {
  std::normal_distribution<double> dist(mean, stddev);
  return dist(gen_);
}

}  // namespace prefdb
