#include "rng/discrete_sampler.hpp"

#include <cmath>
#include <limits>
#include <random>

#include "common/error.hpp"

namespace aspe::rng {

namespace {

void require_weight(double w) {
  require(w >= 0.0 && std::isfinite(w),
          "DiscreteSampler: weights must be finite and non-negative");
}

}  // namespace

DiscreteSampler::DiscreteSampler(std::vector<double> weights)
    : w_(std::move(weights)) {
  // The chain std::accumulate(begin, end, 0.0) runs in discrete_distribution.
  for (const double w : w_) {
    require_weight(w);
    full_sum_ += w;
  }
}

void DiscreteSampler::zero(std::size_t i) {
  require(i < w_.size(), "DiscreteSampler::zero: index out of range");
  if (w_[i] == 0.0) return;
  removed_ += w_[i];  // positive from the first removal on
  w_[i] = 0.0;
}

void DiscreteSampler::push_back(double w) {
  require_weight(w);
  w_.push_back(w);
  full_sum_ += w;  // extends the ascending chain by one term
}

std::size_t DiscreteSampler::scan(double u, double sum) const {
  // discrete_distribution's table is cp[i] = cp[i-1] + w[i] / sum with
  // cp[n-1] forced to 1.0, and the draw is lower_bound(cp, u). The forced
  // last entry is >= u, so the table is partitioned by cp[i] < u and the
  // binary search finds the first crossing, which this scan stops at.
  const std::size_t n = w_.size();
  double cp = 0.0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    cp += w_[i] / sum;
    if (cp >= u) return i;
  }
  return n - 1;
}

std::size_t DiscreteSampler::sample(Rng& rng) {
  const std::size_t n = w_.size();
  if (n < 2) return 0;
  const double u =
      std::generate_canonical<double, std::numeric_limits<double>::digits>(
          rng.engine());
  // Until an entry is zeroed, the cached sum is the very chain
  // discrete_distribution computes.
  if (removed_ == 0.0) return scan(u, full_sum_);

  // Otherwise the normaliser S (the ascending sum of the current weights)
  // is within delta of full - removed: each of the three sums errs by at
  // most (n - 1) 2^-53 of the full total, the subtraction by 2^-53 more,
  // and delta adds room for rounding lo and hi themselves. Every partial
  // sum falls as the normaliser grows, so the first crossing at lo comes
  // no later than at S, and at hi no earlier; where they agree, that index
  // is S's.
  const double approx = full_sum_ - removed_;
  const double delta =
      4.0 * static_cast<double>(n) * 0x1p-53 * full_sum_;
  const double lo = approx - delta;
  const double hi = approx + delta;
  if (lo > 0.0) {
    double cp_lo = 0.0;  // partial sums over lo: the largest possible
    double cp_hi = 0.0;  // partial sums over hi: the smallest possible
    std::size_t i = 0;
    for (; i + 1 < n; ++i) {
      cp_lo += w_[i] / lo;
      cp_hi += w_[i] / hi;
      if (cp_lo >= u) break;
    }
    if (i + 1 == n || cp_hi >= u) return i;
  }
  ++exact_draws_;
  double sum = 0.0;
  for (const double w : w_) sum += w;
  return scan(u, sum);
}

}  // namespace aspe::rng
