#include "eq14.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {
namespace {

double overlap(const aspe::BitVec& record, const aspe::BitVec& q) {
  double a = 0.0;
  for (std::size_t k = 0; k < q.size(); ++k) {
    a += (record[k] != 0 && q[k] != 0) ? 1.0 : 0.0;
  }
  return a;
}

}  // namespace

bool satisfies_eq14(const std::vector<aspe::sse::KnownBinaryPair>& pairs,
                    const aspe::scheme::CipherPair& trapdoor,
                    const aspe::BitVec& query, double rhat, double that,
                    double mu, double sigma,
                    const aspe::core::MipAttackOptions& options) {
  const double lsigma = options.l * sigma;
  for (const auto& pair : pairs) {
    if (pair.record.size() != query.size()) return false;
    const double c = aspe::scheme::cipher_score(pair.cipher, trapdoor);
    const double a = overlap(pair.record, query);
    const double noise = rhat * c - that - a;
    const double tol = 1e-7 * (1.0 + std::abs(rhat * c) + a);
    if (noise < mu - lsigma - tol || noise > mu + lsigma + tol) return false;
  }
  return true;
}

bool query_in_model(const std::vector<aspe::BitVec>& records,
                    const std::vector<aspe::scheme::CipherPair>& indexes,
                    const aspe::scheme::CipherPair& trapdoor,
                    const aspe::BitVec& q, double mu, double sigma,
                    const aspe::core::MipAttackOptions& options) {
  std::vector<double> c(records.size()), a(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    c[i] = aspe::scheme::cipher_score(indexes[i], trapdoor);
    a[i] = overlap(records[i], q);
  }
  // The gap between the tightest upper and lower bound on `that` is
  // concave in rhat, so a ternary search finds its peak.
  const auto gap = [&](double rhat) {
    double hi = options.that_max, lo = options.that_min;
    for (std::size_t i = 0; i < c.size(); ++i) {
      const double center = rhat * c[i] - a[i] - mu;
      hi = std::min(hi, center + options.l * sigma);
      lo = std::max(lo, center - options.l * sigma);
    }
    return hi - lo;
  };
  double lo = options.rhat_min, hi = options.rhat_max;
  for (int it = 0; it < 200; ++it) {
    const double m1 = lo + (hi - lo) / 3.0, m2 = hi - (hi - lo) / 3.0;
    if (gap(m1) < gap(m2)) {
      lo = m1;
    } else {
      hi = m2;
    }
  }
  return gap(0.5 * (lo + hi)) >= 0.0;
}

}  // namespace perfbench
