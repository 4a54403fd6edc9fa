// Weighted index sampling over a weight vector that is built once and then
// only loses entries (sampling without replacement) or gains new ones.
//
// `Rng::discrete` builds a std::discrete_distribution per draw: a copy, a
// sum, one division per weight and a partial-sum pass, however early the
// draw lands. DiscreteSampler keeps the weights and their sum, so a draw
// costs a scan up to its answer, and it returns what libstdc++'s
// discrete_distribution returns over the current weights, draw for draw
// (same engine draws, same index). DESIGN.md §4.4 states the contract.
#pragma once

#include <cstddef>
#include <vector>

#include "rng/rng.hpp"

namespace aspe::rng {

class DiscreteSampler {
 public:
  DiscreteSampler() = default;

  /// Weights must be non-negative and finite, with a positive sum once
  /// there are two or more of them.
  explicit DiscreteSampler(std::vector<double> weights);

  /// Index i with probability weights[i] / sum. Fewer than two weights:
  /// returns 0 without drawing, as discrete_distribution does.
  [[nodiscard]] std::size_t sample(Rng& rng);

  /// Set weight i to zero (no-op when it already is).
  void zero(std::size_t i);

  /// Append a weight at index size().
  void push_back(double w);

  [[nodiscard]] std::size_t size() const { return w_.size(); }
  [[nodiscard]] const std::vector<double>& weights() const { return w_; }

  /// Draws that needed the exact sequential sum because the cached sum's
  /// error bound left two candidate indices.
  [[nodiscard]] std::size_t exact_sum_draws() const { return exact_draws_; }

 private:
  /// The libstdc++ answer for draw u when the normaliser is `sum`.
  [[nodiscard]] std::size_t scan(double u, double sum) const;

  std::vector<double> w_;
  double full_sum_ = 0.0;  // ascending sum of every weight ever held
  double removed_ = 0.0;   // sum of the zeroed weights, in zeroing order
  std::size_t exact_draws_ = 0;
};

}  // namespace aspe::rng
