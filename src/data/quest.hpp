// Synthetic transaction generator modeled after the IBM Quest data generator
// (the paper's reference [3], unavailable offline).
//
// The paper uses only three Quest knobs: the number of items d, the (average)
// density rho of items per transaction, and the number of transactions m;
// each transaction is then converted into a d-dimensional binary vector. We
// reproduce those marginals: per-transaction sizes concentrate around rho*d
// (Poisson, clamped to [1, d]) and item popularity follows a mild Zipf law as
// in Quest's item-weight table.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "rng/discrete_sampler.hpp"
#include "rng/rng.hpp"

namespace aspe::data {

struct QuestOptions {
  std::size_t num_items = 100;        // d
  double density = 0.2;               // rho (average |v| / d)
  std::size_t num_transactions = 100; // m
  double zipf_exponent = 0.5;         // 0 => uniform item popularity
};

class QuestGenerator {
 public:
  QuestGenerator(const QuestOptions& options, rng::Rng rng);

  /// One transaction as a binary vector of length num_items.
  [[nodiscard]] BitVec next();

  /// The full data set (options.num_transactions rows).
  [[nodiscard]] std::vector<BitVec> generate();

  [[nodiscard]] const QuestOptions& options() const { return options_; }

 private:
  QuestOptions options_;
  rng::Rng rng_;
  rng::DiscreteSampler item_sampler_;  // Zipf item popularity
};

/// Average density of ones over a set of binary vectors.
[[nodiscard]] double average_density(const std::vector<BitVec>& rows);

}  // namespace aspe::data
