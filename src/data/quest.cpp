#include "data/quest.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace aspe::data {

QuestGenerator::QuestGenerator(const QuestOptions& options, rng::Rng rng)
    : options_(options), rng_(std::move(rng)) {
  require(options.num_items > 0, "QuestGenerator: need at least one item");
  require(options.density > 0.0 && options.density <= 1.0,
          "QuestGenerator: density must be in (0, 1]");
  std::vector<double> weights(options.num_items);
  for (std::size_t i = 0; i < options.num_items; ++i) {
    weights[i] =
        1.0 / std::pow(static_cast<double>(i + 1), options.zipf_exponent);
  }
  item_sampler_ = rng::DiscreteSampler(std::move(weights));
}

BitVec QuestGenerator::next() {
  const auto d = options_.num_items;
  const double mean_size = options_.density * static_cast<double>(d);
  std::size_t size = static_cast<std::size_t>(rng_.poisson(mean_size));
  size = std::clamp<std::size_t>(size, 1, d);

  // Weighted sampling without replacement.
  BitVec v(d, 0);
  rng::DiscreteSampler items = item_sampler_;
  for (std::size_t k = 0; k < size; ++k) {
    const std::size_t idx = items.sample(rng_);
    v[idx] = 1;
    items.zero(idx);
  }
  return v;
}

std::vector<BitVec> QuestGenerator::generate() {
  std::vector<BitVec> rows;
  rows.reserve(options_.num_transactions);
  for (std::size_t i = 0; i < options_.num_transactions; ++i) {
    rows.push_back(next());
  }
  return rows;
}

double average_density(const std::vector<BitVec>& rows) {
  if (rows.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& r : rows) sum += density(r);
  return sum / static_cast<double>(rows.size());
}

}  // namespace aspe::data
