#include "sse/system.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"
#include "linalg/vector_ops.hpp"

namespace aspe::sse {

namespace {
/// Indices of the k largest values, descending (stable on ties by id).
std::vector<std::size_t> top_k_indices(const Vec& values, std::size_t k) {
  std::vector<std::size_t> ids(values.size());
  std::iota(ids.begin(), ids.end(), std::size_t{0});
  k = std::min(k, ids.size());
  std::partial_sort(ids.begin(), ids.begin() + static_cast<std::ptrdiff_t>(k),
                    ids.end(), [&](std::size_t a, std::size_t b) {
                      if (values[a] != values[b]) return values[a] > values[b];
                      return a < b;
                    });
  ids.resize(k);
  return ids;
}
}  // namespace

std::size_t CloudServer::upload_index(scheme::CipherPair index) {
  indexes_.push_back(std::move(index));
  return indexes_.size() - 1;
}

Vec CloudServer::scores(const scheme::CipherPair& trapdoor) const {
  Vec s(indexes_.size());
  for (std::size_t i = 0; i < indexes_.size(); ++i) {
    s[i] = scheme::cipher_score(indexes_[i], trapdoor);
  }
  return s;
}

std::vector<std::size_t> CloudServer::top_k(const scheme::CipherPair& trapdoor,
                                            std::size_t k) const {
  return top_k_indices(scores(trapdoor), k);
}

std::vector<std::size_t> CloudServer::process_query(
    const scheme::CipherPair& trapdoor, std::size_t k) {
  trapdoors_.push_back(trapdoor);
  return top_k(trapdoor, k);
}

// ---------------------------------------------------------------- kNN

SecureKnnSystem::SecureKnnSystem(const scheme::Scheme2Options& options,
                                 std::uint64_t seed)
    : rng_(seed), scheme_(options, rng_) {}

void SecureKnnSystem::upload_records(const std::vector<Vec>& records) {
  for (const auto& p : records) {
    server_.upload_index(scheme_.encrypt_record(p, rng_));
    records_.push_back(p);
  }
}

std::vector<std::size_t> SecureKnnSystem::knn_query(const Vec& q,
                                                    std::size_t k) {
  return server_.process_query(scheme_.encrypt_query(q, rng_), k);
}

std::vector<std::size_t> SecureKnnSystem::plaintext_knn(const Vec& q,
                                                        std::size_t k) const {
  // Rank by -0.5 dist^2 + 0.5||q||^2 = p.q - 0.5||p||^2, matching the
  // ciphertext ranking exactly (Theorem 3 of [25]).
  Vec s(records_.size());
  for (std::size_t i = 0; i < records_.size(); ++i) {
    s[i] = linalg::dot(records_[i], q) -
           0.5 * linalg::norm_squared(records_[i]);
  }
  return top_k_indices(s, k);
}

// ---------------------------------------------------------------- MRSE

RankedSearchSystem::RankedSearchSystem(const scheme::MrseOptions& options,
                                       std::uint64_t seed)
    : rng_(seed), scheme_(options, rng_) {}

void RankedSearchSystem::upload_records(const std::vector<BitVec>& records) {
  for (auto& cipher : scheme_.encrypt_records(records, rng_)) {
    server_.upload_index(std::move(cipher));
  }
  records_.insert(records_.end(), records.begin(), records.end());
}

std::vector<std::size_t> RankedSearchSystem::ranked_query(const BitVec& q,
                                                          std::size_t k) {
  return server_.process_query(scheme_.encrypt_query(q, rng_), k);
}

std::vector<std::size_t> RankedSearchSystem::plaintext_top_k(
    const BitVec& q, std::size_t k) const {
  Vec s(records_.size());
  for (std::size_t i = 0; i < records_.size(); ++i) {
    double dotpq = 0.0;
    for (std::size_t j = 0; j < q.size(); ++j) {
      dotpq += static_cast<double>(records_[i][j]) * static_cast<double>(q[j]);
    }
    s[i] = dotpq;
  }
  return top_k_indices(s, k);
}

// ---------------------------------------------------------------- MKFSE

FuzzySearchSystem::FuzzySearchSystem(const scheme::MkfseOptions& options,
                                     std::uint64_t seed)
    : rng_(seed), scheme_(options, rng_) {}

void FuzzySearchSystem::upload_documents(
    const std::vector<std::vector<std::string>>& docs) {
  for (const auto& keywords : docs) {
    BitVec index = scheme_.build_index(keywords);
    server_.upload_index(scheme_.encrypt_index(index, rng_));
    plain_indexes_.push_back(std::move(index));
  }
}

std::vector<std::size_t> FuzzySearchSystem::fuzzy_query(
    const std::vector<std::string>& keywords, std::size_t k) {
  BitVec trapdoor = scheme_.build_trapdoor(keywords);
  auto result =
      server_.process_query(scheme_.encrypt_trapdoor(trapdoor, rng_), k);
  plain_trapdoors_.push_back(std::move(trapdoor));
  return result;
}

}  // namespace aspe::sse
