#include "scheme/mrse.hpp"

#include <cmath>

#include "common/error.hpp"

namespace aspe::scheme {

Mrse::Mrse(const MrseOptions& options, rng::Rng& rng)
    : d_(options.vocab_dim),
      u_(options.num_dummies),
      mu_(options.mu),
      sigma_(options.sigma),
      encryptor_(options.vocab_dim + options.num_dummies + 1, rng) {
  require(d_ > 0, "Mrse: vocabulary dimension must be positive");
  require(u_ >= 2 && u_ % 2 == 0, "Mrse: U must be even and >= 2");
  require(sigma_ > 0.0, "Mrse: sigma must be positive");
}

double Mrse::noise_half_width() const {
  return std::sqrt(6.0 / static_cast<double>(u_)) * sigma_;
}

Vec Mrse::build_index(const BitVec& p, rng::Rng& rng) const {
  require(p.size() == d_, "Mrse::build_index: bad dimension");
  Vec index;
  index.reserve(d_ + u_ + 1);
  for (auto bit : p) index.push_back(static_cast<double>(bit));
  const double center = 2.0 * mu_ / static_cast<double>(u_);
  const double half = noise_half_width();
  for (std::size_t k = 0; k < u_; ++k) {
    index.push_back(rng.uniform(center - half, center + half));
  }
  index.push_back(1.0);
  return index;
}

Vec Mrse::build_trapdoor(const BitVec& q, rng::Rng& rng,
                         MrseTrapdoorSecrets* secrets) const {
  require(q.size() == d_, "Mrse::build_trapdoor: bad dimension");
  const double r = rng.uniform(0.5, 2.0);
  const double t = rng.uniform(0.1, 1.0);
  const BitVec v = rng.binary_with_k_ones(u_, u_ / 2);
  Vec trapdoor;
  trapdoor.reserve(d_ + u_ + 1);
  for (auto bit : q) trapdoor.push_back(r * static_cast<double>(bit));
  for (auto bit : v) trapdoor.push_back(r * static_cast<double>(bit));
  trapdoor.push_back(t);
  if (secrets != nullptr) *secrets = {r, t, v};
  return trapdoor;
}

CipherPair Mrse::encrypt_index(const Vec& index, rng::Rng& rng) const {
  return encryptor_.encrypt_index(index, rng);
}

CipherPair Mrse::encrypt_trapdoor(const Vec& trapdoor, rng::Rng& rng) const {
  return encryptor_.encrypt_trapdoor(trapdoor, rng);
}

CipherPair Mrse::encrypt_record(const BitVec& p, rng::Rng& rng) const {
  return encrypt_index(build_index(p, rng), rng);
}

std::vector<CipherPair> Mrse::encrypt_records(
    const std::vector<BitVec>& records, rng::Rng& rng) const {
  return encryptor_.encrypt_indexes(
      records.size(),
      [&](std::size_t i) { return build_index(records[i], rng); }, rng);
}

CipherPair Mrse::encrypt_query(const BitVec& q, rng::Rng& rng,
                               MrseTrapdoorSecrets* secrets) const {
  return encrypt_trapdoor(build_trapdoor(q, rng, secrets), rng);
}

}  // namespace aspe::scheme
