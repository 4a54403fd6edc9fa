// MRSE — privacy-preserving multi-keyword ranked search (Cao et al. [5]),
// the "ASPE with noise enhancement" of §IV and the target of the MIP attack.
//
// Records P and queries Q are d-dimensional binary keyword vectors.
// Index / trapdoor construction (Eq. (11)):
//
//   I = (P^T, E^T, 1)^T            E = (eps^1..eps^U) iid uniform in
//                                  (2mu/U - sqrt(6/U) sigma, 2mu/U + sqrt(6/U) sigma)
//   T = (r Q^T, r V^T, t)^T        V a random binary vector with U/2 ones,
//                                  r > 0 and t fresh random per query
//
// so that I'^T T' = I^T T = r (P.Q + E.V) + t (Eq. (12)), where E.V is the
// sum of U/2 of the eps's and therefore ~ N(mu, sigma^2). Encryption of the
// (d+U+1)-dimensional vectors uses the Scheme-2 apparatus (MRSE_II).
#pragma once

#include "rng/rng.hpp"
#include "scheme/split_encryptor.hpp"

namespace aspe::scheme {

struct MrseOptions {
  std::size_t vocab_dim = 0;   // d (vocabulary size)
  std::size_t num_dummies = 8; // U (must be even: V has exactly U/2 ones)
  double mu = 1.0;             // mean of the aggregate noise E.V
  double sigma = 0.5;          // stddev of the aggregate noise
};

/// Everything the trapdoor generator used for one query; the plaintext-side
/// ground truth the attack evaluation compares against.
struct MrseTrapdoorSecrets {
  double r = 0.0;
  double t = 0.0;
  BitVec v;  // the dummy-selection vector
};

class Mrse {
 public:
  Mrse(const MrseOptions& options, rng::Rng& rng);

  /// Build the noisy plaintext index I for a binary record P.
  [[nodiscard]] Vec build_index(const BitVec& p, rng::Rng& rng) const;

  /// Build the noisy plaintext trapdoor T for a binary query Q; reports the
  /// per-query randomness through `secrets` when non-null.
  [[nodiscard]] Vec build_trapdoor(const BitVec& q, rng::Rng& rng,
                                   MrseTrapdoorSecrets* secrets = nullptr) const;

  [[nodiscard]] CipherPair encrypt_index(const Vec& index,
                                         rng::Rng& rng) const;
  [[nodiscard]] CipherPair encrypt_trapdoor(const Vec& trapdoor,
                                            rng::Rng& rng) const;

  /// Record-to-ciphertext convenience (index construction + encryption).
  [[nodiscard]] CipherPair encrypt_record(const BitVec& p, rng::Rng& rng) const;
  /// encrypt_record on each record in turn, as one batch: the same draws
  /// from `rng` and bit-identical ciphertexts (SplitEncryptor::encrypt_indexes).
  [[nodiscard]] std::vector<CipherPair> encrypt_records(
      const std::vector<BitVec>& records, rng::Rng& rng) const;
  [[nodiscard]] CipherPair encrypt_query(const BitVec& q, rng::Rng& rng,
                                         MrseTrapdoorSecrets* secrets =
                                             nullptr) const;

  /// The noisy similarity r (P.Q + E.V) + t (Eq. (12)).
  [[nodiscard]] static double score(const CipherPair& index,
                                    const CipherPair& trapdoor) {
    return cipher_score(index, trapdoor);
  }

  [[nodiscard]] std::size_t vocab_dim() const { return d_; }
  [[nodiscard]] std::size_t num_dummies() const { return u_; }
  [[nodiscard]] double mu() const { return mu_; }
  [[nodiscard]] double sigma() const { return sigma_; }
  /// Total plaintext dimension d + U + 1.
  [[nodiscard]] std::size_t cipher_dim() const { return encryptor_.dim(); }
  [[nodiscard]] const SplitEncryptor& encryptor() const { return encryptor_; }

  /// Half-width of the per-dummy uniform noise: sqrt(6/U) * sigma.
  [[nodiscard]] double noise_half_width() const;

 private:
  std::size_t d_;
  std::size_t u_;
  double mu_;
  double sigma_;
  SplitEncryptor encryptor_;
};

}  // namespace aspe::scheme
