// The Scheme-2 encryption apparatus (Wong et al. [25], Eq. (4)-(6)):
// secret split string S plus two invertible matrices M1, M2.
//
// A plaintext index I is split into shares (Ia, Ib) and a trapdoor T into
// (Ta, Tb) so that Ia.Ta + Ib.Tb = I.T, then
//
//   I'a = M1^T Ia    I'b = M2^T Ib
//   T'a = M1^{-1} Ta T'b = M2^{-1} Tb
//
// Splitting convention (following [25]): where S[k] = 0 the index coordinate
// is duplicated into both shares and the trapdoor coordinate is randomly
// split; where S[k] = 1 the roles swap. The split randomness is fresh per
// encryption — this is what defeats the naive known-plaintext key recovery
// that breaks Scheme 1 (Theorem 4 of [25]).
//
// MRSE and MKFSE reuse this apparatus on their own plaintext vectors, so it
// is factored out of AspeScheme2.
#pragma once

#include <functional>
#include <vector>

#include "linalg/matrix.hpp"
#include "rng/rng.hpp"

namespace aspe::scheme {

/// A Scheme-2 ciphertext: the pair of encrypted shares.
struct CipherPair {
  Vec a;
  Vec b;
};

/// Ciphertext inner product (Eq. (6)): I'a.T'a + I'b.T'b. This is the only
/// operation the cloud server needs — and the only thing the COA adversary
/// needs for the SNMF attack.
[[nodiscard]] double cipher_score(const CipherPair& index,
                                  const CipherPair& trapdoor);

class SplitEncryptor {
 public:
  /// Generate a key (S, M1, M2) for `dim`-dimensional plaintext vectors.
  SplitEncryptor(std::size_t dim, rng::Rng& rng);

  /// Reconstruct an encryptor from persisted key material (io/key_io.hpp).
  /// Throws InvalidArgument on inconsistent shapes and NumericalError when a
  /// matrix is singular.
  SplitEncryptor(BitVec split, linalg::Matrix m1, linalg::Matrix m2);

  [[nodiscard]] CipherPair encrypt_index(const Vec& index, rng::Rng& rng) const;
  /// Encrypt `count` indexes as one batch. Index i is make_index(i), built
  /// just before its shares are drawn, so the draws from `rng` interleave
  /// as in `count` calls of encrypt_index(make_index(i), rng), and every
  /// ciphertext is bit-identical to that call's. The key products run on
  /// blocks of records through linalg::gemm_dots.
  [[nodiscard]] std::vector<CipherPair> encrypt_indexes(
      std::size_t count, const std::function<Vec(std::size_t)>& make_index,
      rng::Rng& rng) const;
  [[nodiscard]] CipherPair encrypt_trapdoor(const Vec& trapdoor,
                                            rng::Rng& rng) const;

  /// Key-holder decryption (used by tests and the trusted client).
  [[nodiscard]] Vec decrypt_index(const CipherPair& cipher) const;
  [[nodiscard]] Vec decrypt_trapdoor(const CipherPair& cipher) const;

  [[nodiscard]] std::size_t dim() const { return split_.size(); }
  [[nodiscard]] const BitVec& split_string() const { return split_; }
  /// Key-material accessors (persistence; the key holder only).
  [[nodiscard]] const linalg::Matrix& m1() const { return m1_; }
  [[nodiscard]] const linalg::Matrix& m2() const { return m2_; }

 private:
  BitVec split_;          // the secret bit string S
  linalg::Matrix m1_, m1_inv_;
  linalg::Matrix m2_, m2_inv_;
  linalg::Matrix m1_t_, m2_t_;  // cached transposes (the index products)
};

}  // namespace aspe::scheme
