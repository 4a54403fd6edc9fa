#include "scheme/split_encryptor.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "linalg/kernels.hpp"
#include "linalg/lu.hpp"
#include "linalg/random_matrix.hpp"
#include "linalg/vector_ops.hpp"

namespace aspe::scheme {

namespace {

/// Records per block of encrypt_indexes: the share and product buffers stay
/// near 1 MiB at dimension 509, and each block still has 16 row tiles to
/// spread over the pool.
constexpr std::size_t kEncryptBlock = 64;

/// Split v into shares a + b: where split[k] == dup_bit the coordinate is
/// copied into both, elsewhere it is split at a fresh uniform draw whose
/// spread is tied to the value's own scale, so ciphertexts stay tame.
void split_shares(const Vec& v, const BitVec& split, std::uint8_t dup_bit,
                  rng::Rng& rng, double* a, double* b) {
  for (std::size_t k = 0; k < split.size(); ++k) {
    if (split[k] == dup_bit) {
      a[k] = v[k];
      b[k] = v[k];
    } else {
      const double spread = std::abs(v[k]) + 1.0;
      const double s = rng.uniform(-spread, spread);
      a[k] = s;
      b[k] = v[k] - s;
    }
  }
}

}  // namespace

double cipher_score(const CipherPair& index, const CipherPair& trapdoor) {
  return linalg::dot(index.a, trapdoor.a) + linalg::dot(index.b, trapdoor.b);
}

SplitEncryptor::SplitEncryptor(std::size_t dim, rng::Rng& rng) {
  require(dim > 0, "SplitEncryptor: dimension must be positive");
  split_ = rng.binary_bernoulli(dim, 0.5);
  auto k1 = linalg::random_invertible_pair(dim, rng);
  auto k2 = linalg::random_invertible_pair(dim, rng);
  m1_ = std::move(k1.m);
  m1_inv_ = std::move(k1.m_inv);
  m2_ = std::move(k2.m);
  m2_inv_ = std::move(k2.m_inv);
  m1_t_ = m1_.transpose();
  m2_t_ = m2_.transpose();
}

SplitEncryptor::SplitEncryptor(BitVec split, linalg::Matrix m1,
                               linalg::Matrix m2)
    : split_(std::move(split)), m1_(std::move(m1)), m2_(std::move(m2)) {
  const std::size_t n = split_.size();
  require(n > 0, "SplitEncryptor: empty split string");
  require(m1_.rows() == n && m1_.cols() == n && m2_.rows() == n &&
              m2_.cols() == n,
          "SplitEncryptor: key matrix shape must match the split string");
  m1_inv_ = linalg::LuDecomposition(m1_).inverse();  // throws when singular
  m2_inv_ = linalg::LuDecomposition(m2_).inverse();
  m1_t_ = m1_.transpose();
  m2_t_ = m2_.transpose();
}

CipherPair SplitEncryptor::encrypt_index(const Vec& index,
                                         rng::Rng& rng) const {
  require(index.size() == dim(), "SplitEncryptor::encrypt_index: bad length");
  Vec a(dim()), b(dim());
  split_shares(index, split_, 0, rng, a.data(), b.data());
  return {m1_t_.apply(a), m2_t_.apply(b)};
}

std::vector<CipherPair> SplitEncryptor::encrypt_indexes(
    std::size_t count, const std::function<Vec(std::size_t)>& make_index,
    rng::Rng& rng) const {
  const std::size_t n = dim();
  std::vector<CipherPair> out(count);
  const std::size_t block = std::min(count, kEncryptBlock);
  linalg::Matrix share_a(block, n), share_b(block, n);
  linalg::Matrix prod_a(block, n), prod_b(block, n);
  for (std::size_t r0 = 0; r0 < count; r0 += block) {
    const std::size_t rows = std::min(block, count - r0);
    for (std::size_t r = 0; r < rows; ++r) {
      const Vec index = make_index(r0 + r);
      require(index.size() == n,
              "SplitEncryptor::encrypt_indexes: bad length");
      split_shares(index, split_, 0, rng, share_a.row_ptr(r),
                   share_b.row_ptr(r));
    }
    // Row r of the product is key_t.apply(share row r) bit for bit:
    // gemm_dots keeps gemv's per-entry chain, as encrypt_index uses it.
    const auto apply_key = [&](const linalg::Matrix& share,
                               const linalg::Matrix& key_t,
                               linalg::Matrix& prod) {
      linalg::gemm_dots(share.cview().block(0, 0, rows, n), key_t,
                        prod.view().block(0, 0, rows, n));
    };
    apply_key(share_a, m1_t_, prod_a);
    apply_key(share_b, m2_t_, prod_b);
    for (std::size_t r = 0; r < rows; ++r) {
      CipherPair& c = out[r0 + r];
      c.a.assign(prod_a.row_ptr(r), prod_a.row_ptr(r) + n);
      c.b.assign(prod_b.row_ptr(r), prod_b.row_ptr(r) + n);
    }
  }
  return out;
}

CipherPair SplitEncryptor::encrypt_trapdoor(const Vec& trapdoor,
                                            rng::Rng& rng) const {
  require(trapdoor.size() == dim(),
          "SplitEncryptor::encrypt_trapdoor: bad length");
  Vec a(dim()), b(dim());
  split_shares(trapdoor, split_, 1, rng, a.data(), b.data());
  return {m1_inv_.apply(a), m2_inv_.apply(b)};
}

Vec SplitEncryptor::decrypt_index(const CipherPair& cipher) const {
  require(cipher.a.size() == dim() && cipher.b.size() == dim(),
          "SplitEncryptor::decrypt_index: bad ciphertext");
  // Ia = (M1^T)^{-1} I'a = (M1^{-1})^T I'a, Ib likewise. apply_transposed
  // runs each entry's ascending chain from 0.0 and skips zero terms, which
  // adds nothing to a chain that starts at +0.0.
  const Vec a = m1_inv_.apply_transposed(cipher.a);
  const Vec b = m2_inv_.apply_transposed(cipher.b);
  Vec index(dim());
  for (std::size_t k = 0; k < dim(); ++k) {
    index[k] = split_[k] == 0 ? a[k] : a[k] + b[k];
  }
  return index;
}

Vec SplitEncryptor::decrypt_trapdoor(const CipherPair& cipher) const {
  require(cipher.a.size() == dim() && cipher.b.size() == dim(),
          "SplitEncryptor::decrypt_trapdoor: bad ciphertext");
  // Ta = M1 T'a, Tb = M2 T'b.
  const Vec a = m1_.apply(cipher.a);
  const Vec b = m2_.apply(cipher.b);
  Vec trapdoor(dim());
  for (std::size_t k = 0; k < dim(); ++k) {
    trapdoor[k] = split_[k] == 1 ? a[k] : a[k] + b[k];
  }
  return trapdoor;
}

}  // namespace aspe::scheme
