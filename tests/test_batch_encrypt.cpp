// The batch-shaped victim side against its per-record forms, byte for
// byte: batched MRSE uploads, the column-parallel LU solve and decryption
// without cached inverse transposes.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "data/quest.hpp"
#include "linalg/lu.hpp"
#include "linalg/random_matrix.hpp"
#include "par/thread_pool.hpp"
#include "rng/rng.hpp"
#include "scheme/mrse.hpp"
#include "scheme/split_encryptor.hpp"
#include "sse/system.hpp"

namespace aspe {
namespace {

using linalg::LuDecomposition;
using linalg::Matrix;

/// Sets the process-default pool width for one scope.
struct DefaultThreads {
  explicit DefaultThreads(std::size_t n) { par::set_default_threads(n); }
  ~DefaultThreads() { par::set_default_threads(0); }
};

bool same_bytes(const Vec& x, const Vec& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
}

bool same_bytes(const Matrix& x, const Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data().data(), y.data().data(),
                     x.data().size() * sizeof(double)) == 0;
}

std::vector<BitVec> quest_records(std::size_t d, std::size_t count,
                                  std::uint64_t seed) {
  data::QuestOptions q;
  q.num_items = d;
  q.density = 0.2;
  q.num_transactions = count;
  return data::QuestGenerator(q, rng::Rng(seed)).generate();
}

TEST(BatchEncrypt, UploadMatchesPerRecordEncryptionAtOneAndFourThreads) {
  // d = 300 puts every full block above the parallel threshold; 150
  // records end in a partial block whose last row tile is partial too.
  for (const std::size_t d : {20, 300}) {
    const auto records = quest_records(d, 150, d);
    scheme::MrseOptions opt;
    opt.vocab_dim = d;
    const std::uint64_t seed = 4242 + d;

    // The per-record path the batch replaces: one encrypt_record (build
    // the noisy index, split it, two gemv products) per record, in order.
    rng::Rng ref_rng(seed);
    const scheme::Mrse ref_scheme(opt, ref_rng);
    std::vector<scheme::CipherPair> want;
    for (const auto& p : records) {
      want.push_back(ref_scheme.encrypt_record(p, ref_rng));
    }
    const std::uint64_t ref_next = ref_rng.engine()();

    for (const std::size_t threads : {1, 4}) {
      const DefaultThreads width(threads);
      sse::RankedSearchSystem system(opt, seed);
      system.upload_records(records);
      const auto& got = system.server().indexes();
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_TRUE(same_bytes(got[i].a, want[i].a) &&
                    same_bytes(got[i].b, want[i].b))
            << "d=" << d << " record " << i << " at " << threads
            << " threads";
      }
      EXPECT_EQ(system.records(), records);

      // The batch consumed exactly the per-record draws.
      rng::Rng batch_rng(seed);
      const scheme::Mrse batch_scheme(opt, batch_rng);
      const auto batch = batch_scheme.encrypt_records(records, batch_rng);
      EXPECT_EQ(batch.size(), records.size());
      EXPECT_EQ(batch_rng.engine()(), ref_next);
    }
  }
}

TEST(BatchEncrypt, EncryptIndexesMatchesEncryptIndexIncludingEmptyBatch) {
  rng::Rng key_rng(8);
  const scheme::SplitEncryptor enc(77, key_rng);
  // Each index is drawn from the stream right before its shares, so the
  // batch sees the same interleaving as the per-index loop.
  rng::Rng a(3), b(3);
  std::vector<scheme::CipherPair> want;
  for (int i = 0; i < 9; ++i) {
    want.push_back(enc.encrypt_index(a.uniform_vec(77, -4.0, 4.0), a));
  }
  std::size_t made = 0;
  const auto got = enc.encrypt_indexes(
      want.size(),
      [&](std::size_t) {
        ++made;
        return b.uniform_vec(77, -4.0, 4.0);
      },
      b);
  EXPECT_EQ(made, want.size());
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(same_bytes(got[i].a, want[i].a) &&
                same_bytes(got[i].b, want[i].b))
        << i;
  }
  EXPECT_EQ(a.engine()(), b.engine()());
  EXPECT_TRUE(enc.encrypt_indexes(0, [](std::size_t) { return Vec{}; }, b)
                  .empty());
  EXPECT_THROW((void)enc.encrypt_indexes(
                   1, [](std::size_t) { return Vec(3, 1.0); }, b),
               InvalidArgument);
}

TEST(LuParallelSolve, MatchesSerialAndColumnByColumnAtOneAndFourThreads) {
  rng::Rng rng(509);
  for (const std::size_t n : {40, 131, 300}) {
    const Matrix a = linalg::random_invertible(n, rng);
    const LuDecomposition lu(a);
    for (const std::size_t k : {std::size_t{1}, std::size_t{33}, n}) {
      Matrix rhs(n, k);
      for (auto& v : rhs.data()) v = rng.uniform(-2.0, 2.0);
      Matrix column_by_column(n, k);
      for (std::size_t c = 0; c < k; ++c) {
        lu.solve_into(rhs.cview().col(c), column_by_column.view().col(c));
      }
      Matrix serial, parallel;
      {
        const DefaultThreads width(1);
        serial = lu.solve(rhs);
      }
      {
        const DefaultThreads width(4);
        parallel = lu.solve(rhs);
      }
      EXPECT_TRUE(same_bytes(serial, column_by_column)) << n << "x" << k;
      EXPECT_TRUE(same_bytes(parallel, column_by_column)) << n << "x" << k;
    }
  }
}

TEST(SplitEncryptorBitwise, DecryptIndexMatchesInverseTransposePath) {
  // decrypt_index once applied cached transposes of M1^{-1} and M2^{-1}
  // with gemv; apply_transposed on the inverses must give the same bytes.
  for (const std::size_t dim : {5, 64, 309}) {
    rng::Rng rng(dim);
    const scheme::SplitEncryptor enc(dim, rng);
    const Matrix m1_inv_t = LuDecomposition(enc.m1()).inverse().transpose();
    const Matrix m2_inv_t = LuDecomposition(enc.m2()).inverse().transpose();
    for (int trial = 0; trial < 5; ++trial) {
      Vec index = rng.uniform_vec(dim, -3.0, 3.0);
      for (std::size_t k = 0; k < dim; k += 3) index[k] = 0.0;
      scheme::CipherPair c = enc.encrypt_index(index, rng);
      c.a[trial % dim] = 0.0;  // exact zeros in the ciphertext as well
      c.b[(trial + 1) % dim] = -0.0;
      const Vec a = m1_inv_t.apply(c.a);
      const Vec b = m2_inv_t.apply(c.b);
      Vec want(dim);
      for (std::size_t k = 0; k < dim; ++k) {
        want[k] = enc.split_string()[k] == 0 ? a[k] : a[k] + b[k];
      }
      EXPECT_TRUE(same_bytes(enc.decrypt_index(c), want))
          << "dim " << dim << " trial " << trial;
    }
  }
}

}  // namespace
}  // namespace aspe
