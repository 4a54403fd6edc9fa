// DiscreteSampler against std::discrete_distribution, draw for draw, and
// golden hashes of the corpora the generators build on it.
#include "rng/discrete_sampler.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "data/email_corpus.hpp"
#include "data/quest.hpp"
#include "scheme/mrse.hpp"
#include "sse/system.hpp"

namespace aspe {
namespace {

/// Draw from the sampler and from Rng::discrete (a fresh
/// std::discrete_distribution over the same weights) on twin engines.
void expect_same_draw(rng::DiscreteSampler& sampler, rng::Rng& fast,
                      rng::Rng& reference, const std::string& where) {
  const std::size_t want = reference.discrete(sampler.weights());
  ASSERT_EQ(sampler.sample(fast), want) << where;
}

/// Engines that drew the same number of values agree on the next one.
void expect_engines_in_step(rng::Rng& a, rng::Rng& b) {
  EXPECT_EQ(a.engine()(), b.engine()());
}

std::vector<double> weights_of_kind(std::size_t n, int kind, rng::Rng& gen) {
  std::vector<double> w(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i + 1);
    switch (kind) {
      case 0: w[i] = gen.uniform(0.0, 1.0); break;  // flat
      case 1: w[i] = 1.0 / std::pow(x, 1.1); break;  // Zipf
      case 2: w[i] = std::exp(gen.uniform(-30.0, 30.0)); break;  // wide range
      default: w[i] = gen.bernoulli(0.3) ? 0.0 : gen.uniform(0.0, 2.0);
    }
  }
  if (kind == 3 && n > 0) w[n / 2] = 1.0;  // keep the sum positive
  return w;
}

std::size_t nonzero(const std::vector<double>& w) {
  std::size_t k = 0;
  for (const double x : w) k += x != 0.0 ? 1 : 0;
  return k;
}

TEST(DiscreteSampler, MatchesStdDiscreteDistributionUnderZeroing) {
  for (const std::size_t n : {1, 2, 100, 3000}) {
    for (int kind = 0; kind < 4; ++kind) {
      rng::Rng gen(1000 + 10 * n + kind);
      rng::DiscreteSampler sampler(weights_of_kind(n, kind, gen));
      rng::Rng fast(n * 7 + kind), reference(n * 7 + kind);
      const std::string where =
          "n=" + std::to_string(n) + " kind=" + std::to_string(kind);
      // Draw, zero the answer (sampling without replacement) and now and
      // then another entry, until fewer than two weights are left.
      for (int step = 0; step < 400 && nonzero(sampler.weights()) >= 2;
           ++step) {
        const std::size_t got = sampler.sample(fast);
        ASSERT_EQ(got, reference.discrete(sampler.weights()))
            << where << " step " << step;
        sampler.zero(got);
        if (gen.bernoulli(0.3)) {
          sampler.zero(static_cast<std::size_t>(
              gen.uniform_int(0, static_cast<std::int64_t>(n) - 1)));
        }
      }
      // The last weight standing, then a size below two: no engine draw.
      expect_same_draw(sampler, fast, reference, where + " tail");
      expect_engines_in_step(fast, reference);
    }
  }
}

TEST(DiscreteSampler, FewerThanTwoWeightsReturnZeroWithoutDrawing) {
  rng::Rng fast(5), reference(5);
  rng::DiscreteSampler empty;
  EXPECT_EQ(empty.sample(fast), 0u);
  rng::DiscreteSampler one({3.0});
  EXPECT_EQ(one.sample(fast), 0u);
  EXPECT_EQ(reference.discrete({3.0}), 0u);
  expect_engines_in_step(fast, reference);
}

TEST(DiscreteSampler, MatchesStdWhileGrowingLikeDuplicateTargets) {
  // The email generator's duplicate targets: weights appended one at a
  // time, zeros among them, drawn from between appends.
  rng::DiscreteSampler sampler;
  rng::Rng fast(77), reference(77), gen(78);
  for (std::size_t i = 0; i < 1500; ++i) {
    if (sampler.size() >= 1 && gen.bernoulli(0.3)) {
      expect_same_draw(sampler, fast, reference, "append " + std::to_string(i));
      sampler.push_back(0.0);
    } else {
      sampler.push_back(1.0 / static_cast<double>(sampler.size() + 1));
    }
  }
  expect_engines_in_step(fast, reference);
  EXPECT_EQ(sampler.exact_sum_draws(), 0u);
}

TEST(DiscreteSampler, ExactSumFallbackMatchesStd) {
  // Zeroing a weight that dwarfs the rest leaves the cached sum's error
  // bound wider than the remaining sum (every draw falls back), or, with a
  // smaller giant, wide enough that the two bracketing scans often
  // disagree (some draws fall back).
  for (const double giant : {1e20, 1e12}) {
    std::vector<double> w(1001, 1.0);
    w[0] = giant;
    rng::DiscreteSampler sampler(w);
    rng::Rng fast(9), reference(9);
    expect_same_draw(sampler, fast, reference, "before zeroing");
    sampler.zero(0);
    for (int step = 0; step < 300; ++step) {
      expect_same_draw(sampler, fast, reference, "step " + std::to_string(step));
    }
    expect_engines_in_step(fast, reference);
    if (giant > 1e18) {
      EXPECT_EQ(sampler.exact_sum_draws(), 300u);
    } else {
      EXPECT_GT(sampler.exact_sum_draws(), 0u);
      EXPECT_LT(sampler.exact_sum_draws(), 300u);
    }
  }
}

TEST(DiscreteSampler, ZipfKeywordDrawsStayOnTheCachedSum) {
  // The email generator's case: 3,000 Zipf words, up to 60 removed.
  std::vector<double> w(3000);
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] = 1.0 / std::pow(static_cast<double>(i + 1), 1.1);
  }
  const rng::DiscreteSampler base(w);
  rng::Rng fast(31), reference(31);
  std::size_t exact = 0;
  for (int email = 0; email < 50; ++email) {
    rng::DiscreteSampler words = base;
    for (int k = 0; k < 60; ++k) {
      const std::size_t got = words.sample(fast);
      ASSERT_EQ(got, reference.discrete(words.weights()));
      words.zero(got);
    }
    exact += words.exact_sum_draws();
  }
  EXPECT_EQ(exact, 0u);
}

TEST(DiscreteSampler, RejectsBadWeights) {
  EXPECT_THROW(rng::DiscreteSampler({1.0, -1.0}), InvalidArgument);
  EXPECT_THROW(rng::DiscreteSampler({1.0, std::nan("")}), InvalidArgument);
  rng::DiscreteSampler s({1.0, 2.0});
  EXPECT_THROW(s.push_back(-0.5), InvalidArgument);
  EXPECT_THROW(s.zero(2), InvalidArgument);
}

// ------------------------------------------------------------------ goldens

/// FNV-1a, 64-bit.
struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void bytes(const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= c[i];
      h *= 1099511628211ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void bits(const BitVec& v) {
    u64(v.size());
    bytes(v.data(), v.size());
  }
  void vec(const Vec& v) {
    u64(v.size());
    bytes(v.data(), v.size() * sizeof(double));
  }
};

// The hashes below were captured from the generators as they stood before
// DiscreteSampler replaced a std::discrete_distribution per draw.

TEST(CorpusGolden, QuestGeneratorOutputIsPinned) {
  const struct {
    std::uint64_t seed;
    double rho;
    std::uint64_t hash;
  } cases[] = {{1, 0.35, 0x24d6648e5f989c7eULL},
               {2017, 0.20, 0x605f07ffeab09e31ULL},
               {4099, 0.05, 0x940eebb28c4a4c1eULL}};
  for (const auto& c : cases) {
    data::QuestOptions opt;
    opt.num_items = 100;
    opt.density = c.rho;
    opt.num_transactions = 100;
    Fnv f;
    for (const auto& row :
         data::QuestGenerator(opt, rng::Rng(c.seed)).generate()) {
      f.bits(row);
    }
    EXPECT_EQ(f.h, c.hash) << "seed " << c.seed << " rho " << c.rho;
  }
}

TEST(CorpusGolden, EmailCorpusGeneratorOutputIsPinned) {
  const struct {
    std::uint64_t seed;
    std::size_t emails;
    std::uint64_t hash;
  } cases[] = {{2017, 1500, 0x187a4ce1b62457fbULL},
               {4099, 3000, 0xfa89b1b261440532ULL},
               {7331, 1500, 0x46e1d5683167043aULL}};
  for (const auto& c : cases) {
    data::EmailCorpusOptions opt;
    opt.num_emails = c.emails;
    opt.vocabulary_size = 3000;
    Fnv f;
    for (const auto& e :
         data::EmailCorpusGenerator(opt, rng::Rng(c.seed)).generate()) {
      f.u64(e.id);
      f.u64(e.duplicate_of);
      for (const auto& w : e.keywords) {
        f.u64(w.size());
        f.bytes(w.data(), w.size());
      }
    }
    EXPECT_EQ(f.h, c.hash) << "seed " << c.seed << " emails " << c.emails;
  }
}

TEST(CorpusGolden, MrseUploadCiphertextsArePinned) {
  data::QuestOptions q;
  q.num_items = 60;
  q.density = 0.2;
  q.num_transactions = 90;
  const auto records = data::QuestGenerator(q, rng::Rng(5)).generate();
  scheme::MrseOptions opt;
  opt.vocab_dim = 60;
  opt.sigma = 0.5;
  sse::RankedSearchSystem system(opt, 11);
  system.upload_records(records);
  Fnv f;
  for (const auto& c : system.server().indexes()) {
    f.vec(c.a);
    f.vec(c.b);
  }
  EXPECT_EQ(f.h, 0x9446c55844cd86beULL);
}

}  // namespace
}  // namespace aspe
