// Synthetic email corpus — the offline stand-in for the Enron data set.
//
// §VI of the paper uses Enron only through a few statistics: a pile of
// ~40k documents with Zipfian keyword frequencies, each encoded as a
// 500-bit bloom filter (h hash functions per keyword) whose density lands in
// [5%, 35%], and a heavy tail of *duplicate* documents (Table IV's frequency
// analysis: the most frequent email repeats 27 times in a 2000-document
// sample). This generator reproduces exactly those statistics; see DESIGN.md
// §4.4 for the substitution argument.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "rng/discrete_sampler.hpp"
#include "rng/rng.hpp"

namespace aspe::data {

struct Email {
  std::size_t id = 0;
  std::vector<std::string> keywords;  // distinct keywords
  std::size_t duplicate_of = kUnique; // index of the original, or kUnique

  static constexpr std::size_t kUnique = static_cast<std::size_t>(-1);
};

struct EmailCorpusOptions {
  std::size_t num_emails = 2000;
  std::size_t vocabulary_size = 5000;
  double zipf_exponent = 1.1;       // word-frequency tail
  std::size_t min_keywords = 8;
  std::size_t max_keywords = 60;
  /// Fraction of emails that are verbatim duplicates of an earlier email
  /// (mailing-list copies, forwards). Duplicate targets are Zipf-weighted so
  /// a few emails accumulate many copies, as in Enron.
  double duplicate_fraction = 0.05;
};

class EmailCorpusGenerator {
 public:
  EmailCorpusGenerator(const EmailCorpusOptions& options, rng::Rng rng);

  [[nodiscard]] std::vector<Email> generate();

  /// The synthetic vocabulary (alphabetic words, popularity Zipfian in
  /// index order). Words are purely alphabetic so bigram/LSH pipelines see
  /// realistic letter structure.
  [[nodiscard]] const std::vector<std::string>& vocabulary() const {
    return vocabulary_;
  }

  /// The i-th vocabulary word: 7 pseudorandom lowercase letters derived from
  /// the index (diverse bigram structure, unlike sequential encodings whose
  /// near-identical spellings would legitimately collide under LSH).
  [[nodiscard]] static std::string word_for(std::size_t index);

  /// Inverse of word_for over this generator's vocabulary (throws
  /// InvalidArgument for words outside it).
  [[nodiscard]] std::size_t index_for(const std::string& word) const;

 private:
  EmailCorpusOptions options_;
  rng::Rng rng_;
  std::vector<std::string> vocabulary_;
  rng::DiscreteSampler word_sampler_;  // Zipf word popularity
  std::unordered_map<std::string, std::size_t> word_index_;
};

/// Encode each email as a `bits`-length bloom filter (num_hashes per
/// keyword, deterministic in `seed`) — the paper's document representation.
[[nodiscard]] std::vector<BitVec> encode_corpus(const std::vector<Email>& emails,
                                                std::size_t bits,
                                                std::size_t num_hashes,
                                                std::uint64_t seed);

/// Keep only vectors whose density lies in [lo, hi] (the paper selects
/// records with density in [5%, 35%]); returns indices into the input.
[[nodiscard]] std::vector<std::size_t> filter_by_density(
    const std::vector<BitVec>& rows, double lo, double hi);

}  // namespace aspe::data
