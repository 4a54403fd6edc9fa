#include "data/email_corpus.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/error.hpp"
#include "text/bloom_filter.hpp"

namespace aspe::data {

EmailCorpusGenerator::EmailCorpusGenerator(const EmailCorpusOptions& options,
                                           rng::Rng rng)
    : options_(options), rng_(std::move(rng)) {
  require(options.num_emails > 0, "EmailCorpusGenerator: need emails");
  require(options.vocabulary_size > 0, "EmailCorpusGenerator: need words");
  require(options.min_keywords >= 1 &&
              options.min_keywords <= options.max_keywords,
          "EmailCorpusGenerator: bad keyword-count range");
  require(options.duplicate_fraction >= 0.0 &&
              options.duplicate_fraction < 1.0,
          "EmailCorpusGenerator: bad duplicate fraction");
  vocabulary_.reserve(options.vocabulary_size);
  std::vector<double> word_weights;
  word_weights.reserve(options.vocabulary_size);
  for (std::size_t i = 0; i < options.vocabulary_size; ++i) {
    vocabulary_.push_back(word_for(i));
    word_index_.emplace(vocabulary_.back(), i);
    word_weights.push_back(
        1.0 / std::pow(static_cast<double>(i + 1), options.zipf_exponent));
  }
  word_sampler_ = rng::DiscreteSampler(std::move(word_weights));
  require(word_index_.size() == options.vocabulary_size,
          "EmailCorpusGenerator: vocabulary hash collision (unexpected)");
}

std::string EmailCorpusGenerator::word_for(std::size_t index) {
  // Seven pseudorandom letters (purely alphabetic: digits carry no bigrams
  // and would collapse the MKFSE bigram/LSH pipeline onto a single point;
  // sequential encodings would make all words near-identical instead).
  std::uint64_t x = index;
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  std::string word(7, 'a');
  for (auto& ch : word) {
    ch = static_cast<char>('a' + x % 26);
    x /= 26;
  }
  return word;
}

std::size_t EmailCorpusGenerator::index_for(const std::string& word) const {
  const auto it = word_index_.find(word);
  require(it != word_index_.end(), "index_for: word not in vocabulary");
  return it->second;
}

std::vector<Email> EmailCorpusGenerator::generate() {
  std::vector<Email> emails;
  emails.reserve(options_.num_emails);

  // Zipf weights over duplicate targets: early emails attract most copies.
  rng::DiscreteSampler dup_targets;

  for (std::size_t id = 0; id < options_.num_emails; ++id) {
    const bool duplicate =
        !emails.empty() && rng_.bernoulli(options_.duplicate_fraction);
    if (duplicate) {
      const std::size_t target = dup_targets.sample(rng_);
      Email e = emails[target];
      e.id = id;
      e.duplicate_of =
          emails[target].duplicate_of == Email::kUnique
              ? target
              : emails[target].duplicate_of;  // chain to the original
      emails.push_back(std::move(e));
      dup_targets.push_back(0.0);  // copies do not attract further copies
      continue;
    }
    Email e;
    e.id = id;
    const auto k = static_cast<std::size_t>(rng_.uniform_int(
        static_cast<std::int64_t>(options_.min_keywords),
        static_cast<std::int64_t>(options_.max_keywords)));
    std::unordered_set<std::size_t> chosen;
    rng::DiscreteSampler words = word_sampler_;
    while (chosen.size() < k) {
      const std::size_t w = words.sample(rng_);
      if (chosen.insert(w).second) {
        e.keywords.push_back(vocabulary_[w]);
        words.zero(w);
      }
    }
    emails.push_back(std::move(e));
    dup_targets.push_back(
        1.0 / std::pow(static_cast<double>(dup_targets.size() + 1), 1.0));
  }
  return emails;
}

std::vector<BitVec> encode_corpus(const std::vector<Email>& emails,
                                  std::size_t bits, std::size_t num_hashes,
                                  std::uint64_t seed) {
  std::vector<BitVec> rows;
  rows.reserve(emails.size());
  for (const auto& e : emails) {
    rows.push_back(text::encode_keywords(e.keywords, bits, num_hashes, seed));
  }
  return rows;
}

std::vector<std::size_t> filter_by_density(const std::vector<BitVec>& rows,
                                           double lo, double hi) {
  require(lo <= hi, "filter_by_density: lo > hi");
  std::vector<std::size_t> keep;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const double rho = density(rows[i]);
    if (rho >= lo && rho <= hi) keep.push_back(i);
  }
  return keep;
}

}  // namespace aspe::data
