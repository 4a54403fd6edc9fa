#include "io/session_io.hpp"

#include <cmath>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>

#include "common/error.hpp"
#include "io/atomic_file.hpp"
#include "io/serialization.hpp"

namespace aspe::io {

namespace {

constexpr int kSnapshotVersion = 1;

void write_frame(std::ostream& os, const char* tag) {
  os << tag << ' ' << kSnapshotVersion << '\n';
}

void read_frame(std::istream& is, const std::string& want) {
  std::string tag;
  int version = 0;
  if (!(is >> tag) || tag != want) {
    throw IoError("session snapshot: expected '" + want + "' frame");
  }
  if (!(is >> version) || version != kSnapshotVersion) {
    throw IoError("session snapshot: unsupported version");
  }
}

/// Counts and flags ride in single-element vec records; a count must be a
/// non-negative integer small enough to index with.
void write_count(std::ostream& os, std::size_t n) {
  detail::write_vec(os, {static_cast<double>(n)});
}

std::size_t read_count(std::istream& is, const char* what) {
  const Vec v = detail::read_vec(is);
  if (v.size() != 1 || !(v[0] >= 0.0) || v[0] != std::floor(v[0]) ||
      v[0] > 9e15) {
    throw IoError(std::string("session snapshot: malformed count for ") +
                  what);
  }
  return static_cast<std::size_t>(v[0]);
}

}  // namespace

// --------------------------------------------------------------- CoaSession

void save_coa_session(std::ostream& os, const core::CoaSessionSnapshot& s) {
  write_frame(os, "coa_session");
  detail::write_matrix(os, s.index_a);
  detail::write_matrix(os, s.index_b);
  detail::write_matrix(os, s.trapdoor_a);
  detail::write_matrix(os, s.trapdoor_b);
  detail::write_matrix(os, s.scores);
  write_count(os, s.factorization ? 1 : 0);
  if (s.factorization) {
    detail::write_matrix(os, s.factorization->w);
    detail::write_matrix(os, s.factorization->h);
    detail::write_vec(os, {s.factorization->objective,
                           s.factorization->fit_error,
                           static_cast<double>(s.factorization->iterations)});
  }
  if (!os) throw IoError("session snapshot: write failed");
}

core::CoaSessionSnapshot load_coa_session(std::istream& is) {
  read_frame(is, "coa_session");
  core::CoaSessionSnapshot s;
  s.index_a = detail::read_matrix(is);
  s.index_b = detail::read_matrix(is);
  s.trapdoor_a = detail::read_matrix(is);
  s.trapdoor_b = detail::read_matrix(is);
  s.scores = detail::read_matrix(is);
  const std::size_t has_factorization = read_count(is, "factorization flag");
  if (has_factorization > 1) {
    throw IoError("session snapshot: factorization flag must be 0 or 1");
  }
  if (has_factorization == 1) {
    nmf::NmfResult f;
    f.w = detail::read_matrix(is);
    f.h = detail::read_matrix(is);
    const Vec scalars = detail::read_vec(is);
    if (scalars.size() != 3 || scalars[2] < 0.0 ||
        scalars[2] != std::floor(scalars[2])) {
      throw IoError("session snapshot: malformed factorization scalars");
    }
    f.objective = scalars[0];
    f.fit_error = scalars[1];
    f.iterations = static_cast<std::size_t>(scalars[2]);
    s.factorization = std::move(f);
  }
  return s;
}

void save_coa_session(const std::string& path,
                      const core::CoaSessionSnapshot& s) {
  AtomicOfstream os(path);
  save_coa_session(os, s);
  os.commit();
}

core::CoaSessionSnapshot load_coa_session(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw IoError("cannot open input file: " + path);
  return load_coa_session(is);
}

// --------------------------------------------------------------- LepSession

void save_lep_session(std::ostream& os, const core::LepSessionSnapshot& s) {
  write_frame(os, "lep_session");
  detail::write_vec(os, {static_cast<double>(s.dimension),
                         static_cast<double>(s.warm_resolves)});
  write_count(os, s.chosen_pairs.size());
  for (const auto& pair : s.chosen_pairs) {
    detail::write_vec(os, pair.plain_index);
    detail::write_cipher_pair(os, pair.cipher);
  }
  write_count(os, s.trapdoor_ciphers.size());
  for (const auto& c : s.trapdoor_ciphers) detail::write_cipher_pair(os, c);
  write_count(os, s.trapdoors.size());
  for (const auto& t : s.trapdoors) detail::write_vec(os, t);
  write_count(os, s.index_ciphers.size());
  for (const auto& c : s.index_ciphers) detail::write_cipher_pair(os, c);
  write_count(os, s.indexes.size());
  for (const auto& v : s.indexes) detail::write_vec(os, v);
  if (!os) throw IoError("session snapshot: write failed");
}

core::LepSessionSnapshot load_lep_session(std::istream& is) {
  read_frame(is, "lep_session");
  core::LepSessionSnapshot s;
  const Vec scalars = detail::read_vec(is);
  if (scalars.size() != 2 || scalars[0] < 0.0 || scalars[1] < 0.0 ||
      scalars[0] != std::floor(scalars[0]) ||
      scalars[1] != std::floor(scalars[1])) {
    throw IoError("session snapshot: malformed lep_session scalars");
  }
  s.dimension = static_cast<std::size_t>(scalars[0]);
  s.warm_resolves = static_cast<std::size_t>(scalars[1]);
  const std::size_t num_pairs = read_count(is, "known pairs");
  s.chosen_pairs.reserve(num_pairs);
  for (std::size_t i = 0; i < num_pairs; ++i) {
    sse::KnownIndexPair pair;
    pair.plain_index = detail::read_vec(is);
    pair.cipher = detail::read_cipher_pair(is);
    s.chosen_pairs.push_back(std::move(pair));
  }
  const std::size_t num_trapdoor_ciphers = read_count(is, "cipher trapdoors");
  s.trapdoor_ciphers.reserve(num_trapdoor_ciphers);
  for (std::size_t i = 0; i < num_trapdoor_ciphers; ++i) {
    s.trapdoor_ciphers.push_back(detail::read_cipher_pair(is));
  }
  const std::size_t num_trapdoors = read_count(is, "solved trapdoors");
  s.trapdoors.reserve(num_trapdoors);
  for (std::size_t i = 0; i < num_trapdoors; ++i) {
    s.trapdoors.push_back(detail::read_vec(is));
  }
  const std::size_t num_index_ciphers = read_count(is, "cipher indexes");
  s.index_ciphers.reserve(num_index_ciphers);
  for (std::size_t i = 0; i < num_index_ciphers; ++i) {
    s.index_ciphers.push_back(detail::read_cipher_pair(is));
  }
  const std::size_t num_indexes = read_count(is, "solved indexes");
  s.indexes.reserve(num_indexes);
  for (std::size_t i = 0; i < num_indexes; ++i) {
    s.indexes.push_back(detail::read_vec(is));
  }
  return s;
}

void save_lep_session(const std::string& path,
                      const core::LepSessionSnapshot& s) {
  AtomicOfstream os(path);
  save_lep_session(os, s);
  os.commit();
}

core::LepSessionSnapshot load_lep_session(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw IoError("cannot open input file: " + path);
  return load_lep_session(is);
}

}  // namespace aspe::io
