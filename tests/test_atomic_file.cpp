// Crash-safe writes (io/atomic_file.hpp): a save that is killed or fails
// mid-write leaves the previous file loadable.
#include "io/atomic_file.hpp"

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "io/format.hpp"
#include "io/session_io.hpp"
#include "rng/rng.hpp"

namespace aspe::io {
namespace {

namespace fs = std::filesystem;

/// A fresh directory per test, removed afterwards.
class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_(fs::temp_directory_path() /
              ("aspe_" + name + "_" + std::to_string(::getpid()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  [[nodiscard]] std::string file(const std::string& name) const {
    return (path_ / name).string();
  }
  /// Entries other than `keep`.
  [[nodiscard]] std::vector<std::string> others(const std::string& keep) const {
    std::vector<std::string> out;
    for (const auto& e : fs::directory_iterator(path_)) {
      if (e.path().filename() != keep) out.push_back(e.path().string());
    }
    return out;
  }

 private:
  fs::path path_;
};

std::string read_all(const std::string& path) {
  std::ifstream is(path);
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

linalg::Matrix filled(std::size_t n, rng::Rng& rng) {
  linalg::Matrix m(n, n);
  for (auto& v : m.data()) v = rng.uniform(-1.0, 1.0);
  return m;
}

core::CoaSessionSnapshot coa_snapshot(std::size_t n, std::uint64_t seed) {
  rng::Rng rng(seed);
  core::CoaSessionSnapshot s;
  s.index_a = filled(n, rng);
  s.index_b = filled(n, rng);
  s.trapdoor_a = filled(n, rng);
  s.trapdoor_b = filled(n, rng);
  s.scores = filled(n, rng);
  return s;
}

core::LepSessionSnapshot lep_snapshot(std::size_t n, std::uint64_t seed) {
  rng::Rng rng(seed);
  core::LepSessionSnapshot s;
  s.dimension = n;
  for (std::size_t i = 0; i < n; ++i) {
    s.trapdoor_ciphers.push_back(
        {rng.uniform_vec(n, -1.0, 1.0), rng.uniform_vec(n, -1.0, 1.0)});
  }
  return s;
}

/// Run `save` in a child whose file-size limit is far below what it
/// writes: the kernel kills it with SIGXFSZ partway through the write.
void run_killed_mid_write(const std::function<void()>& save) {
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    const rlimit no_core{0, 0};
    ::setrlimit(RLIMIT_CORE, &no_core);
    const rlimit small{16384, 16384};
    ::setrlimit(RLIMIT_FSIZE, &small);
    save();
    ::_exit(0);  // not reached: the write past the limit is fatal
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "the save was not interrupted";
  EXPECT_EQ(WTERMSIG(status), SIGXFSZ);
}

TEST(AtomicFile, CommitReplacesTargetAndLeavesNoTempFile) {
  const TempDir dir("atomic_commit");
  const std::string path = dir.file("out.txt");
  std::ofstream(path) << "old\n";
  {
    AtomicOfstream f(path);
    f << "new\n";
    EXPECT_EQ(read_all(path), "old\n");  // not visible before commit
    f.commit();
  }
  EXPECT_EQ(read_all(path), "new\n");
  EXPECT_TRUE(dir.others("out.txt").empty());
}

TEST(AtomicFile, AbandonedWriteLeavesTargetAndRemovesTempFile) {
  const TempDir dir("atomic_abandon");
  const std::string path = dir.file("out.txt");
  std::ofstream(path) << "old\n";
  {
    AtomicOfstream f(path);
    f << "half a rec";
  }  // destroyed without commit(), as when a writer throws
  EXPECT_EQ(read_all(path), "old\n");
  EXPECT_TRUE(dir.others("out.txt").empty());
  EXPECT_THROW(AtomicOfstream(dir.file("missing/out.txt")), IoError);
}

TEST(SessionIoCrash, CoaSaveKilledMidWriteLeavesPreviousSnapshotLoadable) {
  const TempDir dir("coa_crash");
  const std::string path = dir.file("coa.session");
  const core::CoaSessionSnapshot old_snapshot = coa_snapshot(3, 1);
  save_coa_session(path, old_snapshot);
  // About 300 KB of text: far past the child's 16 KiB limit.
  run_killed_mid_write([&] { save_coa_session(path, coa_snapshot(60, 2)); });
  const core::CoaSessionSnapshot loaded = load_coa_session(path);
  EXPECT_TRUE(loaded.scores == old_snapshot.scores);
  EXPECT_TRUE(loaded.index_a == old_snapshot.index_a);
  // The killed writer's partial temporary file is all it left behind.
  EXPECT_EQ(dir.others("coa.session").size(), 1u);
}

TEST(SessionIoCrash, LepSaveKilledMidWriteLeavesPreviousSnapshotLoadable) {
  const TempDir dir("lep_crash");
  const std::string path = dir.file("lep.session");
  const core::LepSessionSnapshot old_snapshot = lep_snapshot(3, 3);
  save_lep_session(path, old_snapshot);
  run_killed_mid_write([&] { save_lep_session(path, lep_snapshot(80, 4)); });
  const core::LepSessionSnapshot loaded = load_lep_session(path);
  EXPECT_EQ(loaded.dimension, 3u);
  ASSERT_EQ(loaded.trapdoor_ciphers.size(), 3u);
  EXPECT_EQ(loaded.trapdoor_ciphers[2].b, old_snapshot.trapdoor_ciphers[2].b);
}

}  // namespace
}  // namespace aspe::io
