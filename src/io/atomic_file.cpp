#include "io/atomic_file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>

#include "io/format.hpp"

namespace aspe::io {

namespace {

std::string temp_path_for(const std::string& path) {
  // Same directory as the target, so the rename never crosses a file
  // system; pid and a counter keep concurrent writers apart.
  static std::atomic<unsigned long> counter{0};
  return path + ".tmp." + std::to_string(::getpid()) + "." +
         std::to_string(counter.fetch_add(1));
}

/// fsync the file or directory at `path`; false when it cannot be opened
/// or synced.
bool sync_path(const std::string& path, int flags) {
  const int fd = ::open(path.c_str(), flags | O_CLOEXEC);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

std::string directory_of(const std::string& path) {
  const auto slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  return slash == 0 ? "/" : path.substr(0, slash);
}

}  // namespace

AtomicOfstream::AtomicOfstream(const std::string& path,
                               std::ios::openmode mode)
    : path_(path), temp_path_(temp_path_for(path)) {
  open(temp_path_, mode | std::ios::out | std::ios::trunc);
  if (!is_open()) throw IoError("cannot open output file: " + path);
}

AtomicOfstream::~AtomicOfstream() {
  if (committed_) return;
  close();
  std::remove(temp_path_.c_str());
}

void AtomicOfstream::commit() {
  close();  // flushes; sets failbit when that or any earlier write failed
  if (fail() || !sync_path(temp_path_, O_WRONLY)) {
    throw IoError("write failed: " + path_);
  }
  if (std::rename(temp_path_.c_str(), path_.c_str()) != 0) {
    throw IoError("cannot replace output file: " + path_);
  }
  committed_ = true;
  // Make the rename itself durable; the new contents are already in place.
  sync_path(directory_of(path_), O_RDONLY | O_DIRECTORY);
}

}  // namespace aspe::io
