// Crash-safe file replacement.
//
// AtomicOfstream writes to a temporary file next to its target. commit()
// flushes and fsyncs that file, renames it over the target and fsyncs the
// directory, so the target always holds either its previous contents or
// the complete new ones: a writer killed mid-write (or one that throws)
// leaves the previous file loadable. Destroyed without commit(), the stream
// removes its temporary file and the target is untouched; a process killed
// outright can leave the temporary file behind, never a torn target.
#pragma once

#include <fstream>
#include <string>

namespace aspe::io {

class AtomicOfstream : public std::ofstream {
 public:
  /// Opens the temporary file; throws IoError when it cannot be created.
  explicit AtomicOfstream(const std::string& path,
                          std::ios::openmode mode = std::ios::out);
  AtomicOfstream(const AtomicOfstream&) = delete;
  AtomicOfstream& operator=(const AtomicOfstream&) = delete;
  ~AtomicOfstream() override;

  /// Make the written contents the target's. Throws IoError (and leaves the
  /// target untouched) when a write, the fsync or the rename failed.
  void commit();

  [[nodiscard]] const std::string& temp_path() const { return temp_path_; }

 private:
  std::string path_;
  std::string temp_path_;
  bool committed_ = false;
};

}  // namespace aspe::io
