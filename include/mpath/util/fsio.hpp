// Atomic file publication. Result files (bench CSVs, sweep stats, fuzz
// corpus scenarios) are written to a temporary sibling and renamed into
// place, so a reader — or a re-run interrupted mid-write — never observes a
// truncated file. rename(2) within one directory is atomic on POSIX.
#pragma once

#include <string>
#include <string_view>

namespace mpath::util {

/// Atomically replace `final_path` with `tmp_path` (must be on the same
/// filesystem; both paths should share a directory). Throws
/// std::runtime_error on failure.
void atomic_replace(const std::string& tmp_path, const std::string& final_path);

/// Write `content` to `path` through a uniquely-named temporary sibling and
/// an atomic rename. Safe to call concurrently for the same `path` from
/// multiple threads: each writer publishes a complete file, last one wins.
void write_file_atomic(const std::string& path, std::string_view content);

}  // namespace mpath::util
