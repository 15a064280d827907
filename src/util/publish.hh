/**
 * @file
 * Atomic file publication for on-disk stores shared between processes
 * (the experiment cache's results, partials, and checkpoint sets).
 */

#ifndef PBS_UTIL_PUBLISH_HH
#define PBS_UTIL_PUBLISH_HH

#include <filesystem>
#include <string>

namespace pbs::util {

/**
 * Write @p text to @p path atomically: the bytes go to a temp file
 * private to this writer (`<path>.<pid>-<n>.tmp`, n a per-process
 * counter), which is then renamed over @p path. Concurrent writers of
 * the same path — threads or processes — never share a temp file, so a
 * reader sees either no file or one writer's complete text, never an
 * interleaving. Temp names keep the `.tmp` extension so cache gc can
 * sweep leftovers of crashed writers. Missing parent directories are
 * created. @return false on any I/O failure (the temp file is removed).
 */
bool publishFile(const std::filesystem::path &path, const std::string &text);

}  // namespace pbs::util

#endif  // PBS_UTIL_PUBLISH_HH
