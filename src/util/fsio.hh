/**
 * @file
 * Crash-atomic file writes.
 *
 * Several artifacts in this repo are load-bearing across process
 * restarts: ledger manifests (run provenance) and cached FVMs
 * (characterize once). A crash mid-write — including the spurious-crash
 * class the fault injector models — must never leave a truncated file
 * that poisons the next process's read. The fix is the classic one: write the full
 * content to "<path>.tmp" in the same directory, flush, then rename
 * over the destination. rename(2) within a filesystem is atomic, so
 * readers observe either the old file or the new one, never a prefix.
 */

#ifndef UVOLT_UTIL_FSIO_HH
#define UVOLT_UTIL_FSIO_HH

#include <string>
#include <string_view>

#include "util/error.hh"

namespace uvolt
{

/**
 * Write @a content to @a path crash-atomically: parent directories are
 * created, the bytes land in "<path>.tmp", and the temp file is renamed
 * over @a path only after a successful full write. On any failure the
 * temp file is removed and the previous @a path content (if any) is
 * left untouched. I/O failures come back as an Error carrying
 * @a error_code so callers keep their own taxonomy (e.g. the ledger
 * reports cacheMiss, exactly as its non-atomic writes did).
 */
Expected<void> writeFileAtomic(const std::string &path,
                               std::string_view content,
                               Errc error_code = Errc::cacheMiss);

} // namespace uvolt

#endif // UVOLT_UTIL_FSIO_HH
