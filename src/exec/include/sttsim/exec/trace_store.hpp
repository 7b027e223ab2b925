// Persistent, digest-keyed compressed-trace store: the cold-path
// memoization layer behind `--trace-store=PATH`.
//
// Synthesizing a kernel's memory trace is a large layer of a cold
// campaign, and the trace is a pure function of (kernel, codegen options,
// trace format version). This store persists each trace's serialized
// compressed blob (≈3.3 bytes/op) keyed by experiments::trace_digest, so
// experiments::load_or_synthesize on a warm run decodes straight from disk
// and synthesizes nothing.
//
// A typed view of exec::AppendLog (append_log.hpp), which holds the file
// format, the durability model and the multi-process sharing rules. The
// header magic is "STTTRCS1"; the aux word holds the caller's content
// version (the harness passes cpu::kTraceFormatVersion, so a format bump
// re-initializes the file). Blobs are variable-length, up to kMaxBlobBytes.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sttsim/exec/append_log.hpp"

namespace sttsim::exec {

class TraceStore : private AppendLog {
 public:
  /// Bumped whenever the record layout changes. The blob encoding itself is
  /// versioned by the content version and by the digest, which folds both.
  static constexpr std::uint32_t kSchemaVersion = 1;

  /// "STTTRCS1" — trace-store log.
  static constexpr std::uint64_t kMagic = 0x3153435254545453ULL;

  /// Opens (creating or loading) the store at `path`. `content_version` is
  /// stamped into the header's aux word; a file recorded under a different
  /// content version or schema is re-initialized empty. Throws
  /// std::runtime_error — naming the path and the failing condition — when
  /// the path is a directory or cannot be opened read-write.
  explicit TraceStore(std::string path, std::uint32_t content_version = 0)
      : AppendLog(std::move(path), "trace store", kMagic, kSchemaVersion,
                  content_version, kAnyLength) {}

  using AppendLog::append;
  using AppendLog::contains;
  using AppendLog::dropped_records;
  using AppendLog::entries;
  using AppendLog::kMaxBlobBytes;
  using AppendLog::path;
  using AppendLog::refresh;
  using AppendLog::truncated_bytes;

  /// Copies the blob for `digest` into `out` (replacing its contents).
  /// Returns false on miss. Thread-safe.
  bool lookup(std::uint64_t digest, std::vector<std::uint8_t>& out) const {
    return AppendLog::lookup(digest, out);
  }
};

/// Process-wide active trace store, consulted by
/// experiments::load_or_synthesize (the benches' and CLI's
/// `--trace-store=PATH` flag installs one; nullptr — the default —
/// disables trace persistence). Not owning.
namespace detail {
inline std::atomic<TraceStore*> active_trace_store{nullptr};
}  // namespace detail
inline void set_trace_store(TraceStore* store) {
  detail::active_trace_store.store(store, std::memory_order_release);
}
inline TraceStore* trace_store() {
  return detail::active_trace_store.load(std::memory_order_acquire);
}

}  // namespace sttsim::exec
