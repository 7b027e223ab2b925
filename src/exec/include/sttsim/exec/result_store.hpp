// Persistent, digest-keyed result store: the campaign-level memoization
// layer behind `--store=PATH`.
//
// A typed view of exec::AppendLog (append_log.hpp), which holds the file
// format, the durability model and the multi-process sharing rules. The
// experiment engine keys records by a stable 64-bit digest of the *full*
// simulation input (experiments::simulation_digest) and stores the complete
// encoded RunStats record, so a warm re-run of a figure probes the store
// instead of simulating and a one-parameter grid edit recomputes only the
// dirty points.
//
// Every record of a result store has the same payload size, which the
// header's aux word pins: a file written with another size re-initializes
// empty, and a record of any other length is skipped on load like a
// corrupt one, so it never shadows the correct record for its digest. The
// header magic is "STTRSLT2"; files of the fixed-record "STTRSLT1" layout
// re-initialize empty as well.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

#include "sttsim/exec/append_log.hpp"

namespace sttsim::exec {

class ResultStore : private AppendLog {
 public:
  /// Bumped whenever the meaning of stored payloads changes (e.g. RunStats
  /// gains a counter). Mixed into every simulation digest as well, so
  /// schema changes invalidate keys and files alike.
  static constexpr std::uint32_t kSchemaVersion = 2;

  /// "STTRSLT2" — result-store log with length-prefixed records.
  static constexpr std::uint64_t kMagic = 0x32544c5352545453ULL;

  /// Opens (creating or loading) the store at `path`. `payload_bytes` is
  /// the fixed record payload size; a file recorded with a different size
  /// or schema is re-initialized empty. Throws std::runtime_error — naming
  /// the path and the failing condition — when the path is a directory or
  /// cannot be opened read-write.
  ResultStore(std::string path, std::size_t payload_bytes)
      : AppendLog(std::move(path), "result store", kMagic, kSchemaVersion,
                  static_cast<std::uint32_t>(payload_bytes),
                  static_cast<std::uint32_t>(payload_bytes)) {}

  using AppendLog::contains;
  using AppendLog::dropped_records;
  using AppendLog::entries;
  using AppendLog::path;
  using AppendLog::refresh;
  using AppendLog::truncated_bytes;

  /// Copies the payload for `digest` into `out` (payload_bytes long).
  /// Returns false on miss. Allocation-free and thread-safe.
  bool lookup(std::uint64_t digest, void* out) const {
    return AppendLog::lookup(digest, out);
  }

  /// Appends one record (payload_bytes long); first write wins.
  void append(std::uint64_t digest, const void* payload) {
    AppendLog::append(digest, payload, record_len());
  }
};

/// Process-wide active store, consulted by experiments::run_grid and the
/// CLI run paths (the benches' `--store=PATH` flag installs one; nullptr —
/// the default — disables memoization entirely). Not owning.
namespace detail {
inline std::atomic<ResultStore*> active_result_store{nullptr};
}  // namespace detail
inline void set_result_store(ResultStore* store) {
  detail::active_result_store.store(store, std::memory_order_release);
}
inline ResultStore* result_store() {
  return detail::active_result_store.load(std::memory_order_acquire);
}

}  // namespace sttsim::exec
