// One digest-keyed, append-only record log: the single implementation of
// the persistent stores. exec::ResultStore (`--store=PATH`) and
// exec::TraceStore (`--trace-store=PATH`) are thin typed views of it.
//
// On-disk format, all integers little-endian:
//
//   header  [magic u64][schema version u32][aux u32][checksum u64]
//   record  [digest u64][len u32][payload len bytes][checksum u64]
//
// The header checksum is an FNV-1a hash of the header's first 16 bytes; a
// record's is an FNV-1a hash of (digest || len || payload). The magic names
// the store and its record layout, and the aux word holds what a reader
// must match besides the schema (the result store's payload size, the trace
// store's content version).
//
// Durability model — crash-safe, never abort:
//  * every append writes one complete record and flushes it;
//  * on load and on refresh, a torn tail (a writer crashed or was killed
//    mid-append) is truncated back to the last complete record, so future
//    appends stay record-aligned; a filesystem that cannot ftruncate gets
//    the log rewritten from the in-memory index instead;
//  * a complete record whose checksum does not match its bytes (bit rot,
//    tampering), or whose length a fixed-length log does not accept, is
//    skipped in place — the key misses and is recomputed;
//  * a record whose stated length exceeds kMaxBlobBytes or runs past the
//    end of the file — a corrupted length desyncs the framing of every
//    record after it — truncates the rest of the file;
//  * a header with the wrong magic, schema, aux word or checksum
//    invalidates the whole file: it is re-initialized empty (recompute
//    everything, never refuse to run). Paths that cannot work at all — a
//    directory, a missing or unwritable parent — throw std::runtime_error
//    naming the path and the reason.
//
// Multi-process sharing — concurrent campaigns on one path interleave
// safely:
//  * every mutation (load, append, refresh) holds an advisory exclusive
//    flock(2) on the file, so records from concurrent writers never tear
//    each other; flock locks belong to the kernel's open file description,
//    so a crashed writer never leaves a stale lock behind;
//  * append() first indexes records other processes appended since the
//    last scan, so first-write-wins holds across processes exactly as it
//    does across threads;
//  * refresh() makes other processes' appends visible (run_grid calls it
//    before probing a grid) and, as the lock holder, truncates any torn
//    tail a killed writer left behind;
//  * a file that shrank below the last scan (another process
//    re-initialized it) is reloaded from scratch.
//
// Simulation-agnostic (payloads are opaque bytes), so the ThreadSanitizer
// exec test target exercises it without linking the simulation libraries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace sttsim::exec {

class AppendLog {
 public:
  /// magic (8) + version (4) + aux (4) + checksum of the first 16 bytes (8).
  static constexpr std::size_t kHeaderBytes = 24;

  /// Upper bound on one payload (1 GiB). A stated length beyond this is a
  /// corrupted record, not a huge one — rejected before any allocation.
  static constexpr std::uint32_t kMaxBlobBytes = 1u << 30;

  /// `record_len` of a log whose payloads may have any length up to
  /// kMaxBlobBytes.
  static constexpr std::uint32_t kAnyLength = ~0u;

  /// Opens (creating or loading) the log at `path`. O_CREAT without O_TRUNC
  /// keeps the open race-free between concurrent campaigns. `what` names
  /// the store in diagnostics ("result store", "trace store"). A file whose
  /// header does not match (magic, version, aux) is re-initialized empty.
  /// A `record_len` other than kAnyLength makes every payload exactly that
  /// long: records of another length are skipped on load and never
  /// appended. Throws std::runtime_error when the path is a directory or
  /// cannot be opened read-write.
  AppendLog(std::string path, std::string what, std::uint64_t magic,
            std::uint32_t version, std::uint32_t aux, std::uint32_t record_len);
  ~AppendLog();

  AppendLog(const AppendLog&) = delete;
  AppendLog& operator=(const AppendLog&) = delete;

  const std::string& path() const { return path_; }

  /// Number of indexed (valid) records.
  std::size_t entries() const;
  /// Complete records skipped so far (checksum mismatch or a length the
  /// log does not accept).
  std::size_t dropped_records() const { return dropped_; }
  /// Bytes of torn or unframeable tail discarded so far (load + refresh).
  std::size_t truncated_bytes() const { return truncated_; }

  /// True iff `digest` is present (no copy). Thread-safe.
  bool contains(std::uint64_t digest) const;

  /// Copies the payload for `digest` into `out`, which must hold
  /// record_len() bytes; a fixed-length log only. Returns false on miss.
  /// Allocation-free. Thread-safe. Probes the in-memory index only — call
  /// refresh() first to observe other processes' appends.
  bool lookup(std::uint64_t digest, void* out) const;

  /// Copies the payload for `digest` into `out` (replacing its contents).
  /// Returns false on miss. Thread-safe; in-memory index only.
  bool lookup(std::uint64_t digest, std::vector<std::uint8_t>& out) const;

  /// Appends one record and indexes it. A digest already present —
  /// including one another process appended since the last scan — is
  /// ignored: first write wins, across threads and across processes. A
  /// payload longer than kMaxBlobBytes, or of a length other than a fixed
  /// record_len, is ignored (never stored).
  /// Thread-safe; the record is written and flushed under the file lock.
  void append(std::uint64_t digest, const void* payload, std::size_t len);

  /// Indexes records other processes appended since the last scan and
  /// truncates any torn tail a killed writer left. Returns the number of
  /// newly indexed records. Thread-safe.
  std::size_t refresh();

 protected:
  std::uint32_t record_len() const { return record_len_; }

 private:
  struct Entry {
    std::size_t offset;  ///< into arena_
    std::uint32_t len;
  };

  // All *_locked members run with mu_ and the exclusive flock held.
  void load_or_init_locked();
  void init_locked();
  /// Indexes complete records in [scan_end_, EOF); truncates a torn or
  /// unframeable tail.
  std::size_t scan_new_locked();
  /// Tail recovery for filesystems without ftruncate: reopens the file
  /// empty and re-appends every indexed record.
  void rewrite_locked();
  void write_header();
  /// Writes one framed record at the file position and advances scan_end_.
  void write_record(std::uint64_t digest, const void* payload,
                    std::uint32_t len);
  std::size_t file_size() const;
  bool accepts(std::size_t len) const {
    return record_len_ == kAnyLength ? len <= kMaxBlobBytes
                                     : len == record_len_;
  }

  std::string path_;
  std::string what_;
  std::uint64_t magic_;
  std::uint32_t version_;
  std::uint32_t aux_;
  std::uint32_t record_len_;
  std::FILE* file_ = nullptr;

  mutable std::mutex mu_;
  // Payloads live in one flat arena; the index maps digest -> extent. No
  // per-record allocation; lookups copy out under the mutex.
  std::unordered_map<std::uint64_t, Entry> index_;
  std::vector<std::uint8_t> arena_;
  std::size_t scan_end_ = 0;  ///< file offset after the last indexed record
  std::size_t dropped_ = 0;
  std::size_t truncated_ = 0;
};

}  // namespace sttsim::exec
