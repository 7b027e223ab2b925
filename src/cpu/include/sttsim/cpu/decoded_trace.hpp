// The dynamic instruction trace consumed by the core model — the program's
// one in-memory trace form.
//
// Workload generators (src/workloads) emit it by symbolically executing the
// PolyBench kernels. The op set is the minimum an in-order, single-issue
// data-cache study needs: non-memory work (exec bundles), loads, stores, and
// software prefetch hints. A grid run replays the same trace against dozens
// of configurations, so each op carries what the replay loop would otherwise
// recompute on every replay:
//
//  * ops are packed to 16 bytes (four ops per 64-byte line of the *host*
//    machine while streaming the trace);
//  * the number of 32-byte and 64-byte granules each access spans — the only
//    two granularities the paper's organizations use (256-bit SRAM line,
//    512-bit STT-MRAM line / VWB sector) — is precomputed at emission, so
//    the replay loop can take a single-granule fast path without address
//    arithmetic;
//  * store payloads (ignored by the timing model, used only by the check::
//    data-content shadow) live in a sidecar array indexed by store ordinal.
//    An empty sidecar means every payload is zero, which is what kernel
//    generators emit; fuzz and oracle traces carry real payloads.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sttsim/util/bits.hpp"

namespace sttsim::cpu {

enum class OpKind : std::uint8_t {
  kExec,      ///< `count` back-to-back non-memory instructions (1 cycle each)
  kLoad,      ///< load of `size` bytes at `addr`
  kStore,     ///< store of `size` bytes at `addr`
  kPrefetch,  ///< software prefetch hint for `addr`
};

/// Thrown on a malformed trace blob or trace file, or on I/O failure.
class TraceIoError : public std::runtime_error {
 public:
  explicit TraceIoError(const std::string& what) : std::runtime_error(what) {}
};

/// One replay-ready op. 16 bytes, trivially copyable.
struct DecodedOp {
  Addr addr = 0;
  std::uint32_t count = 1;  ///< instruction count (exec bundles)
  OpKind kind = OpKind::kExec;
  std::uint8_t size = 0;    ///< access width in bytes (loads/stores)
  std::uint8_t span32 = 1;  ///< 32-byte granules covered (memory ops)
  std::uint8_t span64 = 1;  ///< 64-byte granules covered (memory ops)

  bool operator==(const DecodedOp&) const = default;
};
static_assert(sizeof(DecodedOp) == 16, "DecodedOp must stay 16 bytes packed");

/// Granules of (1 << shift) bytes covered by `op` — from the precomputed
/// spans when the granularity is one emission anticipated, otherwise
/// computed on the fly (degenerate geometries, e.g. sub-line VWB sweeps).
inline unsigned decoded_span(const DecodedOp& op, unsigned shift) {
  if (shift == 5) return op.span32;
  if (shift == 6) return op.span64;
  const Addr mask = (Addr{1} << shift) - 1;
  return static_cast<unsigned>(((op.addr & mask) + op.size - 1) >> shift) + 1;
}

/// Granules of (1 << shift) bytes covered by a `size`-byte access at `addr`
/// (the emission-time form of decoded_span; also used when expanding
/// compressed ops, so both paths produce bit-identical spans).
inline std::uint8_t span_of(Addr addr, unsigned size, unsigned shift) {
  if (size == 0) return 1;
  const Addr mask = (Addr{1} << shift) - 1;
  return static_cast<std::uint8_t>((((addr & mask) + size - 1) >> shift) + 1);
}

struct DecodedTrace {
  std::vector<DecodedOp> ops;
  /// Store payloads in store-ordinal order (`ops` position of the i-th
  /// kStore op maps to store_values[i]); empty means all zero. A store's
  /// payload is repeated byte-wise over its `size`.
  std::vector<std::uint64_t> store_values;

  std::size_t size() const { return ops.size(); }
  bool empty() const { return ops.empty(); }
  /// Payload of the `ordinal`-th store.
  std::uint64_t store_value(std::size_t ordinal) const {
    return store_values.empty() ? 0 : store_values[ordinal];
  }

  bool operator==(const DecodedTrace&) const = default;
};

/// Gives every store a nonzero deterministic payload derived from `seed` and
/// its ordinal, so the data-content shadow check distinguishes stale data
/// from never-written data on traces whose generator left them zero.
void assign_store_values(DecodedTrace& trace, std::uint64_t seed);

/// Aggregate shape of a trace (used for tests and trace-level reports).
struct TraceSummary {
  std::uint64_t instructions = 0;  ///< total retired instruction count
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t prefetches = 0;
  std::uint64_t exec_instructions = 0;
  std::uint64_t bytes_loaded = 0;
  std::uint64_t bytes_stored = 0;
};

TraceSummary summarize(const DecodedTrace& trace);

/// One-line description, e.g. "12034 insts: 4096 ld / 1024 st / 0 pf / 6914 ex".
std::string describe(const DecodedTrace& trace);

/// Emission sink: workload generators append packed 16-byte DecodedOps with
/// their granule spans precomputed. Store payloads stay zero (an empty
/// sidecar).
class DecodedTraceBuilder {
 public:
  /// One bundle of `count` back-to-back non-memory instructions (count > 0).
  void exec(std::uint32_t count) {
    out_.ops.push_back(DecodedOp{0, count, OpKind::kExec, 0, 1, 1});
  }
  void load(Addr addr, std::uint8_t size) {
    out_.ops.push_back(DecodedOp{addr, 1, OpKind::kLoad, size,
                                 span_of(addr, size, 5),
                                 span_of(addr, size, 6)});
  }
  void store(Addr addr, std::uint8_t size) {
    out_.ops.push_back(DecodedOp{addr, 1, OpKind::kStore, size,
                                 span_of(addr, size, 5),
                                 span_of(addr, size, 6)});
  }
  /// Prefetch hints carry no size; their spans stay 1/1.
  void prefetch(Addr addr) {
    out_.ops.push_back(DecodedOp{addr, 1, OpKind::kPrefetch, 0, 1, 1});
  }

  /// Finishes emission and yields the trace.
  DecodedTrace take() { return std::move(out_); }

 private:
  DecodedTrace out_;
};

// ---- Compressed traces -----------------------------------------------
//
// The persistent trace store (exec::TraceStore) and trace files keep traces
// in a delta/RLE byte stream of ≈3.3 bytes per op (measured over the
// 26-kernel suite) instead of 16. Accesses in the generated kernels are
// local — the next address is usually the previous one plus the access
// width — so address deltas and exec-bundle counts fit a tag byte most of
// the time.
//
// Format (one op at a time; `prev_addr`/`prev_size` carried across ops):
//   tag & 3 == kind:
//     kExec      tag[2:7] = count-1 (0..62), or 63 + LEB128 count
//     kLoad/kStore/kPrefetch
//                tag[2]   = explicit size byte follows (size != prev_size)
//                tag[3:7] = zigzag(addr - prev_addr) if < 31,
//                           else 31 + LEB128 zigzag delta
//   tag == 0xFF: escape — the raw 16-byte DecodedOp follows verbatim
//                (ops whose fields the compact form cannot carry, and the
//                 prefetch whose compact tag would collide with 0xFF).
// Spans are recomputed on expansion (memory ops get span_of, exec/prefetch
// keep 1/1); ops that would not round-trip take the escape, so
// decompress(compress(t)) == t for every valid trace t (every op of a known
// kind, every load and store at least one byte wide).
struct CompressedTrace {
  std::vector<std::uint8_t> bytes;          ///< delta/RLE op stream
  std::vector<std::uint64_t> store_values;  ///< sidecar, as DecodedTrace's
  std::uint64_t op_count = 0;

  std::size_t size() const { return static_cast<std::size_t>(op_count); }
  bool empty() const { return op_count == 0; }
};

/// Delta/RLE-compresses a trace (ops the compact form cannot represent are
/// escaped).
CompressedTrace compress(const DecodedTrace& decoded);

/// Rebuilds the full trace (the inverse of compress()). Throws TraceIoError
/// when the stream is malformed: it runs past its end, holds an op of
/// unknown kind or a zero-size load or store, expands to other than
/// `op_count` ops, or the sidecar is neither empty nor one entry per store.
DecodedTrace decompress(const CompressedTrace& trace);

// ---- Compressed-trace blob (de)serialization -------------------------
//
// The persistent trace store holds CompressedTrace payloads as opaque byte
// blobs, and a trace file wraps one (cpu/trace_io.hpp); these two functions
// define the blob layout (all fields little-endian):
//   [op_count u64][stream_bytes u64][store_values u64][stream...][values...]
// The layout changes whenever the compressed-stream format does, which is
// exactly what kTraceFormatVersion tracks — the store key folds it in, so a
// format bump makes every old blob unreachable rather than misread.

/// Serializes `trace` into a self-contained byte blob.
std::vector<std::uint8_t> serialize_compressed(const CompressedTrace& trace);

/// Parses a blob produced by serialize_compressed. Returns false (leaving
/// `out` unspecified) when the blob's lengths are inconsistent — truncated,
/// more ops than stream bytes, more payloads than ops — so a corrupt store
/// record degrades to a cache miss. The stream itself is checked by
/// decompress().
bool deserialize_compressed(const std::uint8_t* data, std::size_t len,
                            CompressedTrace& out);

}  // namespace sttsim::cpu
