// Decoded (replay-optimized) trace representation.
//
// A raw TraceOp is 32 bytes and leaves per-access geometry work — "how many
// cache granules does this access cover?" — to be redone inside every DL1
// organization on every replay. A grid run replays the same trace against
// dozens of configurations, so that work is hoisted into a one-time decode:
//
//  * ops are packed to 16 bytes (half the footprint, twice the ops per cache
//    line of the *host* machine while streaming the trace);
//  * the number of 32-byte and 64-byte granules each access spans — the only
//    two granularities the paper's organizations use (256-bit SRAM line,
//    512-bit STT-MRAM line / VWB sector) — is precomputed, so the replay loop
//    can take a single-granule fast path without address arithmetic;
//  * store payloads (ignored by the timing model, used only by the check::
//    data-content shadow) move to a sidecar array indexed by store ordinal.
//
// decode()/reassemble() are exact inverses for any trace whose non-store ops
// carry no payload (all generator- and fuzzer-produced traces do this), which
// tests/test_fastpath verifies.
#pragma once

#include <cstdint>
#include <vector>

#include "sttsim/cpu/trace.hpp"
#include "sttsim/util/bits.hpp"

namespace sttsim::cpu {

/// One replay-ready op. 16 bytes, trivially copyable.
struct DecodedOp {
  Addr addr = 0;
  std::uint32_t count = 1;  ///< instruction count (exec bundles)
  OpKind kind = OpKind::kExec;
  std::uint8_t size = 0;    ///< access width in bytes (loads/stores)
  std::uint8_t span32 = 1;  ///< 32-byte granules covered (memory ops)
  std::uint8_t span64 = 1;  ///< 64-byte granules covered (memory ops)
};
static_assert(sizeof(DecodedOp) == 16, "DecodedOp must stay 16 bytes packed");

/// Granules of (1 << shift) bytes covered by `op` — from the precomputed
/// spans when the granularity is one the decode anticipated, otherwise
/// computed on the fly (degenerate geometries, e.g. sub-line VWB sweeps).
inline unsigned decoded_span(const DecodedOp& op, unsigned shift) {
  if (shift == 5) return op.span32;
  if (shift == 6) return op.span64;
  const Addr mask = (Addr{1} << shift) - 1;
  return static_cast<unsigned>(((op.addr & mask) + op.size - 1) >> shift) + 1;
}

/// Granules of (1 << shift) bytes covered by a `size`-byte access at `addr`
/// (the decode-time form of decoded_span; also used when expanding
/// compressed ops, so both paths produce bit-identical spans).
inline std::uint8_t span_of(Addr addr, unsigned size, unsigned shift) {
  if (size == 0) return 1;
  const Addr mask = (Addr{1} << shift) - 1;
  return static_cast<std::uint8_t>((((addr & mask) + size - 1) >> shift) + 1);
}

struct DecodedTrace {
  std::vector<DecodedOp> ops;
  /// Store payloads in store-ordinal order (`ops` position of the i-th
  /// kStore op maps to store_values[i]).
  std::vector<std::uint64_t> store_values;

  std::size_t size() const { return ops.size(); }
  bool empty() const { return ops.empty(); }
};

/// Precomputes the replay-ready form of `trace`.
DecodedTrace decode(const Trace& trace);

/// Reconstructs the raw trace (inverse of decode for generator traces; the
/// fast-path tests round-trip through this).
Trace reassemble(const DecodedTrace& decoded);

/// Direct-to-decoded synthesis sink: workload generators append packed
/// 16-byte DecodedOps — granule spans precomputed at emission with the same
/// span_of the decode pass uses — so the cold path never materializes a raw
/// TraceOp vector or runs a separate decode() pass. The ops produced are
/// byte-identical to decode(reassemble(·)) on the same emission sequence
/// (tests/test_simd pins this for every suite kernel × codegen).
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
  void store(Addr addr, std::uint8_t size, std::uint64_t value = 0) {
    out_.ops.push_back(DecodedOp{addr, 1, OpKind::kStore, size,
                                 span_of(addr, size, 5),
                                 span_of(addr, size, 6)});
    out_.store_values.push_back(value);
  }
  /// Prefetch hints carry no size; spans stay 1/1 exactly as decode() leaves
  /// non-memory ops.
  void prefetch(Addr addr) {
    out_.ops.push_back(DecodedOp{addr, 1, OpKind::kPrefetch, 0, 1, 1});
  }

  std::size_t size() const { return out_.ops.size(); }

  /// Finishes emission and yields the decoded trace.
  DecodedTrace take() { return std::move(out_); }

 private:
  DecodedTrace out_;
};

// ---- Compressed decoded traces ---------------------------------------
//
// The persistent trace store (exec::TraceStore) keeps traces in a
// delta/RLE byte stream of ~1-2 bytes per op instead of 16. Accesses in the
// generated kernels are local — the next address is usually the previous
// one plus the access width — so address deltas and exec-bundle counts fit
// a tag byte most of the time.
//
// Format (one op at a time; `prev_addr`/`prev_size` carried across ops):
//   tag & 3 == kind:
//     kExec      tag[2:7] = count-1 (0..62), or 63 + LEB128 count
//     kLoad/kStore/kPrefetch
//                tag[2]   = explicit size byte follows (size != prev_size)
//                tag[3:7] = zigzag(addr - prev_addr) if < 31,
//                           else 31 + LEB128 zigzag delta
//   tag == 0xFF: escape — the raw 16-byte DecodedOp follows verbatim
//                (degenerate ops whose fields the compact form cannot carry;
//                 never produced by decode() on generator traces).
// Spans are recomputed on expansion (bit-identical to decode(): memory ops
// get span_of, exec/prefetch keep 1/1); ops that would not round-trip take
// the escape, so compress()/decompress() are exact inverses for ANY input.
struct CompressedTrace {
  std::vector<std::uint8_t> bytes;          ///< delta/RLE op stream
  std::vector<std::uint64_t> store_values;  ///< sidecar, store-ordinal order
  std::uint64_t op_count = 0;

  std::size_t size() const { return static_cast<std::size_t>(op_count); }
  bool empty() const { return op_count == 0; }
};

/// Delta/RLE-compresses a decoded trace. Exact inverse under decompress()
/// for any input (ops the compact form cannot represent are escaped).
CompressedTrace compress(const DecodedTrace& decoded);

/// Rebuilds the full decoded form (exact inverse of compress()).
DecodedTrace decompress(const CompressedTrace& trace);

// ---- Compressed-trace blob (de)serialization -------------------------
//
// The persistent trace store (exec::TraceStore) holds CompressedTrace
// payloads as opaque byte blobs; these two functions define the blob layout
// (all fields little-endian):
//   [op_count u64][stream_bytes u64][store_values u64][stream...][values...]
// The layout changes whenever the compressed-stream format does, which is
// exactly what kTraceFormatVersion tracks — the store key folds it in, so a
// format bump makes every old blob unreachable rather than misread.

/// Serializes `trace` into a self-contained byte blob.
std::vector<std::uint8_t> serialize_compressed(const CompressedTrace& trace);

/// Parses a blob produced by serialize_compressed. Returns false (leaving
/// `out` unspecified) when the blob is malformed — truncated, inconsistent
/// lengths — so a corrupt store record degrades to a cache miss.
bool deserialize_compressed(const std::uint8_t* data, std::size_t len,
                            CompressedTrace& out);

}  // namespace sttsim::cpu
