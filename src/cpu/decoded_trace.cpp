#include "sttsim/cpu/decoded_trace.hpp"

#include <cstring>

#include "sttsim/util/text.hpp"

namespace sttsim::cpu {

void assign_store_values(DecodedTrace& trace, std::uint64_t seed) {
  std::uint64_t n = 0;
  trace.store_values.clear();
  for (const DecodedOp& op : trace.ops) {
    if (op.kind != OpKind::kStore) continue;
    // splitmix64 of (seed, ordinal): nonzero with overwhelming probability,
    // distinct per store, stable across runs and platforms.
    std::uint64_t z = seed + (++n) * 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    trace.store_values.push_back((z ^ (z >> 31)) | 1);
  }
}

TraceSummary summarize(const DecodedTrace& trace) {
  TraceSummary s;
  for (const DecodedOp& op : trace.ops) {
    switch (op.kind) {
      case OpKind::kExec:
        s.instructions += op.count;
        s.exec_instructions += op.count;
        break;
      case OpKind::kLoad:
        s.instructions += 1;
        s.loads += 1;
        s.bytes_loaded += op.size;
        break;
      case OpKind::kStore:
        s.instructions += 1;
        s.stores += 1;
        s.bytes_stored += op.size;
        break;
      case OpKind::kPrefetch:
        s.instructions += 1;
        s.prefetches += 1;
        break;
    }
  }
  return s;
}

std::string describe(const DecodedTrace& trace) {
  const TraceSummary s = summarize(trace);
  return strprintf(
      "%llu insts: %llu ld / %llu st / %llu pf / %llu ex",
      static_cast<unsigned long long>(s.instructions),
      static_cast<unsigned long long>(s.loads),
      static_cast<unsigned long long>(s.stores),
      static_cast<unsigned long long>(s.prefetches),
      static_cast<unsigned long long>(s.exec_instructions));
}

namespace {

/// Tag byte announcing a verbatim 16-byte DecodedOp.
constexpr std::uint8_t kCompressedEscape = 0xFF;

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/// LEB128 writer (the cursor below is the reader).
void write_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80u);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

[[noreturn]] void malformed(const char* what) {
  throw TraceIoError(std::string("malformed trace stream: ") + what);
}

/// Whether the compact (non-escape) encoding reproduces `op` exactly under
/// the cursor's expansion rules. Anything else — zero-count exec bundles,
/// memory ops with instruction counts, spans that disagree with the
/// recomputation — takes the 17-byte escape so the round trip stays exact.
bool compact_representable(const DecodedOp& op) {
  if (op.kind == OpKind::kExec) {
    return op.addr == 0 && op.size == 0 && op.span32 == 1 && op.span64 == 1 &&
           op.count >= 1;
  }
  if (op.count != 1) return false;
  if (op.kind == OpKind::kPrefetch) return op.span32 == 1 && op.span64 == 1;
  return op.span32 == span_of(op.addr, op.size, 5) &&
         op.span64 == span_of(op.addr, op.size, 6);
}

/// Streaming expansion of one CompressedTrace: `next()` produces ops in
/// order, carrying prev_addr/prev_size exactly as compress() does. The
/// stream may come from a file, so every read is bounds-checked and every
/// op validated in this one pass; a malformed stream throws TraceIoError.
class CompressedCursor {
 public:
  explicit CompressedCursor(const CompressedTrace& trace)
      : p_(trace.bytes.data()), end_(p_ + trace.bytes.size()) {}

  /// Expands the next op into `op`; returns false at end of stream.
  bool next(DecodedOp& op) {
    if (p_ == end_) return false;
    const std::uint8_t tag = *p_++;
    if (tag == kCompressedEscape) {
      if (static_cast<std::size_t>(end_ - p_) < sizeof(DecodedOp)) {
        malformed("truncated escaped op");
      }
      std::memcpy(&op, p_, sizeof(DecodedOp));
      p_ += sizeof(DecodedOp);
      if (static_cast<std::uint8_t>(op.kind) >
          static_cast<std::uint8_t>(OpKind::kPrefetch)) {
        malformed("unknown op kind");
      }
      if (op.kind != OpKind::kExec) {
        prev_addr_ = op.addr;
        prev_size_ = op.size;
      }
      check_size(op.kind);
      return true;
    }
    const OpKind kind = static_cast<OpKind>(tag & 3u);
    if (kind == OpKind::kExec) {
      const std::uint32_t inline_count = tag >> 2;
      std::uint64_t count = inline_count + 1u;
      if (inline_count == 63u) {
        count = varint();
        if (count > UINT32_MAX) malformed("exec count overflows 32 bits");
      }
      op.addr = 0;
      op.count = static_cast<std::uint32_t>(count);
      op.kind = OpKind::kExec;
      op.size = 0;
      op.span32 = 1;
      op.span64 = 1;
      return true;
    }
    if (tag & 4u) {
      if (p_ == end_) malformed("truncated size byte");
      prev_size_ = *p_++;
    }
    check_size(kind);
    std::uint64_t zz = tag >> 3;
    if (zz == 31u) zz = varint();
    prev_addr_ += unzigzag(zz);
    op.addr = prev_addr_;
    op.count = 1;
    op.kind = kind;
    op.size = prev_size_;
    const bool mem = kind != OpKind::kPrefetch;
    op.span32 = mem ? span_of(prev_addr_, prev_size_, 5) : std::uint8_t{1};
    op.span64 = mem ? span_of(prev_addr_, prev_size_, 6) : std::uint8_t{1};
    return true;
  }

 private:
  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
      if (p_ == end_) malformed("truncated varint");
      const std::uint8_t b = *p_++;
      v |= static_cast<std::uint64_t>(b & 0x7Fu) << shift;
      if ((b & 0x80u) == 0) return v;
    }
    malformed("overlong varint");
  }

  /// Loads and stores move at least one byte.
  void check_size(OpKind kind) const {
    if ((kind == OpKind::kLoad || kind == OpKind::kStore) && prev_size_ == 0) {
      malformed("zero-size memory op");
    }
  }

  const std::uint8_t* p_;
  const std::uint8_t* end_;
  Addr prev_addr_ = 0;
  std::uint8_t prev_size_ = 0;
};

}  // namespace

CompressedTrace compress(const DecodedTrace& decoded) {
  CompressedTrace out;
  out.op_count = decoded.ops.size();
  out.store_values = decoded.store_values;
  // Kernel traces take ≈3.3 bytes/op, so the stream regrows at most once.
  out.bytes.reserve(decoded.ops.size() * 3);
  Addr prev_addr = 0;
  std::uint8_t prev_size = 0;
  for (const DecodedOp& op : decoded.ops) {
    if (!compact_representable(op)) {
      out.bytes.push_back(kCompressedEscape);
      const std::size_t at = out.bytes.size();
      out.bytes.resize(at + sizeof(DecodedOp));
      std::memcpy(out.bytes.data() + at, &op, sizeof(DecodedOp));
      if (op.kind != OpKind::kExec) {
        prev_addr = op.addr;
        prev_size = op.size;
      }
      continue;
    }
    if (op.kind == OpKind::kExec) {
      if (op.count <= 63) {
        out.bytes.push_back(static_cast<std::uint8_t>((op.count - 1u) << 2));
      } else {
        out.bytes.push_back(static_cast<std::uint8_t>(63u << 2));
        write_varint(out.bytes, op.count);
      }
      continue;
    }
    const std::uint64_t zz = zigzag(
        static_cast<std::int64_t>(op.addr - prev_addr));
    const bool size_byte = op.size != prev_size;
    std::uint8_t tag = static_cast<std::uint8_t>(op.kind) |
                       (size_byte ? 4u : 0u);
    tag |= static_cast<std::uint8_t>((zz < 31 ? zz : 31) << 3);
    if (tag == kCompressedEscape) {
      // kPrefetch + size byte + varint marker collides with the escape tag
      // (all bits set); emit the op verbatim instead. The cursor's escape
      // path updates prev_addr/prev_size the same way this branch does.
      out.bytes.push_back(kCompressedEscape);
      const std::size_t at = out.bytes.size();
      out.bytes.resize(at + sizeof(DecodedOp));
      std::memcpy(out.bytes.data() + at, &op, sizeof(DecodedOp));
      prev_addr = op.addr;
      prev_size = op.size;
      continue;
    }
    out.bytes.push_back(tag);
    if (size_byte) out.bytes.push_back(op.size);
    if (zz >= 31) write_varint(out.bytes, zz);
    prev_addr = op.addr;
    prev_size = op.size;
  }
  return out;
}

DecodedTrace decompress(const CompressedTrace& trace) {
  // Every op takes at least one stream byte, so a larger count is malformed
  // and must not drive the reservation.
  if (trace.op_count > trace.bytes.size()) malformed("more ops than bytes");
  DecodedTrace out;
  out.ops.reserve(trace.size());
  CompressedCursor cursor(trace);
  DecodedOp op;
  std::size_t stores = 0;
  while (cursor.next(op)) {
    out.ops.push_back(op);
    stores += op.kind == OpKind::kStore;
  }
  if (out.ops.size() != trace.op_count) malformed("op count mismatch");
  if (!trace.store_values.empty() && trace.store_values.size() != stores) {
    malformed("store payloads do not match the stores");
  }
  out.store_values = trace.store_values;
  return out;
}

namespace {

void put_u64le(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
std::uint64_t get_u64le(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

std::vector<std::uint8_t> serialize_compressed(const CompressedTrace& trace) {
  std::vector<std::uint8_t> out(24 + trace.bytes.size() +
                                8 * trace.store_values.size());
  put_u64le(out.data(), trace.op_count);
  put_u64le(out.data() + 8, trace.bytes.size());
  put_u64le(out.data() + 16, trace.store_values.size());
  if (!trace.bytes.empty()) {
    std::memcpy(out.data() + 24, trace.bytes.data(), trace.bytes.size());
  }
  std::uint8_t* p = out.data() + 24 + trace.bytes.size();
  for (const std::uint64_t v : trace.store_values) {
    put_u64le(p, v);
    p += 8;
  }
  return out;
}

bool deserialize_compressed(const std::uint8_t* data, std::size_t len,
                            CompressedTrace& out) {
  if (len < 24) return false;
  const std::uint64_t op_count = get_u64le(data);
  const std::uint64_t stream_bytes = get_u64le(data + 8);
  const std::uint64_t n_values = get_u64le(data + 16);
  // Reject blobs whose recorded lengths disagree with the byte count before
  // touching the payload (a corrupt length must not drive an allocation).
  if (stream_bytes > len || n_values > len / 8 ||
      24 + stream_bytes + 8 * n_values != len) {
    return false;
  }
  // Each op takes at least one stream byte and at most one payload.
  if (op_count > stream_bytes || n_values > op_count) return false;
  out.op_count = op_count;
  out.bytes.assign(data + 24, data + 24 + stream_bytes);
  out.store_values.resize(static_cast<std::size_t>(n_values));
  const std::uint8_t* p = data + 24 + stream_bytes;
  for (std::uint64_t i = 0; i < n_values; ++i, p += 8) {
    out.store_values[static_cast<std::size_t>(i)] = get_u64le(p);
  }
  return true;
}

}  // namespace sttsim::cpu
