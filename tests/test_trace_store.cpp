// Tests: the compressed trace form that the persistent trace store holds and
// its blob codec (exact round trip on any valid op stream, escape
// fallback, adversarial deltas), the trace-digest key, and the engine-level
// invariants that a warm trace store serves byte-identical results while
// generating zero traces and that a malformed stored blob is a miss.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "sttsim/cpu/decoded_trace.hpp"
#include "sttsim/cpu/trace_io.hpp"
#include "sttsim/exec/telemetry.hpp"
#include "sttsim/exec/trace_store.hpp"
#include "sttsim/experiments/harness.hpp"
#include "sttsim/sim/stats.hpp"
#include "sttsim/util/rng.hpp"
#include "sttsim/workloads/kernels.hpp"
#include "sttsim/workloads/suite.hpp"
#include "trace_util.hpp"

namespace sttsim {
namespace {

std::string temp_store_path(const char* name) {
  return ::testing::TempDir() + "sttsim_tstore_" + name + ".bin";
}

// ---- Blob codec -------------------------------------------------------

// ---- Compressed trace representation ---------------------------------

void expect_ops_equal(const cpu::DecodedTrace& a, const cpu::DecodedTrace& b) {
  ASSERT_EQ(a.ops.size(), b.ops.size());
  for (std::size_t i = 0; i < a.ops.size(); ++i) {
    SCOPED_TRACE("op " + std::to_string(i));
    EXPECT_EQ(a.ops[i].addr, b.ops[i].addr);
    EXPECT_EQ(a.ops[i].count, b.ops[i].count);
    EXPECT_EQ(a.ops[i].kind, b.ops[i].kind);
    EXPECT_EQ(a.ops[i].size, b.ops[i].size);
    EXPECT_EQ(a.ops[i].span32, b.ops[i].span32);
    EXPECT_EQ(a.ops[i].span64, b.ops[i].span64);
  }
  EXPECT_EQ(a.store_values, b.store_values);
}

TEST(CompressedTrace, ExactRoundTripOnGeneratedTraces) {
  // Random fuzz mix with store payloads and a kernel trace without:
  // compress must invert exactly, and the stream must actually be smaller.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const cpu::DecodedTrace decoded =
        testutil::random_trace(seed, 5000, 1 << 18);
    const cpu::CompressedTrace compressed = cpu::compress(decoded);
    EXPECT_EQ(compressed.size(), decoded.size());
    EXPECT_LT(compressed.bytes.size(),
              compressed.size() * sizeof(cpu::DecodedOp) / 2)
        << "compression should at least halve the op stream";
    expect_ops_equal(cpu::decompress(compressed), decoded);
  }
  const cpu::DecodedTrace decoded = testutil::kernel_trace(
      workloads::gemm_into, workloads::CodegenOptions::all(), 16, 16, 16);
  expect_ops_equal(cpu::decompress(cpu::compress(decoded)), decoded);
}

TEST(CompressedTrace, EscapePathRoundTripsDegenerateOps) {
  // Ops the compact form cannot carry must survive via the 0xFF escape:
  // exec with a nonzero addr, memory ops with count != 1, ops whose stored
  // spans disagree with recomputation, zero-count exec.
  cpu::DecodedTrace weird;
  cpu::DecodedOp exec_addr;
  exec_addr.kind = cpu::OpKind::kExec;
  exec_addr.addr = 0xdead;
  exec_addr.count = 5;
  weird.ops.push_back(exec_addr);

  cpu::DecodedOp multi_load;
  multi_load.kind = cpu::OpKind::kLoad;
  multi_load.addr = 0x1000;
  multi_load.size = 8;
  multi_load.count = 3;  // generators never emit this
  multi_load.span32 = 1;
  multi_load.span64 = 1;
  weird.ops.push_back(multi_load);

  cpu::DecodedOp bad_span;
  bad_span.kind = cpu::OpKind::kStore;
  bad_span.addr = 0x2000;
  bad_span.size = 16;
  bad_span.span32 = 7;  // disagrees with span_of(0x2000, 16, 5)
  bad_span.span64 = 1;
  weird.ops.push_back(bad_span);

  cpu::DecodedOp zero_exec;
  zero_exec.kind = cpu::OpKind::kExec;
  zero_exec.count = 0;
  weird.ops.push_back(zero_exec);

  // A normal op after the escapes: prev_addr/prev_size tracking must have
  // stayed consistent across the escape path.
  cpu::DecodedOp normal;
  normal.kind = cpu::OpKind::kLoad;
  normal.addr = 0x2008;
  normal.size = 16;
  normal.span32 = cpu::span_of(0x2008, 16, 5);
  normal.span64 = cpu::span_of(0x2008, 16, 6);
  weird.ops.push_back(normal);

  expect_ops_equal(cpu::decompress(cpu::compress(weird)), weird);
}

// ---- Adversarial round-trip properties -------------------------------
//
// compress()/decompress() claim to be exact inverses for ANY valid op
// stream (known kinds, loads and stores at least one byte wide). The
// generated-trace tests above only reach the friendly encodings, so these
// drive the worst corners of the format head-on: address deltas of maximal
// magnitude in both directions (10-byte zigzag varints, wraparound through
// 2^64), the prefetch+size+varint tag whose bit pattern collides with the
// 0xFF escape, and zero-length exec runs.

cpu::DecodedOp mem_op(cpu::OpKind kind, Addr addr, std::uint8_t size) {
  cpu::DecodedOp op;
  op.kind = kind;
  op.addr = addr;
  op.size = size;
  const bool mem = kind != cpu::OpKind::kPrefetch;
  op.span32 = mem ? cpu::span_of(addr, size, 5) : std::uint8_t{1};
  op.span64 = mem ? cpu::span_of(addr, size, 6) : std::uint8_t{1};
  return op;
}

cpu::DecodedOp exec_op(std::uint32_t count) {
  cpu::DecodedOp op;
  op.kind = cpu::OpKind::kExec;
  op.count = count;
  op.size = 0;
  return op;
}

TEST(CompressedTrace, MaxMagnitudeDeltasRoundTrip) {
  // Consecutive addresses chosen so the deltas hit INT64_MIN, INT64_MAX,
  // -1, +1, and full wraparound — the zigzag/varint stack's extremes.
  const Addr extremes[] = {
      0x0ULL,
      0x8000000000000000ULL,  // delta INT64_MIN
      0x0ULL,                 // delta INT64_MIN again (wraps the other way)
      0x7fffffffffffffffULL,  // delta INT64_MAX
      0xffffffffffffffffULL,  // delta INT64_MIN (as int64)
      0xfffffffffffffffeULL,  // delta -1
      0xffffffffffffffffULL,  // delta +1
      0x1ULL,                 // delta +2 (wraps through zero)
  };
  cpu::DecodedTrace t;
  for (const Addr a : extremes) {
    t.ops.push_back(mem_op(cpu::OpKind::kLoad, a, 8));
  }
  expect_ops_equal(cpu::decompress(cpu::compress(t)), t);
}

TEST(CompressedTrace, EscapeCollisionTagRoundTrips) {
  // A prefetch with a changed size byte and a >= 31 zigzag delta encodes
  // tag 0b11111111 — exactly the escape marker. The compressor must detect
  // the collision and fall back to the verbatim form, and prev_addr /
  // prev_size tracking must stay consistent so the *next* delta-coded op
  // still expands correctly.
  cpu::DecodedTrace t;
  t.ops.push_back(mem_op(cpu::OpKind::kLoad, 0x1000, 8));  // prev = (0x1000, 8)
  cpu::DecodedOp collide = mem_op(cpu::OpKind::kPrefetch, 0x1400, 0);
  t.ops.push_back(collide);  // delta 0x400, size 0 != 8 -> tag would be 0xFF
  t.ops.push_back(mem_op(cpu::OpKind::kLoad, 0x1408, 8));  // delta vs 0x1400
  const cpu::CompressedTrace c = cpu::compress(t);
  // The collision op must have taken the 17-byte escape.
  std::size_t escapes = 0;
  for (std::size_t i = 0; i < c.bytes.size();) {
    if (c.bytes[i] == 0xFFu) {
      ++escapes;
      i += 1 + sizeof(cpu::DecodedOp);
    } else {
      ++i;
    }
  }
  EXPECT_EQ(escapes, 1u);
  expect_ops_equal(cpu::decompress(c), t);
}

TEST(CompressedTrace, AdversarialPropertyFuzz) {
  // Property: for 64 seeded random streams mixing every nasty shape —
  // extreme addresses, every kind, size changes on every op (zero-size
  // prefetches included), zero-length exec runs, and the 62/63/64
  // inline-count boundary — decompress is the exact inverse.
  const Addr hot_spots[] = {0x0ULL,
                            0x1ULL,
                            0x7fffffffffffffffULL,
                            0x8000000000000000ULL,
                            0x8000000000000001ULL,
                            0xffffffffffffffffULL,
                            0x1000ULL,
                            0x1008ULL};
  const std::uint8_t sizes[] = {1, 2, 4, 8, 16, 32, 64, 255};
  const std::uint32_t counts[] = {0, 1, 2, 62, 63, 64, 100000};
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    Rng rng(seed);
    cpu::DecodedTrace t;
    for (unsigned i = 0; i < 200; ++i) {
      switch (rng.next_below(4)) {
        case 0:
          t.ops.push_back(exec_op(counts[rng.next_below(std::size(counts))]));
          break;
        case 1:
          t.ops.push_back(mem_op(cpu::OpKind::kLoad,
                                 hot_spots[rng.next_below(std::size(hot_spots))],
                                 sizes[rng.next_below(std::size(sizes))]));
          break;
        case 2: {
          t.ops.push_back(
              mem_op(cpu::OpKind::kStore,
                     hot_spots[rng.next_below(std::size(hot_spots))],
                     sizes[rng.next_below(std::size(sizes))]));
          t.store_values.push_back(rng.next_u64());
          break;
        }
        default:
          t.ops.push_back(
              mem_op(cpu::OpKind::kPrefetch,
                     hot_spots[rng.next_below(std::size(hot_spots))],
                     rng.next_below(4) == 0
                         ? std::uint8_t{0}
                         : sizes[rng.next_below(std::size(sizes))]));
      }
    }
    SCOPED_TRACE("seed " + std::to_string(seed));
    const cpu::CompressedTrace c = cpu::compress(t);
    EXPECT_EQ(c.size(), t.ops.size());
    expect_ops_equal(cpu::decompress(c), t);
  }
}

TEST(CompressedBlobCodec, ExactRoundTripAndCorruptionRejected) {
  const cpu::CompressedTrace compressed =
      cpu::compress(testutil::random_trace(13, 1500, 1 << 14));
  const std::vector<std::uint8_t> blob = cpu::serialize_compressed(compressed);

  cpu::CompressedTrace back;
  ASSERT_TRUE(cpu::deserialize_compressed(blob.data(), blob.size(), back));
  EXPECT_EQ(back.op_count, compressed.op_count);
  EXPECT_EQ(back.bytes, compressed.bytes);
  EXPECT_EQ(back.store_values, compressed.store_values);

  // Truncation at any section boundary (and a short header) must fail
  // cleanly rather than read out of bounds.
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{10}, std::size_t{23},
        blob.size() - compressed.store_values.size() * 8 - 1,
        blob.size() - 1}) {
    EXPECT_FALSE(cpu::deserialize_compressed(blob.data(), len, back))
        << "len " << len;
  }
  // An inconsistent stream length must fail, not misparse.
  std::vector<std::uint8_t> bad = blob;
  bad[8] = static_cast<std::uint8_t>(bad[8] ^ 0x01);  // stream_bytes field
  EXPECT_FALSE(cpu::deserialize_compressed(bad.data(), bad.size(), back));
}

// ---- Trace digest -----------------------------------------------------

TEST(TraceDigest, StableAndSensitiveToKernelAndCodegen) {
  const workloads::CodegenOptions none = workloads::CodegenOptions::none();
  const std::uint64_t d = experiments::trace_digest("gemm", none);
  EXPECT_EQ(d, experiments::trace_digest("gemm", none));
  EXPECT_NE(d, experiments::trace_digest("atax", none));
  EXPECT_NE(d,
            experiments::trace_digest("gemm", workloads::CodegenOptions::all()));
  workloads::CodegenOptions vec = none;
  vec.vectorize = true;
  EXPECT_NE(d, experiments::trace_digest("gemm", vec));
  workloads::CodegenOptions pf = none;
  pf.prefetch = true;
  EXPECT_NE(experiments::trace_digest("gemm", vec),
            experiments::trace_digest("gemm", pf));
}

// ---- Engine-level integration -----------------------------------------

/// RAII: installs a fresh trace store for one scope and restores the
/// process-wide registration on exit.
class ScopedTraceStore {
 public:
  explicit ScopedTraceStore(const std::string& path)
      : store_(path, cpu::kTraceFormatVersion) {
    exec::set_trace_store(&store_);
  }
  ~ScopedTraceStore() { exec::set_trace_store(nullptr); }
  exec::TraceStore& get() { return store_; }

 private:
  exec::TraceStore store_;
};

TEST(TraceStoreIntegration, WarmRunGeneratesZeroTracesAndStaysIdentical) {
  const workloads::Kernel& kernel = workloads::find_kernel("atax");
  const workloads::CodegenOptions opts = workloads::CodegenOptions::all();
  const cpu::SystemConfig cfg =
      experiments::make_config(cpu::Dl1Organization::kNvmVwb);
  const std::string path = temp_store_path("integration");
  std::remove(path.c_str());

  // One grid point, the way a bench replays it.
  const auto run = [&] {
    return sim::to_json(experiments::run_grid({kernel}, {{cfg, opts}})[0][0]);
  };
  exec::set_trace_store(nullptr);
  const std::string reference = run();

  auto& telemetry = exec::Telemetry::instance();
  std::string cold;
  {
    ScopedTraceStore store(path);
    const exec::TelemetrySnapshot before = telemetry.snapshot();
    cold = run();
    const exec::TelemetrySnapshot delta = telemetry.snapshot() - before;
    EXPECT_EQ(delta.trace_store_misses, 1u);
    EXPECT_EQ(delta.trace_store_hits, 0u);
    EXPECT_EQ(delta.traces_generated, 1u);
    EXPECT_EQ(store.get().entries(), 1u);
  }
  // Fresh store object: the warm pass must decode the trace from disk and
  // generate nothing.
  {
    ScopedTraceStore store(path);
    const exec::TelemetrySnapshot before = telemetry.snapshot();
    const std::string warm = run();
    const exec::TelemetrySnapshot delta = telemetry.snapshot() - before;
    EXPECT_EQ(delta.trace_store_hits, 1u);
    EXPECT_EQ(delta.trace_store_misses, 0u);
    EXPECT_EQ(delta.traces_generated, 0u);
    EXPECT_EQ(warm, cold);
  }
  EXPECT_EQ(cold, reference) << "trace store changed simulation results";
  std::remove(path.c_str());
}

// The stored blob must reproduce the generated workload bit for bit: the
// ops and the (empty) sidecar match a storeless generation.
TEST(TraceStoreIntegration, StoredTraceDecodesToIdenticalWorkload) {
  const workloads::Kernel& kernel = workloads::find_kernel("gemm");
  const workloads::CodegenOptions opts = workloads::CodegenOptions::none();
  const std::string path = temp_store_path("workload");
  std::remove(path.c_str());

  exec::set_trace_store(nullptr);
  const cpu::DecodedTrace reference =
      experiments::load_or_synthesize(kernel, opts);

  {
    ScopedTraceStore store(path);
    experiments::load_or_synthesize(kernel, opts);  // cold: fills the store
  }
  ScopedTraceStore store(path);
  const cpu::DecodedTrace warm = experiments::load_or_synthesize(kernel, opts);
  ASSERT_EQ(warm.ops.size(), reference.ops.size());
  EXPECT_EQ(std::memcmp(warm.ops.data(), reference.ops.data(),
                        warm.ops.size() * sizeof(cpu::DecodedOp)),
            0);
  EXPECT_EQ(warm.store_values, reference.store_values);
  EXPECT_TRUE(warm.store_values.empty());
  std::remove(path.c_str());
}

// A stored blob that passes the store's record checksum but holds a
// malformed stream (here a lone escape tag) must not be expanded: the load
// counts it as a miss and regenerates the trace.
TEST(TraceStoreIntegration, MalformedStoredBlobIsAMiss) {
  const workloads::Kernel& kernel = workloads::find_kernel("trisolv");
  const workloads::CodegenOptions opts = workloads::CodegenOptions::none();
  const std::string path = temp_store_path("malformed");
  std::remove(path.c_str());

  exec::set_trace_store(nullptr);
  const cpu::DecodedTrace reference =
      experiments::load_or_synthesize(kernel, opts);

  ScopedTraceStore store(path);
  cpu::CompressedTrace bad;
  bad.bytes = {0xFF};
  bad.op_count = 1;
  const std::vector<std::uint8_t> blob = cpu::serialize_compressed(bad);
  store.get().append(experiments::trace_digest(kernel.name, opts),
                     blob.data(), blob.size());
  auto& telemetry = exec::Telemetry::instance();
  const exec::TelemetrySnapshot before = telemetry.snapshot();
  EXPECT_EQ(experiments::load_or_synthesize(kernel, opts), reference);
  const exec::TelemetrySnapshot delta = telemetry.snapshot() - before;
  EXPECT_EQ(delta.trace_store_hits, 0u);
  EXPECT_EQ(delta.trace_store_misses, 1u);
  EXPECT_EQ(delta.traces_generated, 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sttsim
