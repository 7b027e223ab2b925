// Unit tests: trace files, and the validation of the compressed blob they
// and the trace store share.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <sstream>

#include "sttsim/cpu/system.hpp"
#include "sttsim/cpu/trace_io.hpp"
#include "sttsim/util/hash.hpp"
#include "trace_util.hpp"

namespace sttsim::cpu {
namespace {

using testutil::ex;
using testutil::ld;
using testutil::pf;
using testutil::st;
using testutil::trace_of;

DecodedTrace sample_trace() {
  return trace_of(
      {ex(7), ld(0x1000, 8), st(0x2000, 32), pf(0x3000), ex(1000000)});
}

/// A trace file around `blob`, with a correct checksum.
std::string file_with_blob(const std::vector<std::uint8_t>& blob,
                           std::uint32_t version = kTraceFormatVersion) {
  std::string out;
  const auto put = [&out](const auto& v) {
    out.append(reinterpret_cast<const char*>(&v), sizeof v);
  };
  put(std::uint64_t{0x4543415254545453ULL});  // "STTTRACE"
  put(version);
  put(util::hash_bytes(blob.data(), blob.size()));
  out.append(blob.begin(), blob.end());
  return out;
}

/// A compressed blob holding `stream` as its op stream.
std::vector<std::uint8_t> blob_of(std::vector<std::uint8_t> stream,
                                  std::uint64_t op_count,
                                  std::vector<std::uint64_t> values = {}) {
  CompressedTrace c;
  c.bytes = std::move(stream);
  c.op_count = op_count;
  c.store_values = std::move(values);
  return serialize_compressed(c);
}

DecodedTrace read_string(const std::string& bytes) {
  std::stringstream ss(bytes);
  return read_trace(ss);
}

TEST(TraceIo, StorePayloadsSurviveRoundTrip) {
  std::stringstream ss;
  const DecodedTrace original =
      trace_of({st(0x100, 8, 0xDEADBEEFCAFEF00DULL),
                st(0x200, 16, 0x0123456789ABCDEFULL), ld(0x100, 8)});
  write_trace(ss, original);
  const DecodedTrace restored = read_trace(ss);
  ASSERT_EQ(restored.store_values.size(), 2u);
  EXPECT_EQ(restored.store_value(0), 0xDEADBEEFCAFEF00DULL);
  EXPECT_EQ(restored.store_value(1), 0x0123456789ABCDEFULL);
  EXPECT_EQ(restored, original);
}

TEST(TraceIo, AssignStoreValuesIsDeterministicAndNonzero) {
  DecodedTrace a = sample_trace();
  DecodedTrace b = sample_trace();
  assign_store_values(a, 42);
  assign_store_values(b, 42);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.store_values.size(), 1u);  // one store in the sample
  EXPECT_NE(a.store_values[0], 0u);
  DecodedTrace c = sample_trace();
  assign_store_values(c, 43);  // a different seed gives different payloads
  EXPECT_NE(a, c);
}

TEST(TraceIo, RoundTripPreservesEveryField) {
  std::stringstream ss;
  const DecodedTrace original = sample_trace();
  write_trace(ss, original);
  EXPECT_EQ(read_trace(ss), original);
}

TEST(TraceIo, EmptyTraceRoundTrips) {
  std::stringstream ss;
  write_trace(ss, {});
  EXPECT_TRUE(read_trace(ss).empty());
}

TEST(TraceIo, KernelTraceRoundTripsWithItsEmptySidecar) {
  std::stringstream ss;
  const DecodedTrace original = testutil::kernel_trace(
      workloads::gemm_into, workloads::CodegenOptions::all(), 8, 8, 8);
  ASSERT_TRUE(original.store_values.empty());
  write_trace(ss, original);
  EXPECT_EQ(read_trace(ss), original);
}

TEST(TraceIo, RejectsBadMagic) {
  EXPECT_THROW(read_string("this is not a trace file at all..."),
               TraceIoError);
}

TEST(TraceIo, RejectsOtherVersions) {
  const auto blob = serialize_compressed(compress(sample_trace()));
  EXPECT_NO_THROW(read_string(file_with_blob(blob)));
  for (const std::uint32_t version : {1u, 2u, kTraceFormatVersion + 1}) {
    EXPECT_THROW(read_string(file_with_blob(blob, version)), TraceIoError)
        << "version " << version;
  }
}

TEST(TraceIo, RejectsTruncatedStream) {
  std::stringstream ss;
  write_trace(ss, sample_trace());
  const std::string full = ss.str();
  for (const std::size_t keep : {std::size_t{4}, std::size_t{10},
                                 std::size_t{19}, full.size() - 5}) {
    EXPECT_THROW(read_string(full.substr(0, keep)), TraceIoError)
        << "kept " << keep;
  }
}

TEST(TraceIo, RejectsChecksumMismatch) {
  std::stringstream ss;
  write_trace(ss, sample_trace());
  std::string bytes = ss.str();
  bytes.back() = static_cast<char>(bytes.back() ^ 0x10);
  EXPECT_THROW(read_string(bytes), TraceIoError);
}

TEST(TraceIo, RejectsBadOpKind) {
  // An escaped op whose kind byte names no OpKind.
  std::vector<std::uint8_t> stream(1 + sizeof(DecodedOp), 0);
  stream[0] = 0xFF;
  stream[1 + offsetof(DecodedOp, kind)] = 42;
  EXPECT_THROW(read_string(file_with_blob(blob_of(stream, 1))), TraceIoError);
}

TEST(TraceIo, RejectsZeroSizeMemoryOp) {
  // A compact load with no size byte before any sized op: size 0.
  EXPECT_THROW(read_string(file_with_blob(blob_of({0x01}, 1))), TraceIoError);
}

TEST(TraceIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/sttsim_io_test.trc";
  const DecodedTrace original = sample_trace();
  write_trace_file(path, original);
  EXPECT_EQ(read_trace_file(path), original);
  std::remove(path.c_str());
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(read_trace_file("/nonexistent/dir/x.trc"), TraceIoError);
  EXPECT_THROW(write_trace_file("/nonexistent/dir/x.trc", {}), TraceIoError);
}

// ---- Malformed compressed blobs --------------------------------------
//
// Trace files and trace-store records are blobs from outside the process:
// deserialize_compressed and decompress must reject every malformed one
// without reading out of bounds or allocating by a forged length.

/// Parses and expands `blob`; false if either step rejects it.
bool load_blob(const std::vector<std::uint8_t>& blob, DecodedTrace& out) {
  CompressedTrace c;
  if (!deserialize_compressed(blob.data(), blob.size(), c)) return false;
  try {
    out = decompress(c);
  } catch (const TraceIoError&) {
    return false;
  }
  EXPECT_EQ(out.size(), c.op_count);
  return true;
}

TEST(MalformedBlob, HugeOpCountIsRejectedBeforeAllocating) {
  DecodedTrace t;
  EXPECT_FALSE(load_blob(blob_of({}, std::uint64_t{1} << 60), t));
  CompressedTrace c;
  c.op_count = std::uint64_t{1} << 60;
  EXPECT_THROW(decompress(c), TraceIoError);
}

TEST(MalformedBlob, LoneEscapeTagIsRejected) {
  const std::vector<std::uint8_t> blob = blob_of({0xFF}, 1);
  ASSERT_EQ(blob.size(), 25u);
  DecodedTrace t;
  EXPECT_FALSE(load_blob(blob, t));
}

TEST(MalformedBlob, SidecarIsEmptyOrOnePayloadPerStore) {
  // Two compact stores, size 8 then +8: tags kStore|size-byte and kStore|+8.
  const std::vector<std::uint8_t> two_stores = {0x06, 8, 0x82};
  DecodedTrace t;
  ASSERT_TRUE(load_blob(blob_of(two_stores, 2), t));  // empty: all zero
  EXPECT_EQ(t.store_value(1), 0u);
  ASSERT_TRUE(load_blob(blob_of(two_stores, 2, {5, 6}), t));
  EXPECT_EQ(t.store_value(1), 6u);
  EXPECT_FALSE(load_blob(blob_of(two_stores, 2, {5}), t));
  EXPECT_FALSE(load_blob(blob_of(two_stores, 3), t));  // count mismatch
  EXPECT_FALSE(load_blob(blob_of(two_stores, 1), t));
}

TEST(MalformedBlob, EveryTruncationAndByteFlipIsRejectedOrValid) {
  DecodedTrace kernel = testutil::kernel_trace(
      workloads::gemm_into, workloads::CodegenOptions::all(), 4, 4, 4);
  assign_store_values(kernel, 3);
  const std::vector<std::uint8_t> blob =
      serialize_compressed(compress(kernel));
  DecodedTrace t;
  ASSERT_TRUE(load_blob(blob, t));
  ASSERT_EQ(t, kernel);

  for (std::size_t len = 0; len < blob.size(); ++len) {
    EXPECT_FALSE(load_blob(
        std::vector<std::uint8_t>(blob.begin(), blob.begin() + len), t))
        << "truncated to " << len;
  }
  System system(SystemConfig{});
  for (std::size_t i = 0; i < blob.size(); ++i) {
    for (const std::uint8_t mask : {0x01, 0x80, 0xFF}) {
      std::vector<std::uint8_t> flipped = blob;
      flipped[i] ^= mask;
      if (!load_blob(flipped, t)) continue;
      // Accepted: a well-formed trace the simulator can replay.
      std::size_t stores = 0;
      for (const DecodedOp& op : t.ops) {
        ASSERT_LE(static_cast<unsigned>(op.kind), 3u);
        if (op.kind == OpKind::kLoad || op.kind == OpKind::kStore) {
          ASSERT_GT(op.size, 0u);
        }
        stores += op.kind == OpKind::kStore;
      }
      ASSERT_TRUE(t.store_values.empty() || t.store_values.size() == stores);
      system.run(t);
    }
  }
}

}  // namespace
}  // namespace sttsim::cpu
