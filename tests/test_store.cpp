// Tests: the digest-keyed record log (exec/append_log) behind both
// persistent stores. One typed suite runs every durability and sharing
// case for exec::ResultStore and exec::TraceStore alike — round trip and
// reopen, first write wins, truncated tail, wrong schema, tampered payload,
// corrupted length, concurrent threads, forked second writers, a writer
// killed mid-append, refresh visibility and open-failure diagnostics. The
// per-type cases follow, then a format tripwire that pins the bytes each
// store writes.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/wait.h>
#include <unistd.h>

#include "sttsim/exec/result_store.hpp"
#include "sttsim/exec/trace_store.hpp"
#include "sttsim/util/hash.hpp"

namespace sttsim {
namespace {

constexpr std::size_t kHeaderBytes = 24;  // magic, schema, aux, check
constexpr std::size_t kRecordHead = 12;   // digest u64 + len u32
constexpr std::size_t kRecordTail = 8;    // checksum u64

std::vector<std::uint8_t> make_blob(std::uint8_t seed, std::size_t len) {
  std::vector<std::uint8_t> p(len);
  for (std::size_t i = 0; i < p.size(); ++i) {
    p[i] = static_cast<std::uint8_t>(seed + 3 * i);
  }
  return p;
}

/// Overwrites one byte of the file in place (tampering helper).
void flip_byte(const std::string& path, std::size_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.get(c);
  f.seekp(static_cast<std::streamoff>(offset));
  f.put(static_cast<char>(c ^ 0x5a));
}

std::uint64_t file_hash(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  const std::vector<char> bytes{std::istreambuf_iterator<char>(f), {}};
  return util::hash_bytes(bytes.data(), bytes.size());
}

/// Forks, runs `child` in the child process, and _exits with its return
/// code (bypassing gtest atexit and inherited stdio buffers). Returns the
/// child's exit status in the parent.
int run_forked(const std::function<int()>& child) {
  std::fflush(nullptr);  // no double-flush of inherited buffers
  const pid_t pid = fork();
  if (pid == 0) {
    _exit(child());
  }
  int status = 0;
  waitpid(pid, &status, 0);
  return status;
}

// ---- The two typed views, seen through one interface ------------------

template <class Store>
struct Traits;

template <>
struct Traits<exec::ResultStore> {
  static constexpr std::size_t kArg = 16;  // fixed payload size
  static constexpr const char* kWhat = "result store";
  static std::size_t len(std::uint64_t /*digest*/) { return kArg; }
  static void append(exec::ResultStore& s, std::uint64_t d,
                     const std::vector<std::uint8_t>& blob) {
    s.append(d, blob.data());
  }
  static bool lookup(const exec::ResultStore& s, std::uint64_t d,
                     std::vector<std::uint8_t>& out) {
    out.resize(kArg);
    return s.lookup(d, out.data());
  }
};

template <>
struct Traits<exec::TraceStore> {
  static constexpr std::uint32_t kArg = 7;  // content version
  static constexpr const char* kWhat = "trace store";
  // Variable-length blobs, from empty (digest 0) to 1000 bytes (digest 1).
  static std::size_t len(std::uint64_t digest) {
    constexpr std::size_t kLens[] = {0, 1000, 64, 7, 1, 29, 300};
    return kLens[digest % std::size(kLens)];
  }
  static void append(exec::TraceStore& s, std::uint64_t d,
                     const std::vector<std::uint8_t>& blob) {
    s.append(d, blob.data(), blob.size());
  }
  static bool lookup(const exec::TraceStore& s, std::uint64_t d,
                     std::vector<std::uint8_t>& out) {
    return s.lookup(d, out);
  }
};

template <class Store>
class StoreLog : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "sttsim_store_" +
            (std::is_same_v<Store, exec::ResultStore> ? "result_" : "trace_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".bin";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  static std::vector<std::uint8_t> blob(std::uint64_t digest,
                                        std::uint8_t seed) {
    return make_blob(seed, Traits<Store>::len(digest));
  }
  static std::size_t record_bytes(std::uint64_t digest) {
    return kRecordHead + Traits<Store>::len(digest) + kRecordTail;
  }
  static void put(Store& store, std::uint64_t digest, std::uint8_t seed) {
    Traits<Store>::append(store, digest, blob(digest, seed));
  }
  static bool found(const Store& store, std::uint64_t digest) {
    std::vector<std::uint8_t> out;
    return Traits<Store>::lookup(store, digest, out);
  }
  /// True iff `digest` holds exactly the blob `seed` made.
  static bool holds(const Store& store, std::uint64_t digest,
                    std::uint8_t seed) {
    std::vector<std::uint8_t> out;
    return Traits<Store>::lookup(store, digest, out) &&
           out == blob(digest, seed);
  }

  std::string path_;
};

struct StoreNames {
  template <class Store>
  static std::string GetName(int) {
    return std::is_same_v<Store, exec::ResultStore> ? "ResultStore"
                                                    : "TraceStore";
  }
};

using StoreTypes = ::testing::Types<exec::ResultStore, exec::TraceStore>;
TYPED_TEST_SUITE(StoreLog, StoreTypes, StoreNames);

TYPED_TEST(StoreLog, RoundTripAndReopenFromDisk) {
  const std::string& path = this->path_;
  {
    TypeParam store(path, Traits<TypeParam>::kArg);
    EXPECT_EQ(store.entries(), 0u);
    for (std::uint64_t d = 0; d < 5; ++d) {
      this->put(store, d, static_cast<std::uint8_t>(d + 1));
    }
    EXPECT_EQ(store.entries(), 5u);
    EXPECT_TRUE(this->holds(store, 3, 4));
    EXPECT_FALSE(this->found(store, 9999));
  }
  // Reopen: everything must come back from the bytes on disk.
  TypeParam store(path, Traits<TypeParam>::kArg);
  EXPECT_EQ(store.entries(), 5u);
  EXPECT_EQ(store.dropped_records(), 0u);
  EXPECT_EQ(store.truncated_bytes(), 0u);
  for (std::uint64_t d = 0; d < 5; ++d) {
    EXPECT_TRUE(this->holds(store, d, static_cast<std::uint8_t>(d + 1)))
        << "digest " << d;
  }
  EXPECT_FALSE(this->found(store, 9999));
}

TYPED_TEST(StoreLog, FirstWriteWins) {
  TypeParam store(this->path_, Traits<TypeParam>::kArg);
  this->put(store, 42, 1);
  this->put(store, 42, 2);  // ignored
  EXPECT_EQ(store.entries(), 1u);
  EXPECT_TRUE(this->holds(store, 42, 1));
}

TYPED_TEST(StoreLog, TruncatedTailIsDroppedAndFileRealigned) {
  const std::string& path = this->path_;
  {
    TypeParam store(path, Traits<TypeParam>::kArg);
    for (std::uint8_t d = 1; d <= 3; ++d) this->put(store, d, d);
  }
  // Chop the third record short — a crash mid-append.
  std::filesystem::resize_file(
      path, kHeaderBytes + this->record_bytes(1) + this->record_bytes(2) + 10);
  {
    TypeParam store(path, Traits<TypeParam>::kArg);
    EXPECT_EQ(store.entries(), 2u);
    EXPECT_EQ(store.truncated_bytes(), 10u);
    EXPECT_TRUE(this->holds(store, 1, 1));
    EXPECT_TRUE(this->holds(store, 2, 2));
    EXPECT_FALSE(this->found(store, 3));
    // Appending after recovery must stay record-aligned.
    this->put(store, 4, 4);
  }
  TypeParam store(path, Traits<TypeParam>::kArg);
  EXPECT_EQ(store.entries(), 3u);
  EXPECT_EQ(store.truncated_bytes(), 0u);
  EXPECT_TRUE(this->holds(store, 4, 4));
}

TYPED_TEST(StoreLog, WrongSchemaVersionReinitializesEmpty) {
  const std::string& path = this->path_;
  {
    TypeParam store(path, Traits<TypeParam>::kArg);
    this->put(store, 7, 7);
  }
  flip_byte(path, 8);  // schema-version field of the header
  {
    ::testing::internal::CaptureStderr();
    TypeParam store(path, Traits<TypeParam>::kArg);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find(Traits<TypeParam>::kWhat), std::string::npos) << err;
    EXPECT_NE(err.find("header/schema mismatch"), std::string::npos) << err;
    EXPECT_EQ(store.entries(), 0u);  // old records invalidated wholesale
    this->put(store, 8, 8);
  }
  TypeParam store(path, Traits<TypeParam>::kArg);
  EXPECT_EQ(store.entries(), 1u);
  EXPECT_FALSE(store.contains(7));
  EXPECT_TRUE(store.contains(8));
}

// A tampered record's checksum no longer matches, so the key must MISS
// (forcing a recompute) rather than serve corrupt bytes. Framing is intact,
// so records after the tampered one stay readable.
TYPED_TEST(StoreLog, TamperedPayloadSkippedInPlace) {
  const std::string& path = this->path_;
  {
    TypeParam store(path, Traits<TypeParam>::kArg);
    this->put(store, 1, 1);
    this->put(store, 2, 2);
  }
  flip_byte(path, kHeaderBytes + kRecordHead + 3);  // payload of record #1
  TypeParam store(path, Traits<TypeParam>::kArg);
  EXPECT_EQ(store.dropped_records(), 1u);
  EXPECT_EQ(store.entries(), 1u);
  EXPECT_FALSE(this->found(store, 1));  // recompute, don't trust
  EXPECT_TRUE(this->holds(store, 2, 2));
}

// A corrupted LENGTH field cannot be skipped in place — it desyncs the
// framing — so everything from the bad record on is discarded as a torn
// tail, and the file realigns for future appends.
TYPED_TEST(StoreLog, CorruptedLengthTruncatesRestOfFile) {
  const std::string& path = this->path_;
  {
    TypeParam store(path, Traits<TypeParam>::kArg);
    for (std::uint8_t d = 1; d <= 3; ++d) this->put(store, d, d);
  }
  // Blast the high byte of record #2's length: the stated extent now runs
  // far past EOF.
  flip_byte(path, kHeaderBytes + this->record_bytes(1) + 8 + 3);
  {
    TypeParam store(path, Traits<TypeParam>::kArg);
    EXPECT_EQ(store.entries(), 1u);
    EXPECT_GT(store.truncated_bytes(), 0u);
    EXPECT_TRUE(this->holds(store, 1, 1));
    EXPECT_FALSE(this->found(store, 2));
    EXPECT_FALSE(this->found(store, 3));
    this->put(store, 9, 9);
  }
  TypeParam store(path, Traits<TypeParam>::kArg);
  EXPECT_EQ(store.entries(), 2u);
  EXPECT_EQ(store.dropped_records(), 0u);
  EXPECT_EQ(store.truncated_bytes(), 0u);
}

TYPED_TEST(StoreLog, ConcurrentAppendFromEightThreads) {
  const std::string& path = this->path_;
  constexpr unsigned kThreads = 8;
  constexpr unsigned kPerThread = 64;
  {
    TypeParam store(path, Traits<TypeParam>::kArg);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
      threads.emplace_back([&store, t] {
        for (unsigned i = 0; i < kPerThread; ++i) {
          const std::uint64_t d = t * kPerThread + i;
          const auto seed = static_cast<std::uint8_t>(d);
          StoreLog<TypeParam>::put(store, d, seed);
          // Contended digest: every thread races to write it; first wins.
          StoreLog<TypeParam>::put(store, 1ull << 60, seed);
          EXPECT_TRUE(StoreLog<TypeParam>::found(store, d));
        }
      });
    }
    for (std::thread& th : threads) th.join();
    EXPECT_EQ(store.entries(), kThreads * kPerThread + 1);
  }
  // Every record survives the reopen intact.
  TypeParam store(path, Traits<TypeParam>::kArg);
  EXPECT_EQ(store.entries(), kThreads * kPerThread + 1);
  EXPECT_EQ(store.dropped_records(), 0u);
  EXPECT_EQ(store.truncated_bytes(), 0u);
  for (std::uint64_t d = 0; d < kThreads * kPerThread; ++d) {
    ASSERT_TRUE(this->holds(store, d, static_cast<std::uint8_t>(d)));
  }
}

// Any number of instances (same process or not) may write the same path.
// Every mutation holds an exclusive flock and scans foreign records before
// appending, so a second instance opened mid-run always reads a
// well-formed snapshot, a digest any writer already landed is never
// overwritten, and an interloper's append survives the original writer's
// next append: each append seeks to the scanned end of file, so records
// interleave instead of clobbering.
TYPED_TEST(StoreLog, CrossReopenSeesConsistentSnapshotAndFirstWriteWins) {
  const std::string& path = this->path_;
  TypeParam first(path, Traits<TypeParam>::kArg);
  constexpr std::uint64_t kRounds = 32;
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    this->put(first, r, static_cast<std::uint8_t>(r));

    // Reopen between appends: every record the owner wrote so far must
    // come back intact — no drops, no truncation, no torn bytes.
    TypeParam second(path, Traits<TypeParam>::kArg);
    EXPECT_EQ(second.dropped_records(), 0u);
    EXPECT_EQ(second.truncated_bytes(), 0u);
    for (std::uint64_t d = 0; d <= r; ++d) {
      ASSERT_TRUE(this->holds(second, d, static_cast<std::uint8_t>(d)))
          << "round " << r << " digest " << d;
    }

    // Re-appending a digest the snapshot holds is a no-op (first write
    // wins), and a foreign append interleaves with the owner's stream.
    this->put(second, r, static_cast<std::uint8_t>(r + 100));
    this->put(second, 1000 + r, static_cast<std::uint8_t>(r + 1));
  }
  TypeParam final_view(path, Traits<TypeParam>::kArg);
  EXPECT_EQ(final_view.dropped_records(), 0u);
  EXPECT_EQ(final_view.truncated_bytes(), 0u);
  EXPECT_EQ(final_view.entries(), 2 * kRounds);
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    EXPECT_TRUE(this->holds(final_view, r, static_cast<std::uint8_t>(r)))
        << "owner record " << r << " lost or overwritten";
    EXPECT_TRUE(
        this->holds(final_view, 1000 + r, static_cast<std::uint8_t>(r + 1)))
        << "interloper record " << r << " lost";
  }
}

// ---- Multi-process sharing (fork-based) -------------------------------

// Two processes appending concurrently to one path: every record from both
// writers must be readable afterwards, with zero dropped or truncated bytes.
TYPED_TEST(StoreLog, ForkedWriterInterleavesCleanly) {
  const std::string& path = this->path_;
  TypeParam store(path, Traits<TypeParam>::kArg);

  const int status = run_forked([&path] {
    TypeParam child_store(path, Traits<TypeParam>::kArg);
    for (std::uint64_t d = 2000; d < 2064; ++d) {
      StoreLog<TypeParam>::put(child_store, d, static_cast<std::uint8_t>(d));
    }
    return 0;
  });
  for (std::uint64_t d = 0; d < 64; ++d) {
    this->put(store, d, static_cast<std::uint8_t>(d));
  }
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  // refresh() pulls the child's records into the parent's index.
  store.refresh();
  EXPECT_EQ(store.entries(), 128u);
  for (std::uint64_t d = 0; d < 64; ++d) {
    ASSERT_TRUE(this->holds(store, d, static_cast<std::uint8_t>(d)));
    ASSERT_TRUE(
        this->holds(store, 2000 + d, static_cast<std::uint8_t>(2000 + d)));
  }
  TypeParam reopened(path, Traits<TypeParam>::kArg);
  EXPECT_EQ(reopened.entries(), 128u);
  EXPECT_EQ(reopened.dropped_records(), 0u);
  EXPECT_EQ(reopened.truncated_bytes(), 0u);
}

// A digest the child landed first is never overwritten by the parent's
// later append, even though the parent has not called refresh() — append
// itself scans foreign records under the lock before writing.
TYPED_TEST(StoreLog, FirstWriteWinsAcrossProcesses) {
  const std::string& path = this->path_;
  TypeParam store(path, Traits<TypeParam>::kArg);

  const int status = run_forked([&path] {
    TypeParam child_store(path, Traits<TypeParam>::kArg);
    StoreLog<TypeParam>::put(child_store, 5000, 11);
    return 0;
  });
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);

  this->put(store, 5000, 99);
  EXPECT_TRUE(this->holds(store, 5000, 11))
      << "parent overwrote a record another process had already written";
  TypeParam reopened(path, Traits<TypeParam>::kArg);
  EXPECT_EQ(reopened.entries(), 1u);
}

// A child killed mid-append — SIGKILL with the file lock held and half a
// record written — must not poison the store: the kernel releases its
// flock, and the parent's next refresh() truncates the torn tail.
TYPED_TEST(StoreLog, KilledMidAppendChildTailIsTruncatedOnRefresh) {
  const std::string& path = this->path_;
  TypeParam store(path, Traits<TypeParam>::kArg);
  this->put(store, 1, 1);
  const std::size_t half = this->record_bytes(1) / 2;

  const int status = run_forked([&path, half]() -> int {
    const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
    if (fd < 0) return 1;
    if (flock(fd, LOCK_EX) != 0) return 2;
    const std::vector<std::uint8_t> bytes(half, 0xab);
    if (write(fd, bytes.data(), bytes.size()) !=
        static_cast<ssize_t>(bytes.size())) {
      return 3;
    }
    raise(SIGKILL);  // dies holding the lock, mid-record
    return 4;        // unreachable
  });
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  EXPECT_EQ(store.refresh(), 0u);
  EXPECT_EQ(store.truncated_bytes(), half);
  EXPECT_EQ(store.entries(), 1u);

  this->put(store, 2, 2);
  TypeParam reopened(path, Traits<TypeParam>::kArg);
  EXPECT_EQ(reopened.entries(), 2u);
  EXPECT_EQ(reopened.dropped_records(), 0u);
  EXPECT_EQ(reopened.truncated_bytes(), 0u);
  EXPECT_TRUE(this->holds(reopened, 1, 1));
  EXPECT_TRUE(this->holds(reopened, 2, 2));
}

// lookup() probes only the in-memory index; refresh() is the explicit
// synchronization point that makes another process's appends visible.
TYPED_TEST(StoreLog, RefreshMakesForeignAppendsVisible) {
  const std::string& path = this->path_;
  TypeParam store(path, Traits<TypeParam>::kArg);

  const int status = run_forked([&path] {
    TypeParam child_store(path, Traits<TypeParam>::kArg);
    for (std::uint64_t d = 100; d < 103; ++d) {
      StoreLog<TypeParam>::put(child_store, d, static_cast<std::uint8_t>(d));
    }
    return 0;
  });
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);

  EXPECT_FALSE(this->found(store, 100)) << "lookup must not do hidden I/O";
  EXPECT_EQ(store.refresh(), 3u);
  for (std::uint64_t d = 100; d < 103; ++d) {
    EXPECT_TRUE(this->holds(store, d, static_cast<std::uint8_t>(d)));
  }
  EXPECT_EQ(store.refresh(), 0u);  // idempotent when nothing new arrived
}

// ---- Open-failure diagnostics -----------------------------------------

TYPED_TEST(StoreLog, OpenErrorPathIsADirectory) {
  const std::string dir = this->path_ + ".dir";
  std::filesystem::create_directory(dir);
  try {
    TypeParam store(dir, Traits<TypeParam>::kArg);
    ADD_FAILURE() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(dir), std::string::npos) << what;
    EXPECT_NE(what.find("directory"), std::string::npos) << what;
    EXPECT_NE(what.find(Traits<TypeParam>::kWhat), std::string::npos) << what;
  }
  std::filesystem::remove(dir);
}

TYPED_TEST(StoreLog, OpenErrorMissingParentDirectory) {
  const std::string path =
      ::testing::TempDir() + "sttsim_no_such_dir/deeper/store.bin";
  try {
    TypeParam store(path, Traits<TypeParam>::kArg);
    ADD_FAILURE() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("parent directory does not exist"), std::string::npos)
        << what;
  }
}

TYPED_TEST(StoreLog, OpenErrorUnwritableDirectory) {
  if (geteuid() == 0) {
    GTEST_SKIP() << "permission checks are bypassed for root";
  }
  const std::string dir = this->path_ + ".readonly";
  std::filesystem::create_directory(dir);
  std::filesystem::permissions(dir, std::filesystem::perms::owner_read |
                                        std::filesystem::perms::owner_exec);
  try {
    TypeParam store(dir + "/store.bin", Traits<TypeParam>::kArg);
    ADD_FAILURE() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("permission denied"), std::string::npos) << what;
  }
  std::filesystem::permissions(dir, std::filesystem::perms::owner_all);
  std::filesystem::remove(dir);
}

// ---- Per-type cases -----------------------------------------------------

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "sttsim_store_" + name + ".bin";
}

/// Appends little-endian `v` as `n` bytes.
void put_le(std::vector<std::uint8_t>& out, std::uint64_t v, int n) {
  for (int i = 0; i < n; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> 8 * i));
  }
}

TEST(ResultStore, MismatchedPayloadSizeReinitializesEmpty) {
  const std::string path = temp_path("payloadsize");
  std::remove(path.c_str());
  {
    exec::ResultStore store(path, 16);
    store.append(7, make_blob(7, 16).data());
  }
  exec::ResultStore store(path, 32);
  EXPECT_EQ(store.entries(), 0u);
  std::remove(path.c_str());
}

// The fixed payload size is enforced by the type: a well-formed record of
// any other length (written by a foreign writer) is skipped on load like a
// corrupt one. It is never copied out, and it does not shadow the digest:
// the correct record can still be appended and wins on reopen.
TEST(ResultStore, RecordOfAnotherLengthIsSkipped) {
  const std::string path = temp_path("otherlen");
  std::remove(path.c_str());
  {
    exec::ResultStore store(path, 16);
    store.append(1, make_blob(1, 16).data());
  }
  std::vector<std::uint8_t> rec;
  put_le(rec, 2, 8);
  put_le(rec, 8, 4);
  const auto payload = make_blob(2, 8);
  rec.insert(rec.end(), payload.begin(), payload.end());
  put_le(rec, util::hash_bytes(rec.data(), rec.size()), 8);
  {
    std::ofstream f(path, std::ios::binary | std::ios::app);
    f.write(reinterpret_cast<const char*>(rec.data()),
            static_cast<std::streamsize>(rec.size()));
  }
  std::uint8_t out[16];
  {
    exec::ResultStore store(path, 16);
    EXPECT_EQ(store.dropped_records(), 1u);
    EXPECT_EQ(store.entries(), 1u);
    EXPECT_FALSE(store.contains(2));
    EXPECT_FALSE(store.lookup(2, out));
    ASSERT_TRUE(store.lookup(1, out));
    EXPECT_EQ(std::vector<std::uint8_t>(out, out + 16), make_blob(1, 16));
    store.append(2, make_blob(2, 16).data());
    EXPECT_TRUE(store.contains(2));
  }
  exec::ResultStore store(path, 16);
  EXPECT_EQ(store.entries(), 2u);
  ASSERT_TRUE(store.lookup(2, out));
  EXPECT_EQ(std::vector<std::uint8_t>(out, out + 16), make_blob(2, 16));
  std::remove(path.c_str());
}

TEST(TraceStore, WrongContentVersionReinitializesEmpty) {
  const std::string path = temp_path("content");
  std::remove(path.c_str());
  {
    exec::TraceStore store(path, 7);
    const auto blob = make_blob(7, 16);
    store.append(7, blob.data(), blob.size());
  }
  // A different content version (e.g. a kTraceFormatVersion bump) makes
  // every old blob unreachable wholesale.
  exec::TraceStore store(path, 8);
  EXPECT_EQ(store.entries(), 0u);
  std::remove(path.c_str());
}

TEST(TraceStore, OversizedBlobIgnored) {
  const std::string path = temp_path("oversized");
  std::remove(path.c_str());
  exec::TraceStore store(path, 7);
  const auto blob = make_blob(1, 32);
  // A stated length beyond the blob cap never reaches the file.
  store.append(43, blob.data(),
               static_cast<std::size_t>(exec::TraceStore::kMaxBlobBytes) + 1);
  EXPECT_FALSE(store.contains(43));
  EXPECT_EQ(std::filesystem::file_size(path), kHeaderBytes);
  std::remove(path.c_str());
}

// ---- Format tripwire ------------------------------------------------------

// A fixed set of records written into each store, pinned by a hash of the
// whole file. The trace-store pin predates the one-log merge: the trace
// format must never drift without a schema bump. The result-store pin is
// the length-prefixed "STTRSLT2" layout.
TEST(StoreFormat, FixedRecordsWriteThePinnedBytes) {
  const std::string trace_path = temp_path("pin_trace");
  const std::string result_path = temp_path("pin_result");
  std::remove(trace_path.c_str());
  std::remove(result_path.c_str());
  {
    exec::TraceStore traces(trace_path, 7);
    exec::ResultStore results(result_path, 16);
    const std::size_t lens[] = {0, 5, 16, 40};
    for (std::uint8_t i = 0; i < 4; ++i) {
      const auto blob = make_blob(i + 1, lens[i]);
      traces.append(i + 1, blob.data(), blob.size());
      results.append(i + 1, make_blob(i + 1, 16).data());
    }
  }
  EXPECT_EQ(file_hash(trace_path), 0xd57531fb489a4f52ULL);
  EXPECT_EQ(file_hash(result_path), 0xe10450beb273dfb3ULL);
  std::remove(trace_path.c_str());
  std::remove(result_path.c_str());
}

// A result store of the earlier fixed-record layout ("STTRSLT1", records
// [digest u64][payload][checksum u64]) re-initializes empty with the
// mismatch message: recompute, never refuse and never misread.
TEST(StoreFormat, FixedRecordResultFileReinitializesEmpty) {
  const std::string path = temp_path("fixed_record");
  std::vector<std::uint8_t> bytes;
  put_le(bytes, 0x31544c5352545453ULL, 8);  // "STTRSLT1"
  put_le(bytes, exec::ResultStore::kSchemaVersion, 4);
  put_le(bytes, 16, 4);  // payload size
  put_le(bytes, util::hash_bytes(bytes.data(), 16), 8);
  for (std::uint8_t i = 0; i < 4; ++i) {
    const std::size_t start = bytes.size();
    put_le(bytes, i + 1, 8);
    const auto payload = make_blob(i + 1, 16);
    bytes.insert(bytes.end(), payload.begin(), payload.end());
    put_le(bytes, util::hash_bytes(bytes.data() + start, 8 + 16), 8);
  }
  // The same records the tripwire above writes, in the bytes the
  // fixed-record store wrote for them.
  EXPECT_EQ(util::hash_bytes(bytes.data(), bytes.size()),
            0x6ff7264de5590924ULL);
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  }
  ::testing::internal::CaptureStderr();
  {
    exec::ResultStore store(path, 16);
    EXPECT_EQ(store.entries(), 0u);
    std::uint8_t out[16];
    EXPECT_FALSE(store.lookup(1, out));
  }
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("result store " + path + ": header/schema mismatch"),
            std::string::npos)
      << err;
  EXPECT_EQ(std::filesystem::file_size(path), kHeaderBytes);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sttsim
