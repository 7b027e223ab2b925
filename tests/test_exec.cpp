// Unit tests for the parallel experiment engine: executor ordering and
// exception propagation, the throughput telemetry counters, and the result
// store under concurrent pool workers.
//
// Deliberately includes only sttsim/exec headers: the test_exec_tsan
// target recompiles this file together with the exec sources under
// ThreadSanitizer, with no dependency on the simulation libraries.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <latch>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "sttsim/exec/parallel_executor.hpp"
#include "sttsim/exec/result_store.hpp"
#include "sttsim/exec/telemetry.hpp"

namespace sttsim::exec {
namespace {

TEST(Jobs, HardwareJobsIsPositive) { EXPECT_GE(hardware_jobs(), 1u); }

TEST(Jobs, DefaultJobsFollowsOverride) {
  set_default_jobs(3);
  EXPECT_EQ(default_jobs(), 3u);
  set_default_jobs(0);
  EXPECT_EQ(default_jobs(), hardware_jobs());
}

TEST(ParallelExecutor, SerialPathRunsInlineOnCallingThread) {
  ParallelExecutor pool(1);
  EXPECT_EQ(pool.jobs(), 1u);
  const auto main_id = std::this_thread::get_id();
  auto f = pool.submit([main_id] {
    EXPECT_EQ(std::this_thread::get_id(), main_id);
    return 42;
  });
  EXPECT_EQ(f.get(), 42);
}

TEST(ParallelExecutor, MapReturnsResultsInInputOrder) {
  ParallelExecutor pool(4);
  const std::size_t n = 200;
  const auto out = pool.map(n, [](std::size_t i) {
    if (i % 7 == 0) std::this_thread::yield();  // shuffle completion order
    return i * i;
  });
  ASSERT_EQ(out.size(), n);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ParallelExecutor, PoolActuallyRunsTasksConcurrently) {
  ParallelExecutor pool(2);
  // Both tasks wait on the latch, so each completes only if the other is
  // running at the same time on its own worker.
  std::latch both_started(2);
  const auto out = pool.map(2, [&](std::size_t i) {
    both_started.arrive_and_wait();
    return i;
  });
  EXPECT_EQ(out, (std::vector<std::size_t>{0, 1}));
}

TEST(ParallelExecutor, SubmitPropagatesExceptionThroughFuture) {
  ParallelExecutor pool(2);
  auto f = pool.submit(
      []() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ParallelExecutor, MapRethrowsLowestIndexException) {
  ParallelExecutor pool(4);
  try {
    pool.map(10, [](std::size_t i) -> int {
      if (i == 3 || i == 7) {
        throw std::runtime_error("fail at " + std::to_string(i));
      }
      return 0;
    });
    FAIL() << "map did not rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "fail at 3");
  }
}

// The serial path matches the pool: every task runs, then the lowest-index
// exception is rethrown.
TEST(ParallelExecutor, SerialMapPropagatesException) {
  ParallelExecutor pool(1);
  std::vector<std::size_t> ran;
  try {
    pool.map(4, [&](std::size_t i) -> int {
      ran.push_back(i);
      if (i == 1 || i == 2) {
        throw std::logic_error("serial " + std::to_string(i));
      }
      return 0;
    });
    FAIL() << "map did not rethrow";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "serial 1");
  }
  EXPECT_EQ(ran, (std::vector<std::size_t>{0, 1, 2, 3}))
      << "tasks after the throwing one must still run, in input order";
}

TEST(Telemetry, CountersAccumulateAndSnapshotDiffs) {
  Telemetry& t = Telemetry::instance();
  const TelemetrySnapshot before = t.snapshot();
  t.count_simulation(1000);
  t.count_simulation(500);
  t.count_trace_generated();
  const TelemetrySnapshot delta = t.snapshot() - before;
  EXPECT_EQ(delta.simulations, 2u);
  EXPECT_EQ(delta.trace_ops, 1500u);
  EXPECT_EQ(delta.traces_generated, 1u);
}

TEST(Telemetry, CountsFromWorkerThreadsAreNotLost) {
  Telemetry& t = Telemetry::instance();
  const TelemetrySnapshot before = t.snapshot();
  ParallelExecutor pool(4);
  pool.map(100, [&](std::size_t) {
    t.count_simulation(10);
    return 0;
  });
  const TelemetrySnapshot delta = t.snapshot() - before;
  EXPECT_EQ(delta.simulations, 100u);
  EXPECT_EQ(delta.trace_ops, 1000u);
}

TEST(Telemetry, MemoCountersAccumulate) {
  Telemetry& t = Telemetry::instance();
  const TelemetrySnapshot before = t.snapshot();
  t.count_memo_hit();
  t.count_memo_hit();
  t.count_memo_miss();
  const TelemetrySnapshot delta = t.snapshot() - before;
  EXPECT_EQ(delta.memo_hits, 2u);
  EXPECT_EQ(delta.memo_misses, 1u);
}

// Each count_* method lands in its own named counter, the diff subtracts
// field by field, and reset() zeroes every counter.
TEST(Telemetry, EveryCounterSnapshotsDiffsAndResets) {
  Telemetry& t = Telemetry::instance();
  const TelemetrySnapshot before = t.snapshot();
  t.count_simulation(2);
  t.count_trace_generated();
  for (int i = 0; i < 3; ++i) t.count_memo_hit();
  for (int i = 0; i < 4; ++i) t.count_memo_miss();
  for (int i = 0; i < 5; ++i) t.count_task_timed_out();
  for (int i = 0; i < 6; ++i) t.count_task_cancelled();
  for (int i = 0; i < 7; ++i) t.count_trace_store_hit();
  for (int i = 0; i < 8; ++i) t.count_trace_store_miss();
  t.count_generate_ns(9);
  t.count_decode_ns(10);
  t.count_replay_ns(11);
  const TelemetrySnapshot d = t.snapshot() - before;
  const std::vector<std::uint64_t> got = {
      d.simulations,      d.trace_ops,        d.traces_generated,
      d.memo_hits,        d.memo_misses,      d.tasks_timed_out,
      d.tasks_cancelled,  d.trace_store_hits, d.trace_store_misses,
      d.generate_ns,      d.decode_ns,        d.replay_ns};
  EXPECT_EQ(got, (std::vector<std::uint64_t>{1, 2, 1, 3, 4, 5, 6, 7, 8, 9,
                                             10, 11}));

  t.reset();
  std::size_t fields = 0;
  const TelemetrySnapshot zero = t.snapshot();
  for_each_counter(
      [&](std::uint64_t v) {
        EXPECT_EQ(v, 0u);
        ++fields;
      },
      zero);
  // The visitor walks every member: a counter added to TelemetryCounters
  // but not to for_each_counter fails here.
  EXPECT_EQ(fields, sizeof(TelemetrySnapshot) / sizeof(std::uint64_t));
  EXPECT_EQ(fields, got.size());
}

// The grid engine's miss tasks append from pool workers while other tasks
// look up concurrently; this shape (8 workers, interleaved append + lookup
// + contended duplicate appends) runs under ThreadSanitizer via the
// test_exec_tsan target.
TEST(ResultStoreConcurrency, PoolWorkersAppendAndLookupRaceFree) {
  // test_exec and its TSan twin compile this same file and may run
  // concurrently under `ctest -j`: the pid keeps their store files apart.
  const std::string path = ::testing::TempDir() + "sttsim_store_exec_" +
                           std::to_string(::getpid()) + ".bin";
  std::remove(path.c_str());
  constexpr std::size_t kPayload = 32;
  constexpr std::size_t kPoints = 256;
  {
    ResultStore store(path, kPayload);
    set_result_store(&store);
    EXPECT_EQ(result_store(), &store);
    ParallelExecutor pool(8);
    pool.map(kPoints, [&](std::size_t i) {
      std::uint8_t payload[kPayload];
      for (std::size_t b = 0; b < kPayload; ++b) {
        payload[b] = static_cast<std::uint8_t>(i + b);
      }
      store.append(i, payload);
      store.append(1ull << 40, payload);  // contended: first write wins
      std::uint8_t out[kPayload];
      EXPECT_TRUE(store.lookup(i, out));
      EXPECT_EQ(out[0], static_cast<std::uint8_t>(i));
      return 0;
    });
    set_result_store(nullptr);
    EXPECT_EQ(store.entries(), kPoints + 1);
  }
  ResultStore reopened(path, kPayload);
  EXPECT_EQ(reopened.entries(), kPoints + 1);
  EXPECT_EQ(reopened.dropped_records(), 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sttsim::exec
