// Unit tests for campaign interruption: the process-wide interrupt flag,
// the SIGINT handler that sets it, the grid-deadline default, and the
// interrupt check a pool task makes before it starts.
//
// Deliberately includes only sttsim/exec headers: the test_interrupt_tsan
// target recompiles this file together with the exec sources under
// ThreadSanitizer, with no dependency on the simulation libraries.
#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <cstddef>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "sttsim/exec/interrupt.hpp"
#include "sttsim/exec/parallel_executor.hpp"

namespace sttsim::exec {
namespace {

/// Clears the sticky interrupt flag and the deadline default between tests.
class InterruptTest : public ::testing::Test {
 protected:
  void SetUp() override {
    clear_interrupt();
    set_default_deadline(0.0);
  }
  void TearDown() override { SetUp(); }
};

TEST_F(InterruptTest, FlagIsSetByRequestAndClearedForTests) {
  EXPECT_FALSE(interrupted());
  request_interrupt();
  EXPECT_TRUE(interrupted());
  request_interrupt();  // idempotent
  EXPECT_TRUE(interrupted());
  clear_interrupt();
  EXPECT_FALSE(interrupted());
}

TEST_F(InterruptTest, InstalledSigintHandlerSetsTheFlag) {
  install_interrupt_handler();
  EXPECT_FALSE(interrupted());
  std::raise(SIGINT);
  EXPECT_TRUE(interrupted());
  // SA_RESETHAND restored the default disposition; re-arm so a stray
  // SIGINT during the remaining tests drains instead of killing.
  install_interrupt_handler();
}

// The first SIGINT only sets the flag; the handler resets itself, so the
// second one kills the process.
TEST_F(InterruptTest, SecondSigintKillsTheProcess) {
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid == 0) {
    install_interrupt_handler();
    std::raise(SIGINT);
    if (!interrupted()) _exit(1);
    std::raise(SIGINT);
    _exit(0);  // unreachable when the default disposition is back
  }
  ASSERT_GT(pid, 0);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited with status "
                                   << WEXITSTATUS(status);
  EXPECT_EQ(WTERMSIG(status), SIGINT);
}

TEST_F(InterruptTest, InterruptedIsARuntimeError) {
  try {
    throw Interrupted("campaign interrupted");
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "campaign interrupted");
  }
}

TEST_F(InterruptTest, DeadlineDefaultRoundTrips) {
  EXPECT_EQ(default_deadline(), 0.0) << "no deadline unless one is set";
  set_default_deadline(2.5);
  EXPECT_EQ(default_deadline(), 2.5);
  set_default_deadline(0.0);
  EXPECT_EQ(default_deadline(), 0.0);
}

// A task that checks the flag before it starts: at one worker, every task
// after the interrupting one is skipped, and the tasks before it ran.
TEST_F(InterruptTest, SerialMapSkipsEveryTaskAfterTheInterrupt) {
  constexpr int kSkipped = -1;
  ParallelExecutor pool(1);
  const std::vector<int> out = pool.map(6, [](std::size_t i) {
    if (interrupted()) return kSkipped;
    if (i == 2) request_interrupt();
    return static_cast<int>(i);
  });
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, kSkipped, kSkipped, kSkipped}));
}

// The same check from four workers (the TSan target's main course): the
// interrupting task ran, every other task either ran or was skipped, and
// the results keep input order.
TEST_F(InterruptTest, PooledMapTasksSeeTheInterrupt) {
  constexpr int kSkipped = -1;
  constexpr std::size_t kTasks = 64;
  std::atomic<std::size_t> skipped{0};
  ParallelExecutor pool(4);
  const std::vector<int> out = pool.map(kTasks, [&](std::size_t i) {
    if (interrupted()) {
      skipped.fetch_add(1, std::memory_order_relaxed);
      return kSkipped;
    }
    if (i == 0) request_interrupt();
    return static_cast<int>(i);
  });
  ASSERT_EQ(out.size(), kTasks);
  EXPECT_EQ(out[0], 0);
  std::size_t ran = 0;
  for (std::size_t i = 0; i < kTasks; ++i) {
    if (out[i] != kSkipped) {
      EXPECT_EQ(out[i], static_cast<int>(i));
      ++ran;
    }
  }
  EXPECT_EQ(ran + skipped.load(), kTasks);
  EXPECT_TRUE(interrupted());
}

}  // namespace
}  // namespace sttsim::exec
