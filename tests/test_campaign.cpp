// Engine-level request-lifecycle tests: grids run through the
// RequestScheduler with injected engine faults (transient retries must be
// byte-identical to fault-free runs, stalls must time out instead of
// wedging, deterministic faults must abort like historical failures), the
// deterministic interrupt hook (a SIGINT stand-in) with store-backed
// resume, and fork-based two-process campaigns sharing one store file.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "sttsim/exec/parallel_executor.hpp"
#include "sttsim/exec/request.hpp"
#include "sttsim/exec/result_store.hpp"
#include "sttsim/exec/telemetry.hpp"
#include "sttsim/experiments/harness.hpp"
#include "sttsim/sim/stats.hpp"
#include "sttsim/workloads/suite.hpp"

namespace sttsim {
namespace {

std::string temp_store_path(const char* name) {
  return ::testing::TempDir() + "sttsim_campaign_" + name + ".bin";
}

/// RAII: installs a fresh store for one test and restores the previous
/// process-wide registration on exit.
class ScopedStore {
 public:
  explicit ScopedStore(const std::string& path)
      : store_(path, sim::kRunStatsBytes) {
    exec::set_result_store(&store_);
  }
  ~ScopedStore() { exec::set_result_store(nullptr); }
  exec::ResultStore& get() { return store_; }

 private:
  exec::ResultStore store_;
};

std::vector<experiments::SuiteJob> small_grid() {
  const workloads::CodegenOptions none = workloads::CodegenOptions::none();
  std::vector<experiments::SuiteJob> jobs;
  jobs.push_back(
      {experiments::make_config(cpu::Dl1Organization::kSramBaseline), none});
  jobs.push_back(
      {experiments::make_config(cpu::Dl1Organization::kNvmDropIn), none});
  jobs.push_back({experiments::make_config(cpu::Dl1Organization::kNvmVwb),
                  workloads::CodegenOptions::all()});
  return jobs;
}

std::string grid_fingerprint(
    const std::vector<std::vector<sim::RunStats>>& grid) {
  std::string out;
  for (const auto& row : grid) {
    for (const sim::RunStats& s : row) out += sim::to_json(s) + "\n";
  }
  return out;
}

/// Clears every piece of process-wide lifecycle state between tests.
class CampaignTest : public ::testing::Test {
 protected:
  void SetUp() override { reset_lifecycle(); }
  void TearDown() override { reset_lifecycle(); }

  static void reset_lifecycle() {
    exec::interrupt_source().reset();
    exec::set_task_faults(std::nullopt);
    exec::set_default_request(exec::CampaignRequest{});
    exec::set_result_store(nullptr);
    exec::set_default_jobs(0);
  }
};

// ---- Fault-injected grids ----------------------------------------------

// Transient engine faults with retries enabled must be invisible in the
// results: the retried grid is byte-identical to a fault-free run.
TEST_F(CampaignTest, TransientFaultsWithRetriesAreByteIdentical) {
  const auto kernels = experiments::select_kernels({"atax"});
  const auto jobs = small_grid();

  experiments::TraceCache ref_cache;
  const std::string reference =
      grid_fingerprint(experiments::run_grid(ref_cache, kernels, jobs));

  exec::TaskFaults faults;
  faults.seed = 5;
  faults.transient_ppm = 1000000;  // every task flakes once
  faults.transient_failures = 1;
  exec::set_task_faults(faults);
  exec::CampaignRequest request;
  request.retry.max_retries = 2;
  request.retry.base_delay_ms = 1;
  request.retry.max_delay_ms = 2;
  exec::set_default_request(request);

  auto& telemetry = exec::Telemetry::instance();
  const exec::TelemetrySnapshot before = telemetry.snapshot();
  experiments::TraceCache cache;
  const std::string retried =
      grid_fingerprint(experiments::run_grid(cache, kernels, jobs));
  const exec::TelemetrySnapshot delta = telemetry.snapshot() - before;

  EXPECT_EQ(retried, reference)
      << "a retried task produced different bytes than a clean first try";
  EXPECT_EQ(delta.tasks_retried, jobs.size() * kernels.size())
      << "every task should have flaked exactly once";
  EXPECT_EQ(delta.tasks_timed_out, 0u);
  EXPECT_EQ(delta.tasks_cancelled, 0u);
}

// A stalled point must be reported timed-out — never wedge the campaign.
// The seed is chosen (by scanning the deterministic fault schedule) so the
// LAST point in execution order stalls: everything before it completes and
// matches the reference, the stalled point's slot stays default-initialized.
TEST_F(CampaignTest, StalledPointTimesOutOthersComplete) {
  const auto kernels = experiments::select_kernels({"atax"});
  const auto jobs = small_grid();
  const std::size_t n = jobs.size() * kernels.size();

  experiments::TraceCache ref_cache;
  const auto reference = experiments::run_grid(ref_cache, kernels, jobs);

  // Find a seed whose stall schedule hits exactly the last task.
  exec::TaskFaults faults;
  faults.stall_ppm = 300000;
  bool found = false;
  for (std::uint64_t seed = 0; seed < 4096 && !found; ++seed) {
    faults.seed = seed;
    bool only_last = faults.stalls(n - 1);
    for (std::size_t i = 0; i + 1 < n && only_last; ++i) {
      only_last = !faults.stalls(i);
    }
    found = only_last;
  }
  ASSERT_TRUE(found) << "no seed stalls exactly the last of " << n << " tasks";
  exec::set_task_faults(faults);
  exec::CampaignRequest request;
  // Generous relative to a point's simulation time even at -O0 with a
  // concurrent ctest job on the CPU: only the stalled point (which never
  // finishes on its own) should cross this line.
  request.deadline_s = 0.6;
  exec::set_default_request(request);

  auto& telemetry = exec::Telemetry::instance();
  const exec::TelemetrySnapshot before = telemetry.snapshot();
  const auto start = std::chrono::steady_clock::now();
  experiments::TraceCache cache;
  const auto degraded = experiments::run_grid(cache, kernels, jobs);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const exec::TelemetrySnapshot delta = telemetry.snapshot() - before;

  // Degraded, not wedged: returned well within an order of magnitude of
  // the deadline, with exactly one point reported timed-out.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            30);
  EXPECT_EQ(delta.tasks_timed_out, 1u);
  // run_grid issues points in windows of pool-width traces, j-major inside
  // a window. This grid's two traces ((atax, none) and (atax, all)) fill
  // one window at any width of 2 or more, and at width 1 the (atax, none)
  // window comes first, so the last point issued is jobs.back() x
  // kernels.back() either way. Completed points match the reference bit
  // for bit; the overdue point's slot is skip-and-report default RunStats.
  for (std::size_t j = 0; j + 1 < jobs.size(); ++j) {
    EXPECT_EQ(sim::to_json(degraded[j][0]), sim::to_json(reference[j][0]));
  }
  EXPECT_EQ(degraded.back().back().core.total_cycles, 0u)
      << "timed-out point should have been skipped, not half-filled";
}

// Deterministic faults keep the historical abort semantics: run_grid
// throws (the lowest-index failure), it does not silently degrade.
TEST_F(CampaignTest, DeterministicFaultAbortsTheGrid) {
  const auto kernels = experiments::select_kernels({"atax"});
  const auto jobs = small_grid();
  exec::TaskFaults faults;
  faults.seed = 21;
  faults.deterministic_ppm = 1000000;
  exec::set_task_faults(faults);
  exec::CampaignRequest request;
  request.retry.max_retries = 3;  // must NOT retry a deterministic failure
  exec::set_default_request(request);

  auto& telemetry = exec::Telemetry::instance();
  const exec::TelemetrySnapshot before = telemetry.snapshot();
  experiments::TraceCache cache;
  try {
    experiments::run_grid(cache, kernels, jobs);
    FAIL() << "expected the injected deterministic fault to propagate";
  } catch (const exec::TaskError& e) {
    EXPECT_EQ(e.kind(), exec::TaskErrorKind::kDeterministic);
  }
  const exec::TelemetrySnapshot delta = telemetry.snapshot() - before;
  EXPECT_EQ(delta.tasks_retried, 0u);
}

// ---- Interrupt-safe resume ---------------------------------------------

// The deterministic SIGINT stand-in: the interrupt hook trips after the
// first point completes; the campaign drains, throws kCancelled, and keeps
// the completed point persisted. The re-run serves it from the store
// (memo_hits == completed-before-interrupt) and generates traces only for
// the kernels that were still missing. Pinned to one worker: with more, the
// second point is already running when the hook fires, and cooperative
// cancellation rightly lets it finish and persist (the multi-worker variant
// below asserts that invariant instead).
TEST_F(CampaignTest, InterruptedCampaignResumesOnlyMissingPoints) {
  exec::set_default_jobs(1);
  const auto kernels = experiments::select_kernels({"atax", "mvt"});
  const std::vector<experiments::SuiteJob> jobs = {small_grid().front()};
  const std::string path = temp_store_path("resume");
  std::remove(path.c_str());

  experiments::TraceCache ref_cache;
  const std::string reference =
      grid_fingerprint(experiments::run_grid(ref_cache, kernels, jobs));

  auto& telemetry = exec::Telemetry::instance();
  {
    ScopedStore store(path);
    exec::TaskFaults faults;
    faults.interrupt_after_tasks = 1;  // "Ctrl-C" after the first point
    exec::set_task_faults(faults);
    experiments::TraceCache cache;
    try {
      experiments::run_grid(cache, kernels, jobs);
      FAIL() << "expected the interrupted campaign to throw";
    } catch (const exec::TaskError& e) {
      EXPECT_EQ(e.kind(), exec::TaskErrorKind::kCancelled);
    }
    // The point that completed before the interrupt was persisted.
    EXPECT_EQ(store.get().entries(), 1u);
  }

  // Resume: clear the interrupt, drop the faults, run the same grid.
  exec::set_task_faults(std::nullopt);
  exec::interrupt_source().reset();
  {
    ScopedStore store(path);
    const exec::TelemetrySnapshot before = telemetry.snapshot();
    experiments::TraceCache cache;  // fresh: regenerates only what it needs
    const std::string resumed =
        grid_fingerprint(experiments::run_grid(cache, kernels, jobs));
    const exec::TelemetrySnapshot delta = telemetry.snapshot() - before;
    EXPECT_EQ(delta.memo_hits, 1u) << "completed point must come from disk";
    EXPECT_EQ(delta.memo_misses, 1u);
    EXPECT_EQ(delta.simulations, 1u) << "only the missing point simulates";
    EXPECT_EQ(delta.traces_generated, 1u)
        << "only the missing kernel's trace regenerates";
    EXPECT_EQ(resumed, reference);
    EXPECT_EQ(store.get().entries(), 2u);
  }
  std::remove(path.c_str());
}

// The same interrupt on a full pool. Every worker may be mid-point when the
// hook fires, and each of those points finishes and persists, so the
// persisted count P is only bounded: at least the point that tripped the
// hook, and short of the whole grid, because the grid holds more than twice
// the pool width. The resume must then serve exactly P points from disk,
// simulate exactly grid - P, and reproduce the uninterrupted bytes.
TEST_F(CampaignTest, InterruptedCampaignOnFullPoolResumesOnlyMissingPoints) {
  constexpr unsigned kWorkers = 4;
  exec::set_default_jobs(kWorkers);
  const auto kernels =
      experiments::select_kernels({"atax", "mvt", "gesummv", "trisolv"});
  const auto jobs = small_grid();
  const std::size_t grid = jobs.size() * kernels.size();
  ASSERT_GT(grid, 2u * kWorkers);
  const std::string path = temp_store_path("resume_pool");
  std::remove(path.c_str());

  experiments::TraceCache ref_cache;
  const std::string reference =
      grid_fingerprint(experiments::run_grid(ref_cache, kernels, jobs));

  std::size_t persisted = 0;
  {
    ScopedStore store(path);
    exec::TaskFaults faults;
    faults.interrupt_after_tasks = 1;
    exec::set_task_faults(faults);
    experiments::TraceCache cache;
    EXPECT_THROW(experiments::run_grid(cache, kernels, jobs), exec::TaskError);
    persisted = store.get().entries();
  }
  EXPECT_GE(persisted, 1u);
  EXPECT_LT(persisted, grid);

  exec::set_task_faults(std::nullopt);
  exec::interrupt_source().reset();
  {
    ScopedStore store(path);
    auto& telemetry = exec::Telemetry::instance();
    const exec::TelemetrySnapshot before = telemetry.snapshot();
    experiments::TraceCache cache;
    const std::string resumed =
        grid_fingerprint(experiments::run_grid(cache, kernels, jobs));
    const exec::TelemetrySnapshot delta = telemetry.snapshot() - before;
    EXPECT_EQ(delta.memo_hits, persisted);
    EXPECT_EQ(delta.memo_misses, grid - persisted);
    EXPECT_EQ(delta.simulations, grid - persisted);
    EXPECT_EQ(resumed, reference);
    EXPECT_EQ(store.get().entries(), grid);
  }
  std::remove(path.c_str());
}

// ---- Two-process campaigns over one store ------------------------------

// A forked child campaign and the parent campaign run CONCURRENTLY against
// one store file (child: atax, parent: atax+mvt — overlapping grids). The
// resulting store must equal the single-process union: a warm re-run of
// the superset grid is all hits, zero simulations, byte-identical to the
// no-store reference.
TEST_F(CampaignTest, TwoProcessCampaignsUnionIntoOneStore) {
  const auto kernels_child = experiments::select_kernels({"atax"});
  const auto kernels_parent = experiments::select_kernels({"atax", "mvt"});
  const auto jobs = small_grid();
  const std::size_t union_points = jobs.size() * kernels_parent.size();
  const std::string path = temp_store_path("twoprocess");
  std::remove(path.c_str());

  experiments::TraceCache ref_cache;
  const std::string reference = grid_fingerprint(
      experiments::run_grid(ref_cache, kernels_parent, jobs));

  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid == 0) {
    // Child process: its own store instance on the shared path.
    int code = 0;
    try {
      exec::ResultStore child_store(path, sim::kRunStatsBytes);
      exec::set_result_store(&child_store);
      experiments::TraceCache cache;
      experiments::run_grid(cache, kernels_child, jobs);
      exec::set_result_store(nullptr);
    } catch (...) {
      code = 1;
    }
    _exit(code);
  }
  ASSERT_GT(pid, 0);
  {
    // Parent campaign runs while the child is running.
    ScopedStore store(path);
    experiments::TraceCache cache;
    experiments::run_grid(cache, kernels_parent, jobs);
  }
  int status = 0;
  waitpid(pid, &status, 0);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << "child campaign failed";

  // The store now holds exactly the union (overlapping points deduplicated
  // by cross-process first-write-wins), and a warm re-run of the superset
  // grid never simulates.
  auto& telemetry = exec::Telemetry::instance();
  {
    ScopedStore store(path);  // fresh open indexes the whole shared file
    EXPECT_EQ(store.get().entries(), union_points);
    const exec::TelemetrySnapshot before = telemetry.snapshot();
    experiments::TraceCache cache;
    const std::string warm = grid_fingerprint(
        experiments::run_grid(cache, kernels_parent, jobs));
    const exec::TelemetrySnapshot delta = telemetry.snapshot() - before;
    EXPECT_EQ(delta.memo_hits, union_points);
    EXPECT_EQ(delta.memo_misses, 0u);
    EXPECT_EQ(delta.simulations, 0u);
    EXPECT_EQ(warm, reference)
        << "two-process union diverged from the single-process result";
  }
  std::remove(path.c_str());
}

// Disjoint grids: neither campaign's records shadow the other's; the
// parent sees the child's half only after run_grid's refresh, and both
// halves re-run warm.
TEST_F(CampaignTest, DisjointTwoProcessCampaignsBothStayWarm) {
  const auto kernels_a = experiments::select_kernels({"atax"});
  const auto kernels_b = experiments::select_kernels({"mvt"});
  const auto jobs = small_grid();
  const std::string path = temp_store_path("disjoint");
  std::remove(path.c_str());

  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid == 0) {
    int code = 0;
    try {
      exec::ResultStore child_store(path, sim::kRunStatsBytes);
      exec::set_result_store(&child_store);
      experiments::TraceCache cache;
      experiments::run_grid(cache, kernels_a, jobs);
      exec::set_result_store(nullptr);
    } catch (...) {
      code = 1;
    }
    _exit(code);
  }
  ASSERT_GT(pid, 0);
  {
    ScopedStore store(path);
    experiments::TraceCache cache;
    experiments::run_grid(cache, kernels_b, jobs);
  }
  int status = 0;
  waitpid(pid, &status, 0);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  // Warm re-runs of BOTH halves from one fresh process: all hits — the
  // run_grid refresh makes the other process's appends visible.
  auto& telemetry = exec::Telemetry::instance();
  ScopedStore store(path);
  const exec::TelemetrySnapshot before = telemetry.snapshot();
  experiments::TraceCache cache;
  experiments::run_grid(cache, kernels_a, jobs);
  experiments::run_grid(cache, kernels_b, jobs);
  const exec::TelemetrySnapshot delta = telemetry.snapshot() - before;
  EXPECT_EQ(delta.memo_hits, 2 * jobs.size());
  EXPECT_EQ(delta.memo_misses, 0u);
  EXPECT_EQ(delta.simulations, 0u);
  std::remove(path.c_str());
}

// The scheduler plumbing must not perturb the happy path: a grid with
// default request settings equals the reference at several pool widths.
TEST_F(CampaignTest, DefaultLifecycleIsInvisibleAtAnyWidth) {
  const auto kernels = experiments::select_kernels({"atax"});
  const auto jobs = small_grid();
  experiments::TraceCache ref_cache;
  const std::string reference =
      grid_fingerprint(experiments::run_grid(ref_cache, kernels, jobs));
  for (const unsigned width : {1u, 4u}) {
    exec::set_default_jobs(width);
    experiments::TraceCache cache;
    EXPECT_EQ(grid_fingerprint(experiments::run_grid(cache, kernels, jobs)),
              reference)
        << "lifecycle changed results at --jobs=" << width;
  }
}

}  // namespace
}  // namespace sttsim
