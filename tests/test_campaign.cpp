// End-to-end campaign failure paths. Each grid swaps a suite kernel for a
// hand-built wrapper whose trace generator misbehaves first — it throws,
// raises SIGINT, or sleeps past the grid deadline — and runs at one and at
// four workers: a throwing point aborts the grid with the lowest-index
// error once every other point has persisted, an interrupt drains the
// campaign (a bench exits 130) and a re-run completes only the missing
// points, and a deadline skips and reports the points not yet started,
// which every figure assembly turns into nan cells and a bench into exit
// code 3. The bench flag parser rejects malformed values. Fork-based
// two-process campaigns then share one store file.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "bench_common.hpp"
#include "sttsim/exec/interrupt.hpp"
#include "sttsim/exec/parallel_executor.hpp"
#include "sttsim/exec/result_store.hpp"
#include "sttsim/exec/telemetry.hpp"
#include "sttsim/experiments/figures.hpp"
#include "sttsim/experiments/harness.hpp"
#include "sttsim/sim/stats.hpp"
#include "sttsim/workloads/suite.hpp"

namespace sttsim {
namespace {

constexpr unsigned kWidths[] = {1u, 4u};

std::string temp_store_path(const std::string& name) {
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

/// The suite kernel `suite_name`, renamed to `name`, whose trace generator
/// runs `before` first. A wrapper that keeps the suite name shares the real
/// kernel's store records.
workloads::Kernel wrap_kernel(const std::string& suite_name, std::string name,
                              std::function<void()> before) {
  workloads::Kernel k = workloads::find_kernel(suite_name);
  k.name = std::move(name);
  k.generate_decoded = [real = k.generate_decoded,
                        before = std::move(before)](
                           const workloads::CodegenOptions& o) {
    before();
    return real(o);
  };
  return k;
}

/// Clears every piece of process-wide campaign state between tests.
class CampaignTest : public ::testing::Test {
 protected:
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }

  static void reset() {
    exec::clear_interrupt();
    exec::set_default_deadline(0.0);
    exec::set_result_store(nullptr);
    exec::set_default_jobs(0);
  }
};

// ---- A throwing point ------------------------------------------------------

// Two kernels whose generators throw: every point on them fails, the grid
// rethrows the lowest-index error (broken_first: its first point is issued
// before any broken_second point at either width), and only after every
// other point ran and persisted — a warm re-run of the good kernels
// simulates nothing and reproduces their clean bytes. A third kernel's
// generator throws only once: that one point fails, and the next point of
// its trace loads the trace again, so its other two points complete and
// persist.
TEST_F(CampaignTest, ThrowingPointAbortsTheGridAfterEveryOtherPoint) {
  const auto jobs = small_grid();
  const auto good = experiments::select_kernels({"atax", "gesummv"});
  std::atomic<bool> thrown{false};
  const std::vector<workloads::Kernel> kernels = {
      good[0],
      wrap_kernel("mvt", "broken_first",
                  [] { throw std::runtime_error("broken_first"); }),
      wrap_kernel("durbin", "flaky",
                  [&] {
                    if (!thrown.exchange(true)) {
                      throw std::runtime_error("flaky");
                    }
                  }),
      good[1],
      wrap_kernel("trisolv", "broken_second",
                  [] { throw std::runtime_error("broken_second"); })};
  const std::size_t good_points = jobs.size() * good.size();
  const std::size_t flaky_points = jobs.size() - 1;  // all but the throw

  const std::string reference =
      grid_fingerprint(experiments::run_grid(good, jobs));

  auto& telemetry = exec::Telemetry::instance();
  for (const unsigned width : kWidths) {
    SCOPED_TRACE("--jobs=" + std::to_string(width));
    exec::set_default_jobs(width);
    thrown = false;
    const std::string path = temp_store_path("throw" + std::to_string(width));
    std::remove(path.c_str());
    ScopedStore store(path);
    const exec::TelemetrySnapshot before = telemetry.snapshot();
    try {
      experiments::run_grid(kernels, jobs);
      ADD_FAILURE() << "expected the generator's exception to propagate";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "broken_first");
    }
    const exec::TelemetrySnapshot delta = telemetry.snapshot() - before;
    EXPECT_TRUE(thrown);
    EXPECT_EQ(delta.simulations, good_points + flaky_points);
    EXPECT_EQ(store.get().entries(), good_points + flaky_points);
    if (width == 1) {
      // The failed load was the first point of flaky's shared trace; the
      // second point of that trace retried it.
      std::uint8_t payload[sim::kRunStatsBytes];
      EXPECT_FALSE(store.get().lookup(
          experiments::simulation_digest("flaky", jobs[0].opts,
                                         jobs[0].config),
          payload));
      EXPECT_TRUE(store.get().lookup(
          experiments::simulation_digest("flaky", jobs[1].opts,
                                         jobs[1].config),
          payload));
    }

    const exec::TelemetrySnapshot warm_before = telemetry.snapshot();
    EXPECT_EQ(grid_fingerprint(experiments::run_grid(good, jobs)), reference);
    const exec::TelemetrySnapshot warm = telemetry.snapshot() - warm_before;
    EXPECT_EQ(warm.memo_hits, good_points);
    EXPECT_EQ(warm.simulations, 0u);
    std::remove(path.c_str());
  }
}

// ---- Interrupt-safe resume -------------------------------------------------

/// The grid's first kernel (atax, under its own name) raises SIGINT the
/// first time it generates a trace: a real Ctrl-C, delivered while the
/// campaign's first point is starting.
class InterruptedCampaign : public CampaignTest {
 protected:
  void SetUp() override {
    CampaignTest::SetUp();
    kernels_ = real_;
    kernels_[0] = wrap_kernel("atax", "atax", [this] {
      if (!raised_.exchange(true)) std::raise(SIGINT);
    });
  }
  void TearDown() override {
    // SA_RESETHAND left the default disposition behind; re-arm so a stray
    // SIGINT in a later test drains instead of killing.
    exec::install_interrupt_handler();
    CampaignTest::TearDown();
  }

  const std::vector<workloads::Kernel> real_ =
      experiments::select_kernels({"atax", "mvt", "gesummv", "trisolv"});
  const std::vector<experiments::SuiteJob> jobs_ = small_grid();
  std::vector<workloads::Kernel> kernels_;
  std::atomic<bool> raised_{false};
};

// The interrupted grid drains: the points already running finish and
// persist (1 <= P < grid; exactly the raising point at one worker), the
// rest are skipped and counted cancelled, and run_grid throws Interrupted.
// The re-run serves exactly P points from the store, simulates exactly
// grid - P, and reproduces the uninterrupted bytes.
TEST_F(InterruptedCampaign, ResumesOnlyTheMissingPoints) {
  const std::size_t grid = jobs_.size() * real_.size();
  const std::string reference =
      grid_fingerprint(experiments::run_grid(real_, jobs_));

  auto& telemetry = exec::Telemetry::instance();
  for (const unsigned width : kWidths) {
    SCOPED_TRACE("--jobs=" + std::to_string(width));
    exec::set_default_jobs(width);
    exec::clear_interrupt();
    exec::install_interrupt_handler();
    raised_ = false;
    const std::string path = temp_store_path("resume" + std::to_string(width));
    std::remove(path.c_str());

    std::size_t persisted = 0;
    {
      ScopedStore store(path);
      const exec::TelemetrySnapshot before = telemetry.snapshot();
      EXPECT_THROW(experiments::run_grid(kernels_, jobs_), exec::Interrupted);
      const exec::TelemetrySnapshot delta = telemetry.snapshot() - before;
      persisted = store.get().entries();
      EXPECT_EQ(delta.simulations, persisted);
      EXPECT_EQ(delta.tasks_cancelled, grid - persisted);
    }
    EXPECT_TRUE(raised_);
    EXPECT_GE(persisted, 1u);
    EXPECT_LT(persisted, grid);
    if (width == 1) {
      EXPECT_EQ(persisted, 1u);
    }

    exec::clear_interrupt();
    {
      ScopedStore store(path);
      const exec::TelemetrySnapshot before = telemetry.snapshot();
      const std::string resumed =
          grid_fingerprint(experiments::run_grid(real_, jobs_));
      const exec::TelemetrySnapshot delta = telemetry.snapshot() - before;
      EXPECT_EQ(delta.memo_hits, persisted);
      EXPECT_EQ(delta.memo_misses, grid - persisted);
      EXPECT_EQ(delta.simulations, grid - persisted);
      EXPECT_EQ(resumed, reference);
      EXPECT_EQ(store.get().entries(), grid);
    }
    std::remove(path.c_str());
  }
}

// A bench's main turns the drained campaign into exit code 130, like a
// shell SIGINT, with the completed point persisted for the re-run.
TEST_F(InterruptedCampaign, BenchExitsWith130) {
  const std::string path = temp_store_path("exit130");
  std::remove(path.c_str());
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid == 0) {
    std::string store_flag = "--store=" + path;
    char name[] = "bench";
    char jobs_flag[] = "--jobs=1";
    char* argv[] = {name, jobs_flag, store_flag.data(), nullptr};
    const int code = benchcli::guarded_main(
        3, argv, [&](const benchcli::Options&) {
          experiments::run_grid(kernels_, jobs_);
          return 0;
        });
    _exit(code);
  }
  ASSERT_GT(pid, 0);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 130);
  {
    ScopedStore store(path);
    EXPECT_EQ(store.get().entries(), 1u);
  }
  std::remove(path.c_str());
}

// lifetime_report fans its jobs over the pool without run_grid; it checks
// the flag the same way, so an interrupt skips every job not yet started
// and the report throws instead of printing a table with empty rows.
TEST_F(CampaignTest, InterruptedLifetimeReportSkipsItsJobsAndThrows) {
  auto& telemetry = exec::Telemetry::instance();
  const exec::TelemetrySnapshot before = telemetry.snapshot();
  exec::request_interrupt();
  EXPECT_THROW(experiments::lifetime_report({"atax", "mvt"}),
               exec::Interrupted);
  const exec::TelemetrySnapshot delta = telemetry.snapshot() - before;
  EXPECT_EQ(delta.tasks_cancelled, 2u);
  EXPECT_EQ(delta.simulations, 0u);
}

// ---- Deadlines -------------------------------------------------------------

// Every trace generation sleeps past the grid's deadline, so each point
// that starts before the deadline finishes after it: the points the pool
// had not started by then are skipped, counted timed-out, and keep default
// slots; the completed ones match the reference bit for bit. At one worker
// exactly the first point completes.
TEST_F(CampaignTest, DeadlineSkipsAndReportsPointsNotStarted) {
  using namespace std::chrono_literals;
  const auto jobs = small_grid();
  const auto real = experiments::select_kernels({"atax", "mvt"});
  const std::size_t grid = jobs.size() * real.size();
  const auto reference = experiments::run_grid(real, jobs);

  std::vector<workloads::Kernel> sleepy;
  for (const workloads::Kernel& k : real) {
    sleepy.push_back(wrap_kernel(k.name, k.name,
                                 [] { std::this_thread::sleep_for(500ms); }));
  }
  exec::set_default_deadline(0.25);
  auto& telemetry = exec::Telemetry::instance();
  const std::string skipped_json = sim::to_json(sim::RunStats{});
  for (const unsigned width : kWidths) {
    SCOPED_TRACE("--jobs=" + std::to_string(width));
    exec::set_default_jobs(width);
    const exec::TelemetrySnapshot before = telemetry.snapshot();
    const auto degraded = experiments::run_grid(sleepy, jobs);
    const exec::TelemetrySnapshot delta = telemetry.snapshot() - before;
    std::size_t completed = 0;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      for (std::size_t k = 0; k < real.size(); ++k) {
        const std::string got = sim::to_json(degraded[j][k]);
        if (got == skipped_json) continue;
        EXPECT_EQ(got, sim::to_json(reference[j][k]));
        ++completed;
      }
    }
    EXPECT_EQ(delta.simulations, completed);
    EXPECT_EQ(delta.tasks_timed_out, grid - completed);
    EXPECT_EQ(delta.tasks_cancelled, 0u);
    EXPECT_LE(completed, width) << "a point started after the deadline";
    if (width == 1) {
      EXPECT_EQ(completed, 1u);
    }
  }
}

// ---- Degraded figures ------------------------------------------------------

/// Occurrences of `needle` in `text`.
std::size_t count(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

/// Every cell of `fig`, AVERAGE row included.
std::vector<double> cells(const report::FigureData& fig) {
  std::vector<double> out;
  for (const report::Series& s : fig.series) {
    out.insert(out.end(), s.values.begin(), s.values.end());
  }
  return out;
}

// With an already-spent deadline every point the store does not hold is
// skipped. The store holds Fig. 1's points (the SRAM baseline and the
// drop-in NVM, unoptimized), so most figures below mix served and skipped
// inputs: each cell derived from a skipped point must be nan, not a
// plausible number, and each cell of served points stays a number.
TEST_F(CampaignTest, SkippedPointsMakeNanCellsInEveryAssembly) {
  const std::string path = temp_store_path("degraded");
  std::remove(path.c_str());
  ScopedStore store(path);
  const experiments::KernelFilter kernels = {"atax", "trisolv"};
  experiments::fig1_dropin_penalty(kernels);

  exec::set_default_deadline(1e-9);
  auto& telemetry = exec::Telemetry::instance();
  for (const unsigned width : kWidths) {
    SCOPED_TRACE("--jobs=" + std::to_string(width));
    exec::set_default_jobs(width);
    // Each figure with its number of columns built from served points
    // only: the energy report's SRAM column, the lifetime figure's drop-in
    // column.
    const struct {
      const char* name;
      report::FigureData (*figure)(const experiments::KernelFilter&);
      std::size_t served_columns;
    } figures[] = {
        {"fig4", experiments::fig4_rw_breakdown, 0},
        {"fig6", experiments::fig6_contributions, 0},
        {"energy", experiments::energy_report, 1},
        {"retention", experiments::fig_reliability_retention, 0},
        {"lifetime", experiments::fig_reliability_lifetime, 1},
    };
    for (const auto& [name, figure, served_columns] : figures) {
      const exec::TelemetrySnapshot before = telemetry.snapshot();
      ::testing::internal::CaptureStderr();
      const report::FigureData fig = figure(kernels);
      const std::string summary = ::testing::internal::GetCapturedStderr();
      const exec::TelemetrySnapshot delta = telemetry.snapshot() - before;
      EXPECT_GT(delta.tasks_timed_out, 0u) << name;
      EXPECT_EQ(delta.simulations, 0u) << name;
      // Every grid's store summary says so too: skipped points are not
      // counted as simulated.
      EXPECT_GT(count(summary, " simulated"), 0u) << name;
      EXPECT_EQ(count(summary, " 0 simulated"), count(summary, " simulated"))
          << name << ": " << summary;
      std::size_t nan = 0;
      for (const double v : cells(fig)) nan += std::isnan(v);
      const std::size_t rows = kernels.size() + 1;  // + AVERAGE
      EXPECT_EQ(nan, cells(fig).size() - served_columns * rows) << name;
    }
  }
  std::remove(path.c_str());
}

// A bench whose grid skipped points still prints, then says so and exits 3.
TEST_F(CampaignTest, BenchWithSkippedPointsReportsThemAndExits3) {
  using namespace std::chrono_literals;
  std::vector<workloads::Kernel> sleepy;
  for (const workloads::Kernel& k :
       experiments::select_kernels({"atax", "mvt"})) {
    sleepy.push_back(wrap_kernel(k.name, k.name,
                                 [] { std::this_thread::sleep_for(500ms); }));
  }
  const auto jobs = small_grid();
  const auto run_bench = [&] {
    char name[] = "bench";
    char jobs_flag[] = "--jobs=1";
    char deadline_flag[] = "--deadline=0.25";
    char* argv[] = {name, jobs_flag, deadline_flag, nullptr};
    return benchcli::guarded_main(3, argv, [&](const benchcli::Options&) {
      experiments::run_grid(sleepy, jobs);
      return 0;
    });
  };
  // One worker: exactly the first point starts before the deadline.
  EXPECT_EXIT(std::exit(run_bench()), ::testing::ExitedWithCode(3),
              "5 grid point\\(s\\) skipped past the 0.25 s deadline");
}

// ---- Bench flags -----------------------------------------------------------

TEST_F(CampaignTest, BenchRejectsMalformedJobsAndDeadline) {
  for (const char* bad :
       {"--jobs=abc", "--jobs=", "--jobs=-1", "--jobs=4x", "--jobs= 2",
        "--jobs=99999999999999999999", "--jobs=4294967295", "--jobs=1025",
        "--deadline=abc", "--deadline=",
        "--deadline=-1", "--deadline=inf", "--deadline=nan",
        "--deadline=0.5s"}) {
    SCOPED_TRACE(bad);
    std::string arg = bad;
    char name[] = "bench";
    char* argv[] = {name, arg.data(), nullptr};
    EXPECT_EXIT(benchcli::parse(2, argv), ::testing::ExitedWithCode(2),
                "usage");
  }
}

TEST_F(CampaignTest, BenchParsesWellFormedJobsAndDeadline) {
  char name[] = "bench";
  char jobs_flag[] = "--jobs=2";
  char deadline_flag[] = "--deadline=0.5";
  char* argv[] = {name, jobs_flag, deadline_flag, nullptr};
  const benchcli::Options o = benchcli::parse(3, argv);
  EXPECT_EQ(o.jobs, 2u);
  EXPECT_DOUBLE_EQ(o.deadline_s, 0.5);
  EXPECT_EQ(exec::default_jobs(), 2u);
  EXPECT_DOUBLE_EQ(exec::default_deadline(), 0.5);
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

  const std::string reference = grid_fingerprint(
      experiments::run_grid(kernels_parent, jobs));

  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid == 0) {
    // Child process: its own store instance on the shared path.
    int code = 0;
    try {
      exec::ResultStore child_store(path, sim::kRunStatsBytes);
      exec::set_result_store(&child_store);
      experiments::run_grid(kernels_child, jobs);
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
    experiments::run_grid(kernels_parent, jobs);
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
    const std::string warm = grid_fingerprint(
        experiments::run_grid(kernels_parent, jobs));
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
      experiments::run_grid(kernels_a, jobs);
      exec::set_result_store(nullptr);
    } catch (...) {
      code = 1;
    }
    _exit(code);
  }
  ASSERT_GT(pid, 0);
  {
    ScopedStore store(path);
    experiments::run_grid(kernels_b, jobs);
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
  experiments::run_grid(kernels_a, jobs);
  experiments::run_grid(kernels_b, jobs);
  const exec::TelemetrySnapshot delta = telemetry.snapshot() - before;
  EXPECT_EQ(delta.memo_hits, 2 * jobs.size());
  EXPECT_EQ(delta.memo_misses, 0u);
  EXPECT_EQ(delta.simulations, 0u);
  std::remove(path.c_str());
}

// Without an interrupt or a deadline a grid equals the reference at
// several pool widths.
TEST_F(CampaignTest, UndisturbedGridIsInvisibleAtAnyWidth) {
  const auto kernels = experiments::select_kernels({"atax"});
  const auto jobs = small_grid();
  const std::string reference =
      grid_fingerprint(experiments::run_grid(kernels, jobs));
  for (const unsigned width : kWidths) {
    exec::set_default_jobs(width);
    EXPECT_EQ(grid_fingerprint(experiments::run_grid(kernels, jobs)), reference)
        << "results changed at --jobs=" << width;
  }
}

}  // namespace
}  // namespace sttsim
