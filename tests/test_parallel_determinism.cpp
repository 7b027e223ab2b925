// The parallel experiment engine's correctness contract: every figure
// function produces byte-identical output at --jobs=1 (the historical
// serial path) and --jobs=8, a grid agrees with its points run one at a
// time, run_grid loads each trace exactly once no matter how many workers
// share it, and at one worker it completes a trace's points before it
// loads the next trace.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "sttsim/exec/interrupt.hpp"
#include "sttsim/exec/parallel_executor.hpp"
#include "sttsim/exec/result_store.hpp"
#include "sttsim/exec/telemetry.hpp"
#include "sttsim/experiments/figures.hpp"
#include "sttsim/experiments/harness.hpp"
#include "sttsim/report/figure.hpp"
#include "sttsim/sim/stats.hpp"

namespace sttsim::experiments {
namespace {

/// Runs `make()` with the process-wide job default forced to `jobs`,
/// restoring the hardware default afterwards.
template <typename F>
auto at_jobs(unsigned jobs, F&& make) {
  exec::set_default_jobs(jobs);
  auto result = make();
  exec::set_default_jobs(0);
  return result;
}

class ParallelDeterminism : public ::testing::Test {
 protected:
  const KernelFilter subset_{"trisolv", "gesummv"};

  void expect_identical(
      const char* name,
      const std::function<report::FigureData(const KernelFilter&)>& fig) {
    const std::string serial =
        report::render_csv(at_jobs(1, [&] { return fig(subset_); }));
    const std::string parallel =
        report::render_csv(at_jobs(8, [&] { return fig(subset_); }));
    EXPECT_EQ(serial, parallel) << name;
  }
};

TEST_F(ParallelDeterminism, AllFigureFunctionsAreJobCountInvariant) {
  expect_identical("fig1", fig1_dropin_penalty);
  expect_identical("fig3", fig3_vwb_penalty);
  expect_identical("fig4", fig4_rw_breakdown);
  expect_identical("fig5", fig5_transformations);
  expect_identical("fig6", fig6_contributions);
  expect_identical("fig7", fig7_vwb_size);
  expect_identical("fig7_optimized", fig7_vwb_size_optimized);
  expect_identical("fig8", fig8_alternatives);
  expect_identical("fig9", fig9_baseline_gain);
  expect_identical("ablation_banking", ablation_banking);
  expect_identical("ablation_store_buffer", ablation_store_buffer);
  expect_identical("ablation_write_mitigation", ablation_write_mitigation);
  expect_identical("energy_report", energy_report);
  expect_identical("exploration_iso_area", exploration_iso_area);
  expect_identical("sensitivity_clock", sensitivity_clock);
  expect_identical("sensitivity_cell", sensitivity_cell);
  expect_identical("fig_reliability_retention", fig_reliability_retention);
  expect_identical("fig_reliability_lifetime", fig_reliability_lifetime);
  expect_identical("fig_reliability_ecc_overhead", fig_reliability_ecc_overhead);
}

TEST_F(ParallelDeterminism, LifetimeReportIsJobCountInvariant) {
  const std::string serial = at_jobs(1, [&] {
    return lifetime_report(subset_);
  });
  const std::string parallel = at_jobs(8, [&] {
    return lifetime_report(subset_);
  });
  EXPECT_EQ(serial, parallel);
}

TEST(RunGrid, GridMatchesOnePointGrids) {
  // run_grid's fan-out must agree with each point run as its own grid.
  const auto kernels = select_kernels({"trisolv", "gesummv"});
  const workloads::CodegenOptions base = workloads::CodegenOptions::none();
  const std::vector<SuiteJob> jobs = {
      {make_config(cpu::Dl1Organization::kSramBaseline), base},
      {make_config(cpu::Dl1Organization::kNvmVwb), base}};
  const auto grid = at_jobs(8, [&] { return run_grid(kernels, jobs); });
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    for (std::size_t k = 0; k < kernels.size(); ++k) {
      const sim::RunStats one = run_grid({kernels[k]}, {jobs[j]})[0][0];
      EXPECT_EQ(sim::to_json(grid[j][k]), sim::to_json(one))
          << kernels[k].name << " on job " << j;
    }
  }
}

// ---- Grid-scoped trace lifetime ------------------------------------------

/// Five kernels under two codegens: ten distinct traces, more than the
/// eight-trace window of an eight-worker pool, so the grid crosses window
/// boundaries at --jobs=8.
class GridTraceLifetime : public ::testing::Test {
 protected:
  static constexpr std::size_t kTraces = 10;

  void TearDown() override { exec::clear_interrupt(); }

  /// Runs the grid at `jobs` workers, checks that each trace was loaded
  /// exactly once, and returns the grid's bytes.
  std::string run_checked(unsigned jobs) {
    exec::Telemetry& telemetry = exec::Telemetry::instance();
    const exec::TelemetrySnapshot before = telemetry.snapshot();
    const auto grid = at_jobs(jobs, [&] { return run_grid(kernels_, jobs_); });
    const exec::TelemetrySnapshot delta = telemetry.snapshot() - before;
    EXPECT_EQ(delta.traces_generated, kTraces)
        << "each (kernel, codegen) is generated exactly once per grid";
    EXPECT_EQ(delta.simulations, jobs_.size() * kernels_.size());
    std::string bytes;
    for (const auto& row : grid) {
      for (const sim::RunStats& s : row) bytes += sim::to_json(s) + "\n";
    }
    return bytes;
  }

  const std::vector<workloads::Kernel> kernels_ =
      select_kernels({"trisolv", "durbin", "gesummv", "atax", "mvt"});
  const std::vector<SuiteJob> jobs_ = {
      {make_config(cpu::Dl1Organization::kSramBaseline),
       workloads::CodegenOptions::none()},
      {make_config(cpu::Dl1Organization::kNvmDropIn),
       workloads::CodegenOptions::none()},
      {make_config(cpu::Dl1Organization::kNvmVwb),
       workloads::CodegenOptions::all()}};
};

TEST_F(GridTraceLifetime, WindowedGridLoadsEachTraceOnceAtAnyWidth) {
  EXPECT_EQ(run_checked(1), run_checked(8));
}

// At one worker a window holds one trace, so every point of trace n has
// run and reached the result store before trace n+1 is synthesized: the
// bound on resident traces (and so on peak memory) rests on this order.
TEST_F(GridTraceLifetime, SerialGridCompletesEachTraceBeforeTheNext) {
  const std::string path = ::testing::TempDir() + "sttsim_lifetime_window.bin";
  std::remove(path.c_str());
  exec::ResultStore store(path, sim::kRunStatsBytes);
  exec::set_result_store(&store);
  struct Synthesized {
    std::string kernel;
    workloads::CodegenOptions opts;
  };
  std::vector<Synthesized> order;
  std::vector<workloads::Kernel> kernels = kernels_;
  for (workloads::Kernel& k : kernels) {
    k.generate_decoded = [&, real = k.generate_decoded,
                          name = k.name](const workloads::CodegenOptions& o) {
      if (!order.empty()) {
        const Synthesized& prev = order.back();
        for (const SuiteJob& job : jobs_) {
          if (!(job.opts == prev.opts)) continue;
          std::uint8_t payload[sim::kRunStatsBytes];
          EXPECT_TRUE(store.lookup(
              simulation_digest(prev.kernel, prev.opts, job.config), payload))
              << name << " / " << o.label() << " synthesized before "
              << prev.kernel << " / " << prev.opts.label() << " completed";
        }
      }
      order.push_back({name, o});
      return real(o);
    };
  }
  at_jobs(1, [&] { return run_grid(kernels, jobs_); });
  exec::set_result_store(nullptr);
  EXPECT_EQ(order.size(), kTraces);
  EXPECT_EQ(store.entries(), jobs_.size() * kernels_.size());
  std::remove(path.c_str());
}

// The grid is interrupted when durbin's first trace is generated: the
// points in flight finish and persist, the rest are skipped, and no trace
// is loaded twice. At one worker both trisolv points and durbin's first
// point completed, durbin's second was skipped, and no other trace was
// generated.
TEST_F(GridTraceLifetime, InterruptedGridLoadsNoTraceTwice) {
  std::vector<workloads::Kernel> kernels = kernels_;
  const auto real = kernels[1].generate_decoded;
  kernels[1].generate_decoded = [&](const workloads::CodegenOptions& o) {
    exec::request_interrupt();
    return real(o);
  };
  exec::Telemetry& telemetry = exec::Telemetry::instance();
  for (const unsigned jobs : {1u, 8u}) {
    SCOPED_TRACE("--jobs=" + std::to_string(jobs));
    exec::clear_interrupt();
    const std::string path = ::testing::TempDir() +
                             "sttsim_lifetime_interrupt" +
                             std::to_string(jobs) + ".bin";
    std::remove(path.c_str());
    exec::ResultStore store(path, sim::kRunStatsBytes);
    exec::set_result_store(&store);
    const exec::TelemetrySnapshot before = telemetry.snapshot();
    EXPECT_THROW(at_jobs(jobs, [&] { return run_grid(kernels, jobs_); }),
                 exec::Interrupted);
    const exec::TelemetrySnapshot delta = telemetry.snapshot() - before;
    exec::set_result_store(nullptr);
    EXPECT_LE(delta.traces_generated, kTraces);
    EXPECT_EQ(delta.simulations, store.entries());
    EXPECT_EQ(delta.tasks_cancelled,
              jobs_.size() * kernels_.size() - store.entries());
    if (jobs == 1) {
      EXPECT_EQ(delta.traces_generated, 2u);
      EXPECT_EQ(store.entries(), 3u);
    }
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace sttsim::experiments
