// The parallel experiment engine's correctness contract: every figure
// function produces byte-identical output at --jobs=1 (the historical
// serial path) and --jobs=8, the concurrent TraceCache generates each
// trace exactly once no matter how many threads request it, and run_grid
// frees each trace after its last grid point without ever regenerating
// one.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
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

TEST(TraceCacheConcurrency, ManyThreadsOneGenerationPerKey) {
  TraceCache cache;
  const auto kernels = select_kernels({"trisolv", "gesummv"});
  const workloads::CodegenOptions base = workloads::CodegenOptions::none();
  const workloads::CodegenOptions full = workloads::CodegenOptions::all();
  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<const cpu::DecodedTrace>> seen(8 * 4);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 4; ++i) {
        const auto& kernel = kernels[static_cast<std::size_t>(i) % 2];
        const auto& opts = (i / 2 == 0) ? base : full;
        seen[static_cast<std::size_t>(t * 4 + i)] =
            cache.get_decoded(kernel, opts);
      }
    });
  }
  for (auto& th : threads) th.join();
  // 2 kernels x 2 codegen variants -> exactly 4 generated traces.
  EXPECT_EQ(cache.entries(), 4u);
  // Every requester of the same key observed the same object.
  for (int t = 1; t < 8; ++t) {
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(seen[static_cast<std::size_t>(t * 4 + i)],
                seen[static_cast<std::size_t>(i)]);
    }
  }
}

TEST(TraceCacheConcurrency, GridMatchesPerCallRuns) {
  // run_grid's fan-out must agree with run_kernel one at a time.
  const auto kernels = select_kernels({"trisolv", "gesummv"});
  const workloads::CodegenOptions base = workloads::CodegenOptions::none();
  const auto sram_cfg = make_config(cpu::Dl1Organization::kSramBaseline);
  const auto vwb_cfg = make_config(cpu::Dl1Organization::kNvmVwb);
  TraceCache grid_cache;
  const auto grid = at_jobs(8, [&] {
    return run_grid(grid_cache, kernels, {{sram_cfg, base}, {vwb_cfg, base}});
  });
  TraceCache serial_cache;
  for (std::size_t j = 0; j < 2; ++j) {
    const auto& cfg = j == 0 ? sram_cfg : vwb_cfg;
    for (std::size_t k = 0; k < kernels.size(); ++k) {
      const auto one = run_kernel(serial_cache, kernels[k], cfg, base);
      EXPECT_EQ(grid[j][k].core.total_cycles, one.core.total_cycles);
      EXPECT_EQ(grid[j][k].mem.loads, one.mem.loads);
      EXPECT_EQ(grid[j][k].mem.stores, one.mem.stores);
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

  /// Runs the grid on a fresh cache at `jobs` workers, checks the lifetime
  /// contract, and returns the grid's bytes.
  std::string run_checked(unsigned jobs) {
    TraceCache cache;
    exec::Telemetry& telemetry = exec::Telemetry::instance();
    const exec::TelemetrySnapshot before = telemetry.snapshot();
    const auto grid =
        at_jobs(jobs, [&] { return run_grid(cache, kernels_, jobs_); });
    const exec::TelemetrySnapshot delta = telemetry.snapshot() - before;
    EXPECT_EQ(cache.entries(), kTraces)
        << "each (kernel, codegen) is generated exactly once per grid";
    EXPECT_EQ(delta.traces_generated, kTraces);
    EXPECT_EQ(delta.simulations, jobs_.size() * kernels_.size());
    // No trace the grid used is still resident: asking for each again
    // generates it again.
    for (const SuiteJob& job : jobs_) {
      for (const workloads::Kernel& k : kernels_) {
        cache.get_decoded(k, job.opts);
      }
    }
    EXPECT_EQ(cache.entries(), 2 * kTraces)
        << "a trace outlived the last grid point that used it";
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

TEST_F(GridTraceLifetime, WindowedGridIsJobCountInvariantAndFreesEveryTrace) {
  EXPECT_EQ(run_checked(1), run_checked(8));
}

// The grid is interrupted when durbin's first trace is generated. A trace
// all of whose points completed was freed; a trace with points completed
// and points skipped stays cached, because the skipped points never count
// it down; a trace with no completed point was never generated. The
// result store tells completed points from skipped ones.
TEST_F(GridTraceLifetime, InterruptedGridFreesOnlyFullyCompletedTraces) {
  std::vector<workloads::Kernel> kernels = kernels_;
  const auto real = kernels[1].generate_decoded;
  kernels[1].generate_decoded = [&](const workloads::CodegenOptions& o) {
    exec::request_interrupt();
    return real(o);
  };
  const std::vector<workloads::CodegenOptions> codegens = {
      workloads::CodegenOptions::none(), workloads::CodegenOptions::all()};
  for (const unsigned jobs : {1u, 8u}) {
    SCOPED_TRACE("--jobs=" + std::to_string(jobs));
    exec::clear_interrupt();
    const std::string path = ::testing::TempDir() +
                             "sttsim_lifetime_interrupt" +
                             std::to_string(jobs) + ".bin";
    std::remove(path.c_str());
    exec::ResultStore store(path, sim::kRunStatsBytes);
    exec::set_result_store(&store);
    TraceCache cache;
    EXPECT_THROW(at_jobs(jobs, [&] { return run_grid(cache, kernels, jobs_); }),
                 exec::Interrupted);
    exec::set_result_store(nullptr);
    std::size_t partial = 0;
    for (const workloads::Kernel& kernel : kernels) {
      for (const workloads::CodegenOptions& opts : codegens) {
        std::size_t points = 0;
        std::size_t completed = 0;
        for (const SuiteJob& job : jobs_) {
          if (!(job.opts == opts)) continue;
          ++points;
          std::uint8_t payload[sim::kRunStatsBytes];
          completed += store.lookup(
              simulation_digest(kernel.name, opts, job.config), payload);
        }
        const bool cached = completed != 0 && completed != points;
        partial += cached;
        const std::size_t generated = cache.entries();
        cache.get_decoded(kernel, opts);
        EXPECT_EQ(cache.entries() == generated, cached)
            << kernel.name << " / " << opts.label() << ": " << completed
            << " of " << points << " points completed";
      }
    }
    // At one worker both trisolv points completed (trace freed), durbin's
    // first point raised the interrupt and completed, and its second was
    // skipped (trace cached); no other trace was generated.
    if (jobs == 1) {
      EXPECT_EQ(partial, 1u);
    }
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace sttsim::experiments
