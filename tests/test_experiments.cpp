// Unit tests: the experiment harness (penalty math, configs, energy
// plumbing) and the artifact drivers' structure on a small kernel
// subset.
#include <gtest/gtest.h>

#include "sttsim/experiments/figures.hpp"
#include "sttsim/experiments/harness.hpp"
#include "sttsim/util/check.hpp"

namespace sttsim::experiments {
namespace {

sim::RunStats with_cycles(std::uint64_t cycles) {
  sim::RunStats s;
  s.core.total_cycles = cycles;
  return s;
}

TEST(Harness, PenaltyPct) {
  EXPECT_DOUBLE_EQ(penalty_pct(with_cycles(154), with_cycles(100)), 54.0);
  EXPECT_DOUBLE_EQ(penalty_pct(with_cycles(100), with_cycles(100)), 0.0);
  EXPECT_DOUBLE_EQ(penalty_pct(with_cycles(90), with_cycles(100)), -10.0);
}

TEST(Harness, GainPct) {
  EXPECT_DOUBLE_EQ(gain_pct(with_cycles(100), with_cycles(50)), 50.0);
  EXPECT_DOUBLE_EQ(gain_pct(with_cycles(100), with_cycles(100)), 0.0);
}

TEST(Harness, SelectKernelsEmptyMeansAll) {
  EXPECT_EQ(select_kernels({}).size(), 26u);
  const auto two = select_kernels({"gemm", "atax"});
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0].name, "gemm");
  EXPECT_THROW(select_kernels({"bogus"}), ConfigError);
}

TEST(Harness, MakeConfigSetsOrganization) {
  EXPECT_EQ(make_config(cpu::Dl1Organization::kNvmVwb).organization,
            cpu::Dl1Organization::kNvmVwb);
}

TEST(Harness, Dl1EnergyUsesArrayCounts) {
  sim::RunStats s;
  s.mem.l1_array_reads = 100;
  s.mem.l1_array_writes = 50;
  s.core.total_cycles = 1000;
  const auto t = tech::stt_mram_l1d_64kb();
  const auto e = dl1_energy(s, t);
  EXPECT_DOUBLE_EQ(e.dynamic_read_nj, 100 * t.read_energy_nj);
  EXPECT_DOUBLE_EQ(e.dynamic_write_nj, 50 * t.write_energy_nj);
  EXPECT_GT(e.static_nj, 0.0);
}

TEST(Table1, MentionsEveryParameter) {
  const std::string t = table1_technology();
  for (const char* needle :
       {"Read Latency", "Write Latency", "Leakage", "Cell Area",
        "Associativity", "Cache Line Size", "3.37", "1.86", "0.787", "146",
        "42", "4 cycles", "2 cycles"}) {
    EXPECT_NE(t.find(needle), std::string::npos) << needle;
  }
}

TEST(AreaReport, StatesIsoAreaCapacity) {
  const std::string a = area_report();
  EXPECT_NE(a.find("Iso-area"), std::string::npos);
  EXPECT_NE(a.find("128 KiB"), std::string::npos);  // 2x the 64 KiB macro
}

// Structural checks on the artifact drivers, run on a fast 2-kernel subset.
class FigureShape : public ::testing::Test {
 protected:
  const KernelFilter subset_{"trisolv", "gesummv"};
};

TEST_F(FigureShape, Fig1HasOneSeriesPlusAverage) {
  const auto fig = fig1_dropin_penalty(subset_);
  ASSERT_EQ(fig.series.size(), 1u);
  ASSERT_EQ(fig.row_labels.size(), 3u);  // 2 kernels + AVERAGE
  EXPECT_EQ(fig.row_labels.back(), "AVERAGE");
  EXPECT_EQ(fig.series[0].values.size(), 3u);
  for (const double v : fig.series[0].values) EXPECT_GT(v, 0.0);
}

TEST_F(FigureShape, Fig3VwbNeverWorseThanDropIn) {
  const auto fig = fig3_vwb_penalty(subset_);
  ASSERT_EQ(fig.series.size(), 2u);
  for (std::size_t i = 0; i < fig.row_labels.size(); ++i) {
    EXPECT_LE(fig.series[1].values[i], fig.series[0].values[i] + 1.0)
        << fig.row_labels[i];
  }
}

TEST_F(FigureShape, Fig4SharesSumToHundred) {
  const auto fig = fig4_rw_breakdown(subset_);
  ASSERT_EQ(fig.series.size(), 2u);
  for (std::size_t i = 0; i + 1 < fig.row_labels.size(); ++i) {
    const double total = fig.series[0].values[i] + fig.series[1].values[i];
    EXPECT_TRUE(total == 0.0 || std::abs(total - 100.0) < 1e-9)
        << fig.row_labels[i];
  }
}

TEST_F(FigureShape, Fig5OptimizedBeatsUnoptimized) {
  const auto fig = fig5_transformations(subset_);
  ASSERT_EQ(fig.series.size(), 3u);
  const auto& dropin = fig.series[0].values;
  const auto& unopt = fig.series[1].values;
  const auto& opt = fig.series[2].values;
  for (std::size_t i = 0; i < fig.row_labels.size(); ++i) {
    EXPECT_LE(unopt[i], dropin[i] + 1.0);
    EXPECT_LE(opt[i], unopt[i] + 1.0);
  }
}

TEST_F(FigureShape, Fig6SharesArePercentages) {
  const auto fig = fig6_contributions(subset_);
  ASSERT_EQ(fig.series.size(), 3u);
  for (std::size_t i = 0; i + 1 < fig.row_labels.size(); ++i) {
    double total = 0;
    for (const auto& s : fig.series) {
      EXPECT_GE(s.values[i], 0.0);
      EXPECT_LE(s.values[i], 100.0);
      total += s.values[i];
    }
    EXPECT_TRUE(total == 0.0 || std::abs(total - 100.0) < 1e-9);
  }
}

TEST_F(FigureShape, Fig7LargerVwbNeverHurts) {
  const auto fig = fig7_vwb_size(subset_);
  ASSERT_EQ(fig.series.size(), 3u);
  const std::size_t avg = fig.row_labels.size() - 1;
  EXPECT_LE(fig.series[2].values[avg], fig.series[0].values[avg] + 0.5);
}

TEST_F(FigureShape, Fig8ProposalBeatsAlternativesOnAverage) {
  const auto fig = fig8_alternatives(subset_);
  ASSERT_EQ(fig.series.size(), 3u);
  const std::size_t avg = fig.row_labels.size() - 1;
  EXPECT_LE(fig.series[0].values[avg], fig.series[1].values[avg] + 0.5);
  EXPECT_LE(fig.series[0].values[avg], fig.series[2].values[avg] + 0.5);
}

TEST_F(FigureShape, Fig9TransformationsHelpBothSystems) {
  const auto fig = fig9_baseline_gain(subset_);
  ASSERT_EQ(fig.series.size(), 2u);
  for (const auto& series : fig.series) {
    for (const double v : series.values) EXPECT_GT(v, 0.0);
  }
}

TEST_F(FigureShape, SensitivityClockPenaltyGrowsWithFrequency) {
  const auto fig = sensitivity_clock(subset_);
  ASSERT_EQ(fig.series.size(), 4u);  // 1.0 / 1.5 / 2.0 / 3.0 GHz
  const std::size_t avg = fig.row_labels.size() - 1;
  for (std::size_t s = 1; s < fig.series.size(); ++s) {
    EXPECT_GE(fig.series[s].values[avg] + 0.5,
              fig.series[s - 1].values[avg]);
  }
}

TEST_F(FigureShape, SensitivityCellOldCellIsWriteLimited) {
  const auto fig = sensitivity_cell(subset_);
  ASSERT_EQ(fig.series.size(), 4u);
  const std::size_t avg = fig.row_labels.size() - 1;
  // The read-limited dual-MTJ drop-in hurts more than the 1T-1MTJ drop-in
  // on these read-dominated kernels...
  EXPECT_GT(fig.series[0].values[avg], fig.series[1].values[avg]);
  // ...and the VWB recovers most of the dual-MTJ penalty.
  EXPECT_LT(fig.series[2].values[avg], fig.series[0].values[avg] + 0.5);
}

TEST_F(FigureShape, IsoAreaSubarrayedNeverWorseThanScaled) {
  const auto fig = exploration_iso_area(subset_);
  ASSERT_EQ(fig.series.size(), 3u);
  const std::size_t avg = fig.row_labels.size() - 1;
  EXPECT_LE(fig.series[2].values[avg], fig.series[1].values[avg] + 0.5);
}

TEST_F(FigureShape, WriteMitigationBarelyHelps) {
  const auto fig = ablation_write_mitigation(subset_);
  ASSERT_EQ(fig.series.size(), 3u);
  const std::size_t avg = fig.row_labels.size() - 1;
  // VWB (read-oriented) clearly beats the write buffer; the write buffer
  // stays close to drop-in.
  EXPECT_LT(fig.series[1].values[avg], fig.series[2].values[avg]);
}

TEST_F(FigureShape, LifetimeReportListsAllTechnologies) {
  const std::string r = lifetime_report(subset_);
  for (const char* needle :
       {"STT-MRAM (1e16)", "ReRAM (1e8)", "PRAM (1e6)", "ideal levelling",
        "trisolv", "gesummv"}) {
    EXPECT_NE(r.find(needle), std::string::npos) << needle;
  }
}

TEST_F(FigureShape, EnergyReportNvmBeatsSramOnLeakageBoundKernels) {
  const auto fig = energy_report(subset_);
  ASSERT_EQ(fig.series.size(), 2u);
  const std::size_t avg = fig.row_labels.size() - 1;
  // The STT-MRAM DL1's 5x lower leakage dominates the energy account.
  EXPECT_LT(fig.series[1].values[avg], fig.series[0].values[avg]);
}

}  // namespace
}  // namespace sttsim::experiments
