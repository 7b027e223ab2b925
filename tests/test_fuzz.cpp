// Randomized property tests ("fuzzing" with a deterministic RNG): random
// traces over a bounded region must uphold system-wide invariants on every
// DL1 organization — the checks that catch state-machine bugs no
// hand-written scenario anticipates.
#include <gtest/gtest.h>

#include "sttsim/core/vwb_dl1.hpp"
#include "sttsim/cpu/system.hpp"
#include "sttsim/tech/technology.hpp"
#include "trace_util.hpp"

namespace sttsim {
namespace {

using cpu::Dl1Organization;
using testutil::random_trace;

constexpr Dl1Organization kAllOrgs[] = {
    Dl1Organization::kSramBaseline, Dl1Organization::kNvmDropIn,
    Dl1Organization::kNvmVwb,       Dl1Organization::kNvmL0,
    Dl1Organization::kNvmEmshr,     Dl1Organization::kNvmWriteBuf,
};

class FuzzSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeeds, EveryOrganizationUpholdsAccountingInvariants) {
  // A mix of working-set sizes: in-L1, L1-straddling, and L2-bound.
  for (const Addr region : {4 * kKiB, 96 * kKiB, 512 * kKiB}) {
    const cpu::DecodedTrace trace = random_trace(GetParam(), 20000, region);
    const auto expect = cpu::summarize(trace);
    for (const auto org : kAllOrgs) {
      cpu::SystemConfig cfg;
      cfg.organization = org;
      cpu::System system(cfg);
      const auto s = system.run(trace);
      SCOPED_TRACE(std::string(cpu::to_string(org)) + " region " +
                   std::to_string(region));
      // Accounting identities.
      EXPECT_EQ(s.mem.loads, expect.loads);
      EXPECT_EQ(s.mem.stores, expect.stores);
      EXPECT_EQ(s.mem.prefetches, expect.prefetches);
      EXPECT_EQ(s.core.instructions, expect.instructions);
      EXPECT_EQ(s.core.total_cycles,
                s.core.exec_cycles + s.core.stall_cycles());
      // Simulated time can never be shorter than the instruction count
      // (single-issue) and never absurdly long (every op bounded by a
      // memory round trip + contention).
      EXPECT_GE(s.core.total_cycles, expect.instructions);
      EXPECT_LE(s.core.total_cycles, expect.instructions * 300);
      // L1 hit/miss partition covers every array-level demand access.
      EXPECT_GE(s.mem.l1_read_hits + s.mem.l1_write_hits + s.mem.l1_misses,
                s.mem.l1_misses);
    }
  }
}

TEST_P(FuzzSeeds, DeterministicAcrossRuns) {
  const cpu::DecodedTrace trace = random_trace(GetParam(), 10000, 128 * kKiB);
  for (const auto org : kAllOrgs) {
    cpu::SystemConfig cfg;
    cfg.organization = org;
    cpu::System a(cfg);
    cpu::System b(cfg);
    EXPECT_EQ(sim::to_json(a.run(trace)), sim::to_json(b.run(trace)))
        << cpu::to_string(org);
  }
}

TEST_P(FuzzSeeds, VwbInclusionHolds) {
  // Every VWB-resident sector must be DL1-resident (the invariant the
  // eviction/invalidation protocol maintains).
  const Addr region = 8 * kKiB;  // small: maximizes replacement churn
  cpu::SystemConfig cfg;
  cfg.organization = Dl1Organization::kNvmVwb;
  // A tiny DL1 (via the stt params) forces constant eviction churn.
  cfg.stt = tech::scale_capacity(cfg.stt, 4 * kKiB);
  cpu::System small_system(cfg);
  const cpu::DecodedTrace trace = random_trace(GetParam(), 20000, region);
  small_system.run(trace);
  const auto& dl1 =
      dynamic_cast<const core::VwbDl1System&>(small_system.dl1());
  for (Addr a = 0x10000; a < 0x10000 + region; a += 64) {
    if (dl1.vwb().probe(a).hit) {
      EXPECT_TRUE(dl1.l1_contains(a)) << a;
    }
  }
}

TEST_P(FuzzSeeds, SramBaselineIsNeverBeatenByDropIn) {
  const cpu::DecodedTrace trace = random_trace(GetParam(), 20000, 32 * kKiB);
  cpu::SystemConfig s_cfg;
  s_cfg.organization = Dl1Organization::kSramBaseline;
  cpu::SystemConfig n_cfg;
  n_cfg.organization = Dl1Organization::kNvmDropIn;
  cpu::System sram(s_cfg);
  cpu::System nvm(n_cfg);
  EXPECT_LE(sram.run(trace).core.total_cycles,
            nvm.run(trace).core.total_cycles);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 42u));

}  // namespace
}  // namespace sttsim
