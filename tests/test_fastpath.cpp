// The replay loop (cpu/replay.hpp) has one source and two instantiations
// per DL1 class: the fast path (no observer) and the observed run the
// differential oracle drives. Observing must change nothing — same cycles,
// same stall breakdown, same memory-hierarchy counters — for every
// organization and for the fault-injecting decorator. These tests pin that
// on randomized and kernel traces, and pin the trace representation itself
// (precomputed spans, the store-payload sidecar).
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "sttsim/cpu/decoded_trace.hpp"
#include "sttsim/cpu/system.hpp"
#include "sttsim/util/rng.hpp"
#include "trace_util.hpp"

namespace {

using namespace sttsim;

const cpu::Dl1Organization kAllOrgs[] = {
    cpu::Dl1Organization::kSramBaseline, cpu::Dl1Organization::kNvmDropIn,
    cpu::Dl1Organization::kNvmVwb,       cpu::Dl1Organization::kNvmL0,
    cpu::Dl1Organization::kNvmEmshr,     cpu::Dl1Organization::kNvmWriteBuf};

/// Every RunStats counter, via the result-store codec (which covers all of
/// them); a mismatch prints both complete counter sets.
void expect_identical(const sim::RunStats& a, const sim::RunStats& b,
                      const std::string& context) {
  std::uint8_t ea[sim::kRunStatsBytes];
  std::uint8_t eb[sim::kRunStatsBytes];
  sim::encode_run_stats(a, ea);
  sim::encode_run_stats(b, eb);
  EXPECT_EQ(std::memcmp(ea, eb, sizeof ea), 0)
      << context << "\n" << sim::to_json(a) << "\n" << sim::to_json(b);
}

/// The six organizations plus one fault-injecting configuration: every
/// instantiation of the replay loop System can pick.
std::vector<cpu::SystemConfig> all_instantiations() {
  std::vector<cpu::SystemConfig> out;
  for (const cpu::Dl1Organization org : kAllOrgs) {
    cpu::SystemConfig cfg;
    cfg.organization = org;
    out.push_back(cfg);
  }
  cpu::SystemConfig faulted;
  faulted.organization = cpu::Dl1Organization::kNvmVwb;
  faulted.faults.enabled = true;
  faulted.faults.seed = 7;
  faulted.faults.fail_ppm = 300'000;
  faulted.faults.double_fault_pct = 25;
  out.push_back(faulted);
  return out;
}

std::string label(const cpu::SystemConfig& cfg) {
  return std::string(cpu::to_string(cfg.organization)) +
         (cfg.faults_active() ? " faulted" : "");
}

/// Runs `decoded` unobserved and observed on one System and checks that the
/// hook changes nothing: identical RunStats, one event per op in order, each
/// op issuing where the previous one completed, and the last completion
/// equal to total_cycles. Returns the unobserved stats.
sim::RunStats expect_observed_matches_unobserved(const cpu::SystemConfig& cfg,
                                        const cpu::DecodedTrace& decoded,
                                        const std::string& context) {
  SCOPED_TRACE(context);
  cpu::System system(cfg);
  const sim::RunStats plain = system.run(decoded);
  std::vector<cpu::OpEvent> events;
  const sim::RunStats observed = system.run(
      decoded, [&](const cpu::OpEvent& ev) { events.push_back(ev); });
  expect_identical(observed, plain, context);
  EXPECT_EQ(events.size(), decoded.size());
  sim::Cycle prev = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].index, i);
    EXPECT_EQ(events[i].issue, prev) << "op " << i;
    EXPECT_GE(events[i].complete, events[i].issue) << "op " << i;
    prev = events[i].complete;
  }
  EXPECT_EQ(prev, plain.core.total_cycles);
  return plain;
}

TEST(ObservedRun, MatchesUnobservedOnRandomTraces) {
  for (const cpu::SystemConfig& cfg : all_instantiations()) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      // Region sweeps from cache-resident to thrashing the 64 KiB DL1.
      const Addr region = Addr{8} << (10 + 2 * (seed % 4));
      expect_observed_matches_unobserved(
          cfg, testutil::random_trace(seed, 4000, region),
          label(cfg) + " seed " + std::to_string(seed));
    }
  }
}

TEST(ObservedRun, MatchesUnobservedOnKernelTrace) {
  // The same decoded trace is shared (read-only) across organizations,
  // exactly as run_grid shares it across workers.
  const cpu::DecodedTrace decoded = testutil::kernel_trace(
      workloads::gemm_into, workloads::CodegenOptions::none(), 20, 20, 20);
  for (const cpu::SystemConfig& cfg : all_instantiations()) {
    const sim::RunStats s =
        expect_observed_matches_unobserved(cfg, decoded, label(cfg));
    // The faulted configuration must actually take the ECC read path.
    if (cfg.faults_active()) {
      EXPECT_GT(s.mem.ecc_corrections, 0u);
    }
  }
}

TEST(DecodedTrace, EmptySidecarMeansZeroPayloads) {
  cpu::DecodedTraceBuilder b;
  b.store(0x100, 8);
  b.load(0x200, 8);
  b.store(0x300, 4);
  b.exec(3);
  b.store(0x400, 2);
  cpu::DecodedTrace d = b.take();
  ASSERT_TRUE(d.store_values.empty());
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(d.store_value(i), 0u);
  // Real payloads: one per store, in store-ordinal order.
  cpu::assign_store_values(d, 5);
  ASSERT_EQ(d.store_values.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(d.store_value(i), d.store_values[i]);
    EXPECT_NE(d.store_value(i), 0u);
  }
  EXPECT_EQ(d.ops.size(), 5u);
}

TEST(DecodedTrace, PrecomputedSpansMatchOnTheFly) {
  Rng rng(2024);
  for (int i = 0; i < 2000; ++i) {
    const Addr addr = rng.next_below(1 * kMiB);
    const unsigned size = 1u + static_cast<unsigned>(rng.next_below(64));
    cpu::DecodedTraceBuilder one;
    one.load(addr, static_cast<std::uint8_t>(size));
    const cpu::DecodedOp op = one.take().ops[0];
    for (const unsigned shift : {5u, 6u, 7u}) {
      const Addr mask = (Addr{1} << shift) - 1;
      const unsigned expected = static_cast<unsigned>(
          ((addr & mask) + size - 1) >> shift) + 1;
      EXPECT_EQ(cpu::decoded_span(op, shift), expected)
          << "addr=" << addr << " size=" << size << " shift=" << shift;
    }
  }
}

TEST(DecodedTrace, ExecOpsCarryCountAndNoSpans) {
  cpu::DecodedTraceBuilder b;
  b.exec(17);
  b.prefetch(0x1234);
  const cpu::DecodedTrace d = b.take();
  EXPECT_EQ(d.ops[0].count, 17u);
  EXPECT_EQ(d.ops[0].kind, cpu::OpKind::kExec);
  EXPECT_EQ(d.ops[1].kind, cpu::OpKind::kPrefetch);
  EXPECT_TRUE(d.store_values.empty());
}

}  // namespace
