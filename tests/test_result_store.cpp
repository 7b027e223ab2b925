// Tests: the simulation digest that keys the persistent result store, and
// the incremental grid recomputation built on the store — warm results are
// byte-identical to cold ones at any pool width, and a one-parameter grid
// edit recomputes only the dirty points. The store's own durability and
// sharing cases live in test_store.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

#include "sttsim/cpu/trace_io.hpp"
#include "sttsim/exec/parallel_executor.hpp"
#include "sttsim/exec/result_store.hpp"
#include "sttsim/exec/telemetry.hpp"
#include "sttsim/experiments/harness.hpp"
#include "sttsim/sim/stats.hpp"
#include "sttsim/workloads/suite.hpp"

namespace sttsim {
namespace {

std::string temp_store_path(const char* name) {
  return ::testing::TempDir() + "sttsim_store_" + name + ".bin";
}

// ---- Digest and engine-level behavior --------------------------------

TEST(SimulationDigest, StableAndSensitiveToEveryInput) {
  const cpu::SystemConfig cfg =
      experiments::make_config(cpu::Dl1Organization::kNvmVwb);
  const workloads::CodegenOptions none = workloads::CodegenOptions::none();
  const std::uint64_t d = experiments::simulation_digest("gemm", none, cfg);
  EXPECT_EQ(d, experiments::simulation_digest("gemm", none, cfg));
  EXPECT_NE(d, experiments::simulation_digest("atax", none, cfg));
  EXPECT_NE(d, experiments::simulation_digest(
                   "gemm", workloads::CodegenOptions::all(), cfg));
  cpu::SystemConfig edited = cfg;
  edited.vwb_total_kbit *= 2;
  EXPECT_NE(d, experiments::simulation_digest("gemm", none, edited));
  edited = cfg;
  edited.clock_ghz = 1.25;
  EXPECT_NE(d, experiments::simulation_digest("gemm", none, edited));
  edited = cfg;
  edited.stt.write_latency_ns *= 2.0;
  EXPECT_NE(d, experiments::simulation_digest("gemm", none, edited));
}

/// Converts to any member type: T{AnyField{}...} compiles exactly up to
/// T's member count, which field_count finds.
struct AnyField {
  template <typename T>
  operator T() const;  // NOLINT: implicit on purpose; never called
};

template <typename T, typename... Fields>
constexpr std::size_t field_count() {
  if constexpr (requires { T{Fields{}..., AnyField{}}; }) {
    return field_count<T, Fields..., AnyField>();
  } else {
    return sizeof...(Fields);
  }
}

/// Bumps one field: the next enumerator, a flipped bool, or +1.
struct Perturb {
  template <typename T>
  void operator()(T& field) const {
    if constexpr (std::is_enum_v<T>) {
      field = static_cast<T>(static_cast<int>(field) + 1);
    } else if constexpr (std::is_same_v<T, bool>) {
      field = !field;
    } else {
      field = static_cast<T>(field + 1);
    }
  }
};

// The digest-completeness tripwire. for_each_config_field and
// for_each_fault_field drive hash_system_config; perturbing any one field
// they visit must re-key the point. The member counts of the config
// structs are pinned against the visited counts, so a field added to a
// struct but not to the visitors fails here rather than turning into
// stale memo hits.
TEST(SimulationDigest, EveryVisitedFieldReKeysThePoint) {
  cpu::SystemConfig faulted =
      experiments::make_config(cpu::Dl1Organization::kNvmVwb);
  faulted.faults.enabled = true;
  const workloads::CodegenOptions none = workloads::CodegenOptions::none();
  const std::uint64_t base =
      experiments::simulation_digest("gemm", none, faulted);

  const auto check_each = [&](const char* group, auto for_each) {
    std::size_t n = 0;
    for_each(faulted, [&](const auto&) { ++n; });
    for (std::size_t victim = 0; victim < n; ++victim) {
      cpu::SystemConfig edited = faulted;
      std::size_t i = 0;
      for_each(edited, [&](auto& field) {
        if (i++ == victim) Perturb{}(field);
      });
      EXPECT_NE(base, experiments::simulation_digest("gemm", none, edited))
          << group << " field #" << victim << " is not in the digest";
    }
    return n;
  };
  const std::size_t config_fields =
      check_each("config", [](auto& c, auto&& visit) {
        experiments::for_each_config_field(c, visit);
      });
  const std::size_t fault_fields =
      check_each("fault", [](auto& c, auto&& visit) {
        experiments::for_each_fault_field(c, visit);
      });

  // SystemConfig holds five structs (sram, stt, l2, faults, ecc); every
  // technology field but `label` and every fault field but `enabled` (which
  // reaches the digest through faults_active()) is visited.
  EXPECT_EQ(config_fields, field_count<cpu::SystemConfig>() - 5 +
                               2 * (field_count<tech::TechnologyParams>() - 1) +
                               field_count<mem::L2Config>())
      << "a SystemConfig, TechnologyParams or L2Config field is missing from "
         "for_each_config_field";
  EXPECT_EQ(fault_fields, field_count<reliability::FaultConfig>() - 1 +
                              field_count<reliability::EccConfig>())
      << "a FaultConfig or EccConfig field is missing from "
         "for_each_fault_field";
}

// The digest's byte stream is pinned, so result stores stay warm across
// builds. The values move only with a deliberate version bump (here trace
// format 3, whose empty store sidecars re-keyed every stored result).
TEST(SimulationDigest, PinnedValuesKeepExistingStoresWarm) {
  ASSERT_EQ(cpu::kTraceFormatVersion, 3u);
  cpu::SystemConfig cfg =
      experiments::make_config(cpu::Dl1Organization::kNvmVwb);
  const workloads::CodegenOptions none = workloads::CodegenOptions::none();
  EXPECT_EQ(experiments::simulation_digest("gemm", none, cfg),
            0x03f978a36ad6daf0ULL);
  cfg.faults.enabled = true;
  EXPECT_EQ(experiments::simulation_digest("gemm", none, cfg),
            0xd2aa640eceb7d5feULL);
}

// An external trace (the CLI's --trace-in) is keyed by its content: every
// op and every store payload as the oracle reads it.
TEST(SimulationDigest, ExternalTraceKeysByContent) {
  const cpu::SystemConfig cfg =
      experiments::make_config(cpu::Dl1Organization::kNvmVwb);
  cpu::DecodedTraceBuilder b;
  b.load(0x1000, 8);
  b.store(0x1008, 8);
  const cpu::DecodedTrace zero = b.take();
  const std::uint64_t d = experiments::simulation_digest(zero, cfg);
  cpu::DecodedTrace explicit_zero = zero;
  explicit_zero.store_values = {0};
  EXPECT_EQ(experiments::simulation_digest(explicit_zero, cfg), d);
  cpu::DecodedTrace paid = zero;
  paid.store_values = {7};
  EXPECT_NE(experiments::simulation_digest(paid, cfg), d);
  cpu::DecodedTrace moved = zero;
  moved.ops[0].addr += 8;
  EXPECT_NE(experiments::simulation_digest(moved, cfg), d);
  EXPECT_NE(experiments::simulation_digest(
                zero, experiments::make_config(cpu::Dl1Organization::kNvmL0)),
            d);
  EXPECT_NE(experiments::simulation_digest("gemm", {}, cfg), d);
}

TEST(SimulationDigest, FaultCampaignFoldsIntoTheKeyOnlyWhenActive) {
  const workloads::CodegenOptions none = workloads::CodegenOptions::none();
  cpu::SystemConfig cfg = experiments::make_config(cpu::Dl1Organization::kNvmVwb);
  const std::uint64_t clean = experiments::simulation_digest("gemm", none, cfg);

  // Enabling injection re-keys the point; every fault/ECC parameter is
  // part of the key.
  cfg.faults.enabled = true;
  const std::uint64_t faulted = experiments::simulation_digest("gemm", none, cfg);
  EXPECT_NE(clean, faulted);
  cpu::SystemConfig edited = cfg;
  edited.faults.seed += 1;
  EXPECT_NE(faulted, experiments::simulation_digest("gemm", none, edited));
  edited = cfg;
  edited.faults.fail_ppm *= 2;
  EXPECT_NE(faulted, experiments::simulation_digest("gemm", none, edited));
  edited = cfg;
  edited.ecc.correction_cycles += 1;
  EXPECT_NE(faulted, experiments::simulation_digest("gemm", none, edited));

  // Inactive fault config must NOT perturb the key: a disabled seed edit
  // keeps the clean digest...
  cpu::SystemConfig disabled = experiments::make_config(cpu::Dl1Organization::kNvmVwb);
  disabled.faults.seed = 999;
  EXPECT_EQ(clean, experiments::simulation_digest("gemm", none, disabled));
  // ...and the SRAM baseline never activates injection, so its points stay
  // warm across fault-seed sweeps.
  cpu::SystemConfig sram =
      experiments::make_config(cpu::Dl1Organization::kSramBaseline);
  const std::uint64_t sram_d = experiments::simulation_digest("gemm", none, sram);
  sram.faults.enabled = true;
  sram.faults.seed = 42;
  EXPECT_EQ(sram_d, experiments::simulation_digest("gemm", none, sram));
}

/// RAII: installs a fresh store for one test and restores the previous
/// process-wide registration (and pool defaults) on exit.
class ScopedStore {
 public:
  explicit ScopedStore(const std::string& path)
      : path_(path), store_(path, sim::kRunStatsBytes) {
    exec::set_result_store(&store_);
  }
  ~ScopedStore() { exec::set_result_store(nullptr); }
  exec::ResultStore& get() { return store_; }

 private:
  std::string path_;
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

TEST(IncrementalGrid, WarmRerunIsByteIdenticalAtAnyPoolWidth) {
  const auto kernels = experiments::select_kernels({"atax", "mvt"});
  const auto jobs = small_grid();
  const std::size_t n_points = jobs.size() * kernels.size();

  // Reference: no store at all.
  exec::set_result_store(nullptr);
  const std::string reference =
      grid_fingerprint(experiments::run_grid(kernels, jobs));

  for (const unsigned width : {1u, 8u}) {
    const std::string path = temp_store_path("warmgrid");
    std::remove(path.c_str());
    exec::set_default_jobs(width);

    auto& telemetry = exec::Telemetry::instance();
    std::string cold;
    {
      ScopedStore store(path);
      const exec::TelemetrySnapshot before = telemetry.snapshot();
      cold = grid_fingerprint(experiments::run_grid(kernels, jobs));
      const exec::TelemetrySnapshot delta = telemetry.snapshot() - before;
      EXPECT_EQ(delta.memo_hits, 0u);
      EXPECT_EQ(delta.memo_misses, n_points);
    }
    // Fresh store object: the warm pass must be served entirely from disk
    // and generate no traces.
    {
      ScopedStore store(path);
      const exec::TelemetrySnapshot before = telemetry.snapshot();
      const std::string warm =
          grid_fingerprint(experiments::run_grid(kernels, jobs));
      const exec::TelemetrySnapshot delta = telemetry.snapshot() - before;
      EXPECT_EQ(delta.memo_hits, n_points);
      EXPECT_EQ(delta.memo_misses, 0u);
      EXPECT_EQ(delta.traces_generated, 0u);
      EXPECT_EQ(delta.simulations, 0u);
      EXPECT_EQ(warm, cold) << "warm grid diverged at --jobs=" << width;
    }
    EXPECT_EQ(cold, reference) << "store changed results at --jobs=" << width;
    std::remove(path.c_str());
  }
  exec::set_default_jobs(0);
}

// The incremental-recomputation acceptance case: edit ONE grid parameter
// and re-run — only that job's points (one per kernel) may simulate; every
// other point must be a store hit.
TEST(IncrementalGrid, SingleParameterEditRecomputesOnlyDirtyPoints) {
  const auto kernels = experiments::select_kernels({"atax", "mvt"});
  std::vector<experiments::SuiteJob> jobs = small_grid();
  const std::size_t n_points = jobs.size() * kernels.size();
  const std::string path = temp_store_path("dirty");
  std::remove(path.c_str());

  auto& telemetry = exec::Telemetry::instance();
  ScopedStore store(path);
  experiments::run_grid(kernels, jobs);

  jobs[1].config.vwb_total_kbit *= 2;  // the one-parameter campaign edit
  const exec::TelemetrySnapshot before = telemetry.snapshot();
  experiments::run_grid(kernels, jobs);
  const exec::TelemetrySnapshot delta = telemetry.snapshot() - before;
  EXPECT_EQ(delta.memo_misses, kernels.size());  // jobs[1] x every kernel
  EXPECT_EQ(delta.memo_hits, n_points - kernels.size());

  // The dirty points were appended: an immediate re-run is all hits.
  const exec::TelemetrySnapshot before2 = telemetry.snapshot();
  experiments::run_grid(kernels, jobs);
  const exec::TelemetrySnapshot delta2 = telemetry.snapshot() - before2;
  EXPECT_EQ(delta2.memo_hits, n_points);
  EXPECT_EQ(delta2.memo_misses, 0u);
  std::remove(path.c_str());
}

// Fault-campaign incremental recomputation: re-running the same grid with
// the same fault seed must be all warm hits (byte-identical), and editing
// ONLY the fault seed must recompute exactly the fault-active points —
// the SRAM baseline lanes stay warm because an inactive fault config never
// reaches their digest.
TEST(IncrementalGrid, FaultSeedEditRecomputesOnlyFaultActivePoints) {
  const auto kernels = experiments::select_kernels({"atax"});
  const workloads::CodegenOptions none = workloads::CodegenOptions::none();
  std::vector<experiments::SuiteJob> jobs;
  for (const auto org : {cpu::Dl1Organization::kSramBaseline,
                         cpu::Dl1Organization::kNvmDropIn,
                         cpu::Dl1Organization::kNvmVwb}) {
    experiments::SuiteJob job{experiments::make_config(org), none};
    job.config.faults.enabled = true;
    job.config.faults.seed = 1;
    jobs.push_back(job);
  }
  const std::size_t n_points = jobs.size() * kernels.size();
  const std::size_t n_faulted = 2 * kernels.size();  // SRAM lane is inactive
  const std::string path = temp_store_path("faultseed");
  std::remove(path.c_str());

  auto& telemetry = exec::Telemetry::instance();
  ScopedStore store(path);
  const std::string cold =
      grid_fingerprint(experiments::run_grid(kernels, jobs));
  // Same seed, fresh pass: all hits, byte-identical.
  {
    const exec::TelemetrySnapshot before = telemetry.snapshot();
    const std::string warm =
        grid_fingerprint(experiments::run_grid(kernels, jobs));
    const exec::TelemetrySnapshot delta = telemetry.snapshot() - before;
    EXPECT_EQ(delta.memo_hits, n_points);
    EXPECT_EQ(delta.memo_misses, 0u);
    EXPECT_EQ(warm, cold);
  }
  // Seed edit: exactly the fault-active points recompute.
  for (auto& job : jobs) job.config.faults.seed = 2;
  {
    const exec::TelemetrySnapshot before = telemetry.snapshot();
    const std::string reseeded =
        grid_fingerprint(experiments::run_grid(kernels, jobs));
    const exec::TelemetrySnapshot delta = telemetry.snapshot() - before;
    EXPECT_EQ(delta.memo_misses, n_faulted);
    EXPECT_EQ(delta.memo_hits, n_points - n_faulted);
    EXPECT_NE(reseeded, cold) << "fault seed had no observable effect";
  }
  std::remove(path.c_str());
}

// RunStats must survive the store's binary encoding exactly — every counter
// is a u64, so decode_run_stats(encode_run_stats(x)) == x bit for bit.
TEST(RunStatsCodec, ExactRoundTrip) {
  sim::RunStats s;
  s.core.instructions = 0xffffffffffffffffULL;
  s.core.total_cycles = 12345678901234ULL;
  s.core.structural_stall_cycles = 17;
  s.mem.loads = 1;
  s.mem.bank_conflict_cycles = 0x8000000000000000ULL;
  std::uint8_t buf[sim::kRunStatsBytes];
  sim::encode_run_stats(s, buf);
  const sim::RunStats back = sim::decode_run_stats(buf);
  EXPECT_EQ(back.core.instructions, s.core.instructions);
  EXPECT_EQ(back.core.total_cycles, s.core.total_cycles);
  EXPECT_EQ(back.core.structural_stall_cycles,
            s.core.structural_stall_cycles);
  EXPECT_EQ(back.mem.loads, s.mem.loads);
  EXPECT_EQ(back.mem.bank_conflict_cycles, s.mem.bank_conflict_cycles);
  EXPECT_EQ(sim::to_json(back), sim::to_json(s));
}

}  // namespace
}  // namespace sttsim
