// Shared plumbing for the paper's experiments: load or synthesize traces,
// run (kernel x organization x codegen) grids — fanned across a thread
// pool — and compute penalties/gains.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "sttsim/cpu/system.hpp"
#include "sttsim/sim/stats.hpp"
#include "sttsim/tech/energy.hpp"
#include "sttsim/workloads/suite.hpp"

namespace sttsim::experiments {

/// Performance penalty of `variant` relative to `baseline`, in percent —
/// the paper's metric ("SRAM D-cache baseline = 100%"): 0% means equal
/// runtime, 54% means 1.54x the baseline cycles. NaN when either side is a
/// degraded (timed-out/cancelled, all-zero) grid point — "no data", which
/// prints as nan.
double penalty_pct(const sim::RunStats& variant,
                   const sim::RunStats& baseline);

/// Performance gain of `optimized` over `unoptimized` on the same system,
/// in percent (Fig. 9's metric). NaN when either side is degraded.
double gain_pct(const sim::RunStats& unoptimized,
                const sim::RunStats& optimized);

/// The trace of `kernel` compiled with `opts` (Kernel::generate_decoded).
/// When a persistent trace store is active (exec::set_trace_store; the
/// benches' --trace-store=PATH flag), the store is probed by trace_digest
/// first — a hit deserializes the stored CompressedTrace and decompresses
/// it (no synthesis at all; Telemetry::traces_generated stays 0 on a warm
/// run); a malformed blob counts as a miss — and a synthesized trace is
/// compressed and appended for the next run. Without a store nothing is
/// ever compressed. Every call loads or synthesizes afresh: run_grid shares
/// one load among the points of a grid.
cpu::DecodedTrace load_or_synthesize(const workloads::Kernel& kernel,
                                     const workloads::CodegenOptions& opts);

/// Stable 64-bit digest of everything that determines a generated trace's
/// bytes: kernel identity, codegen options — plus the trace-format version,
/// the trace-store schema version, and the hash algorithm version, so a
/// format change invalidates stored blobs instead of misreading them. This
/// is the persistent trace store's key (exec::TraceStore): equal digests
/// certify "the generator would emit a bit-identical compressed trace".
std::uint64_t trace_digest(std::string_view kernel_name,
                           const workloads::CodegenOptions& opts);

/// Calls visit(field) on every SystemConfig field that simulation_digest
/// folds unconditionally, in digest order: the organization, clock and
/// buffer geometry, both technologies (all but the cosmetic label) and the
/// L2. `Config` may be const or not, so the one list serves the digest and
/// the tests that perturb each field in turn. A new SystemConfig field goes
/// here (or in for_each_fault_field), or the digest misses it and stale
/// results come back as memo hits.
template <typename Config, typename Visit>
void for_each_config_field(Config& c, Visit&& visit) {
  visit(c.organization);
  visit(c.clock_ghz);
  visit(c.vwb_total_kbit);
  visit(c.vwb_lines);
  visit(c.nvm_banks);
  visit(c.store_buffer_depth);
  visit(c.writeback_buffer_depth);
  visit(c.mshr_entries);
  for (auto* t : {&c.sram, &c.stt}) {
    visit(t->tech);
    visit(t->read_latency_ns);
    visit(t->write_latency_ns);
    visit(t->leakage_mw);
    visit(t->cell_area_f2);
    visit(t->capacity_bytes);
    visit(t->associativity);
    visit(t->line_bits);
    visit(t->read_energy_nj);
    visit(t->write_energy_nj);
  }
  visit(c.l2.capacity_bytes);
  visit(c.l2.associativity);
  visit(c.l2.line_bytes);
  visit(c.l2.hit_latency);
  visit(c.l2.port_occupancy);
  visit(c.l2.memory_latency);
}

/// The fault and ECC fields, which simulation_digest folds only when
/// faults_active(): enabling faults on the SRAM baseline changes nothing,
/// so it must not dirty that baseline's points.
template <typename Config, typename Visit>
void for_each_fault_field(Config& c, Visit&& visit) {
  visit(c.faults.seed);
  visit(c.faults.fail_ppm);
  visit(c.faults.double_fault_pct);
  visit(c.faults.retention_window_log2);
  visit(c.faults.wear_sensitivity_log2);
  visit(c.ecc.word_bits);
  visit(c.ecc.check_bits);
  visit(c.ecc.correction_cycles);
  visit(c.ecc.refill_cycles);
}

/// Stable 64-bit digest of the *full* simulation input of one grid point:
/// kernel identity, codegen options, DL1 organization geometry, technology
/// and latency parameters, L2 configuration — plus the trace-format
/// version, the result-store schema version, and the hash algorithm
/// version, so any semantic or layout change invalidates old keys instead
/// of silently matching them. This is the persistent result store's key
/// (exec::ResultStore): equal digests certify "the simulator would be
/// handed bit-identical inputs".
std::uint64_t simulation_digest(std::string_view kernel_name,
                                const workloads::CodegenOptions& opts,
                                const cpu::SystemConfig& config);

/// Same key space for externally captured traces (the CLI's --trace-in):
/// kernel identity is replaced by a content digest over every trace op and
/// its store payload.
std::uint64_t simulation_digest(const cpu::DecodedTrace& trace,
                                const cpu::SystemConfig& config);

/// One grid point of an experiment: a full system configuration plus the
/// codegen options the kernels are compiled with.
struct SuiteJob {
  cpu::SystemConfig config;
  workloads::CodegenOptions opts;
};

/// Runs every kernel under every job of the grid, fanning the
/// (job x kernel) points across a worker pool sized by the process-wide
/// default (exec::default_jobs(); the benches' --jobs flag). Each config
/// is validated once up front and shared read-only by its jobs. Results
/// come back in deterministic input order — result[j][k] is jobs[j] on
/// kernels[k] — byte-identical to the historical serial loops.
///
/// Trace lifetime: run_grid owns the grid's traces. The points are issued
/// in windows of as many distinct (kernel, codegen) traces as the pool has
/// workers, j-major inside a window, so a window's first tasks load or
/// synthesize its traces in parallel (load_or_synthesize). The task that
/// finishes a trace's last point frees it, so about one window of traces
/// is resident at a time and each trace is loaded exactly once per grid
/// (again only after a load that threw). A point that throws or is skipped
/// keeps its trace until run_grid returns; no trace outlives the call.
///
/// When a persistent result store is active (exec::set_result_store; the
/// benches' --store=PATH flag), every point's digest is probed up front:
/// hits are filled into the deterministic result positions immediately
/// (bypassing trace generation and simulation; counted as memo_hits) and
/// only the misses become pool tasks (counted as
/// memo_misses), so a mostly-warm grid spends no pool time on already-known
/// results and a one-parameter edit recomputes only the dirty slice. Each
/// miss appends its record as its task completes. Warm results decode to
/// bit-identical RunStats, so figure outputs are byte-identical cold vs
/// warm at any --jobs. The store is refreshed before
/// probing, so records appended by concurrent processes sharing the file
/// count as hits too.
///
/// Each pool task checks the interrupt flag (exec::interrupted(); the
/// benches' SIGINT handler sets it), then the grid deadline
/// (exec::default_deadline(); the benches' --deadline flag), before it
/// starts: a point skipped by either keeps default RunStats and is counted
/// as cancelled or timed-out (skip-and-report). A throwing point rethrows
/// the lowest-index exception once every point has run. After an
/// interrupt the points in flight finish and persist, then run_grid throws
/// exec::Interrupted, so re-running the same grid completes only the
/// missing ones. Without an interrupt or a deadline output stays
/// byte-identical.
std::vector<std::vector<sim::RunStats>> run_grid(
    const std::vector<workloads::Kernel>& kernels,
    const std::vector<SuiteJob>& jobs);

/// Convenience: a SystemConfig for an organization with paper defaults.
cpu::SystemConfig make_config(cpu::Dl1Organization org);

/// The kernels to evaluate: the full suite, or the named subset
/// (used to keep unit/integration tests fast).
std::vector<workloads::Kernel> select_kernels(
    const std::vector<std::string>& names);

/// DL1 energy for one run under technology `t` (array accesses + leakage).
tech::EnergyBreakdown dl1_energy(const sim::RunStats& stats,
                                 const tech::TechnologyParams& t,
                                 double clock_ghz = 1.0);

}  // namespace sttsim::experiments
