#include "sttsim/experiments/harness.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <limits>
#include <mutex>
#include <optional>
#include <tuple>
#include <type_traits>

#include "sttsim/cpu/decoded_trace.hpp"
#include "sttsim/cpu/trace_io.hpp"
#include "sttsim/exec/interrupt.hpp"
#include "sttsim/exec/parallel_executor.hpp"
#include "sttsim/exec/result_store.hpp"
#include "sttsim/exec/telemetry.hpp"
#include "sttsim/exec/trace_store.hpp"
#include "sttsim/util/check.hpp"
#include "sttsim/util/hash.hpp"

namespace sttsim::experiments {
namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

auto codegen_tuple(const workloads::CodegenOptions& o) {
  return std::make_tuple(o.vectorize, o.vector_width, o.prefetch,
                         o.prefetch_distance_bytes, o.branch_opts);
}

// ---- Simulation-input digests (persistent result-store keys) ----------
//
// Every field that can change what the simulator is handed is folded into
// the digest through the explicitly-encoded streaming hasher. Cosmetic
// fields (TechnologyParams::label) are deliberately excluded: they cannot
// change a single counter, so editing a label must not dirty a campaign.

void hash_codegen(util::Hash64& h, const workloads::CodegenOptions& o) {
  h.boolean(o.vectorize)
      .u32(o.vector_width)
      .boolean(o.prefetch)
      .u64(o.prefetch_distance_bytes)
      .boolean(o.branch_opts);
}

/// Folds one config field with the encoding its type implies: enums as one
/// byte, bools, doubles, and 32- or 64-bit integers.
struct HashField {
  util::Hash64& h;
  template <typename T>
  void operator()(const T& field) const {
    if constexpr (std::is_enum_v<T>) {
      h.u8(static_cast<std::uint8_t>(field));
    } else if constexpr (std::is_same_v<T, bool>) {
      h.boolean(field);
    } else if constexpr (std::is_same_v<T, double>) {
      h.f64(field);
    } else if constexpr (std::is_integral_v<T> && sizeof(T) == 4) {
      h.u32(field);
    } else {
      static_assert(std::is_integral_v<T> && sizeof(T) == 8,
                    "no digest encoding for this field type");
      h.u64(field);
    }
  }
};

void hash_system_config(util::Hash64& h, const cpu::SystemConfig& c) {
  for_each_config_field(c, HashField{h});
  // Reliability: keyed on faults_active(), not faults.enabled, and the
  // parameters are folded only when active, so editing (say) the fault
  // seed recomputes exactly the fault-injecting points.
  h.boolean(c.faults_active());
  if (c.faults_active()) for_each_fault_field(c, HashField{h});
}

/// Version preamble shared by both digest flavors: a record written under
/// any different hash/store/trace-format generation can never match.
util::Hash64 digest_base() {
  util::Hash64 h;
  h.u32(util::kHashVersion)
      .u32(exec::ResultStore::kSchemaVersion)
      .u32(cpu::kTraceFormatVersion);
  return h;
}

}  // namespace

std::uint64_t trace_digest(std::string_view kernel_name,
                           const workloads::CodegenOptions& opts) {
  // Own version preamble: trace blobs are keyed by everything that
  // determines their bytes and nothing else — system configuration does not
  // change a generated trace, so it is deliberately absent (one stored
  // trace serves every organization in a grid).
  util::Hash64 h;
  h.u32(util::kHashVersion)
      .u32(exec::TraceStore::kSchemaVersion)
      .u32(cpu::kTraceFormatVersion);
  h.u8(2);  // key flavor: generated-trace blob
  h.str(kernel_name);
  hash_codegen(h, opts);
  return h.digest();
}

std::uint64_t simulation_digest(std::string_view kernel_name,
                                const workloads::CodegenOptions& opts,
                                const cpu::SystemConfig& config) {
  util::Hash64 h = digest_base();
  h.u8(0);  // key flavor: named suite kernel
  h.str(kernel_name);
  hash_codegen(h, opts);
  hash_system_config(h, config);
  return h.digest();
}

std::uint64_t simulation_digest(const cpu::DecodedTrace& trace,
                                const cpu::SystemConfig& config) {
  util::Hash64 h = digest_base();
  h.u8(1);  // key flavor: external trace content
  h.u64(trace.size());
  // Every op field; payloads fold as the oracle reads them, so an empty
  // sidecar and an all-zero one key alike.
  std::size_t store = 0;
  for (const cpu::DecodedOp& op : trace.ops) {
    h.u8(static_cast<std::uint8_t>(op.kind))
        .u8(op.size)
        .u32(op.count)
        .u64(op.addr)
        .u8(op.span32)
        .u8(op.span64)
        .u64(op.kind == cpu::OpKind::kStore ? trace.store_value(store++) : 0);
  }
  hash_system_config(h, config);
  return h.digest();
}

double penalty_pct(const sim::RunStats& variant,
                   const sim::RunStats& baseline) {
  // A timed-out or cancelled grid point degrades to all-zero counters
  // (skip-and-report); its derived metric is "no data", not an invariant
  // violation. NaN prints as nan.
  if (baseline.core.total_cycles == 0 || variant.core.total_cycles == 0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  const double v = static_cast<double>(variant.core.total_cycles);
  const double b = static_cast<double>(baseline.core.total_cycles);
  return (v - b) / b * 100.0;
}

double gain_pct(const sim::RunStats& unoptimized,
                const sim::RunStats& optimized) {
  if (unoptimized.core.total_cycles == 0 || optimized.core.total_cycles == 0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  const double u = static_cast<double>(unoptimized.core.total_cycles);
  const double o = static_cast<double>(optimized.core.total_cycles);
  return (u - o) / u * 100.0;
}

cpu::DecodedTrace load_or_synthesize(const workloads::Kernel& kernel,
                                     const workloads::CodegenOptions& opts) {
  exec::Telemetry& telemetry = exec::Telemetry::instance();
  exec::TraceStore* tstore = exec::trace_store();
  if (tstore != nullptr) {
    // Warm path: decode the stored compressed blob — no synthesis.
    const std::uint64_t digest = trace_digest(kernel.name, opts);
    std::vector<std::uint8_t> blob;
    if (tstore->lookup(digest, blob)) {
      const std::uint64_t t0 = now_ns();
      cpu::CompressedTrace stored;
      try {
        if (cpu::deserialize_compressed(blob.data(), blob.size(), stored)) {
          cpu::DecodedTrace decoded = cpu::decompress(stored);
          telemetry.count_decode_ns(now_ns() - t0);
          telemetry.count_trace_store_hit();
          return decoded;
        }
      } catch (const cpu::TraceIoError&) {
        // decompress() rejected the stream.
      }
      // Malformed blob (the store's checksum only proves it is the blob
      // that was written): fall through and regenerate.
    }
    telemetry.count_trace_store_miss();
  }
  telemetry.count_trace_generated();
  const std::uint64_t t0 = now_ns();
  cpu::DecodedTrace decoded = kernel.generate_decoded(opts);
  telemetry.count_generate_ns(now_ns() - t0);
  if (tstore != nullptr) {
    const std::vector<std::uint8_t> blob =
        cpu::serialize_compressed(cpu::compress(decoded));
    tstore->append(trace_digest(kernel.name, opts), blob.data(), blob.size());
  }
  return decoded;
}

namespace {

/// One grid point still to simulate: jobs[j] on kernels[k]. `digest` is the
/// point's result-store key (0 and unused when no store is active); `trace`
/// numbers the grid's distinct (kernel, codegen) traces.
struct GridPoint {
  std::size_t j = 0;
  std::size_t k = 0;
  std::uint64_t digest = 0;
  std::size_t trace = 0;
};

/// Reorders j-major `points` into windows of `width` distinct traces: the
/// traces in order of first use, cut into groups of `width`, each group's
/// points still j-major. The pool starts a window by synthesizing its
/// traces in parallel and finishes one window's traces before it moves far
/// into the next, so only about `width` traces are alive at once.
void window_by_trace(std::vector<GridPoint>& points, std::size_t width,
                     std::size_t n_traces) {
  constexpr std::size_t kUnseen = static_cast<std::size_t>(-1);
  std::vector<std::size_t> rank(n_traces, kUnseen);
  std::size_t seen = 0;
  for (const GridPoint& p : points) {
    if (rank[p.trace] == kUnseen) rank[p.trace] = seen++;
  }
  std::stable_sort(points.begin(), points.end(),
                   [&](const GridPoint& a, const GridPoint& b) {
                     return rank[a.trace] / width < rank[b.trace] / width;
                   });
}

void store_append(exec::ResultStore* store, std::uint64_t digest,
                  const sim::RunStats& stats) {
  if (store == nullptr) return;
  std::uint8_t payload[sim::kRunStatsBytes];
  sim::encode_run_stats(stats, payload);
  store->append(digest, payload);
}

/// One distinct trace of a grid while its points run: loaded by the first
/// of them, shared read-only by the rest, and freed by the one that
/// completes the last.
struct TraceSlot {
  std::mutex mu;  // a plain mutex: std::call_once deadlocks under TSan
  std::optional<cpu::DecodedTrace> trace;
  std::size_t remaining = 0;  // points not yet completed
};

/// Runs `points` as one pool task each, in windows of as many traces as the
/// pool has workers (window_by_trace), and scatters results into out[j][k].
/// Completed misses append to the store from inside their task, so an
/// interrupted campaign keeps every point it finished.
///
/// The first point of a trace loads it under the trace's slot lock, so its
/// other points wait on that lock only; a load that throws leaves the slot
/// empty and the next point of the trace retries. The point that completes
/// a trace's last use frees it. A point that throws or is skipped never
/// counts down, so its trace stays loaded until the slots die with the
/// call.
///
/// Each task checks the interrupt flag, then the grid deadline, before it
/// starts: a point skipped by either keeps default RunStats and is counted
/// (skip-and-report). A throwing point aborts the grid with the
/// lowest-index exception once every point has run; an interrupt surfaces
/// as Interrupted after the points in flight have appended their records.
/// Returns the number of points replayed.
std::size_t run_points(const std::vector<workloads::Kernel>& kernels,
                       const std::vector<SuiteJob>& jobs,
                       std::vector<GridPoint> points, std::size_t n_traces,
                       exec::ResultStore* store,
                       std::vector<std::vector<sim::RunStats>>& out) {
  exec::ParallelExecutor pool;
  window_by_trace(points, pool.jobs(), n_traces);
  std::vector<TraceSlot> slots(n_traces);
  for (const GridPoint& p : points) ++slots[p.trace].remaining;
  std::atomic<std::size_t> replayed{0};
  exec::Telemetry& telemetry = exec::Telemetry::instance();
  const double budget_s = exec::default_deadline();
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(budget_s));
  const std::vector<sim::RunStats> results =
      pool.map(points.size(), [&](std::size_t i) {
        if (exec::interrupted()) {
          telemetry.count_task_cancelled();
          return sim::RunStats{};
        }
        if (budget_s > 0.0 && std::chrono::steady_clock::now() >= deadline) {
          telemetry.count_task_timed_out();
          return sim::RunStats{};
        }
        const GridPoint& p = points[i];
        const SuiteJob& job = jobs[p.j];
        TraceSlot& slot = slots[p.trace];
        {
          std::lock_guard<std::mutex> lock(slot.mu);
          if (!slot.trace) {
            slot.trace = load_or_synthesize(kernels[p.k], job.opts);
          }
        }
        // Loaded, and freed only once this point has counted down.
        const cpu::DecodedTrace& trace = *slot.trace;
        cpu::System system(job.config, cpu::System::kPrevalidated);
        const std::uint64_t t0 = now_ns();
        const sim::RunStats stats = system.run(trace);
        telemetry.count_replay_ns(now_ns() - t0);
        telemetry.count_simulation(trace.size());
        store_append(store, p.digest, stats);
        ++replayed;
        // The point is complete and nothing below can throw, so it counts
        // down exactly once.
        std::lock_guard<std::mutex> lock(slot.mu);
        if (--slot.remaining == 0) slot.trace.reset();
        return stats;
      });
  if (exec::interrupted()) {
    throw exec::Interrupted(
        "campaign interrupted: completed points are persisted; re-running "
        "the same grid completes only the missing ones");
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    out[points[i].j][points[i].k] = results[i];
  }
  return replayed;
}

}  // namespace

std::vector<std::vector<sim::RunStats>> run_grid(
    const std::vector<workloads::Kernel>& kernels,
    const std::vector<SuiteJob>& jobs) {
  // Validate each configuration once, here, instead of once per grid
  // point: the jobs then construct Systems on the pre-validated path.
  for (const SuiteJob& job : jobs) job.config.validate();
  const std::size_t n_kernels = kernels.size();

  // Probe the persistent result store (when active) for every point up
  // front: probes are cheap (a digest and a map lookup — no trace is
  // generated or decoded), hits land in their deterministic out[j][k]
  // positions immediately, and only the misses become pool tasks. Keeping
  // known results out of the task list eliminates head-of-line blocking on
  // a mostly-warm grid: the pool's whole width goes to the dirty slice.
  exec::ResultStore* store = exec::result_store();
  if (store != nullptr) {
    // Pick up records concurrent campaigns (other processes sharing this
    // store file) appended since our last scan, so their finished points
    // probe warm here instead of being re-simulated.
    store->refresh();
  }
  if (exec::TraceStore* tstore = exec::trace_store(); tstore != nullptr) {
    // Same for traces: blobs appended by concurrent campaigns sharing the
    // trace-store file serve this grid's misses without regeneration.
    tstore->refresh();
  }
  const exec::TelemetrySnapshot before = exec::Telemetry::instance().snapshot();
  std::vector<std::vector<sim::RunStats>> out(
      jobs.size(), std::vector<sim::RunStats>(n_kernels));
  // Jobs with equal codegen options replay the same traces: codegen[j] is
  // the first job with jobs[j]'s options, and trace numbers follow it.
  std::vector<std::size_t> codegen(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    codegen[j] = j;
    for (std::size_t i = 0; i < j; ++i) {
      if (codegen_tuple(jobs[i].opts) == codegen_tuple(jobs[j].opts)) {
        codegen[j] = codegen[i];
        break;
      }
    }
  }
  std::vector<GridPoint> points;
  points.reserve(jobs.size() * n_kernels);
  std::size_t hits = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    for (std::size_t k = 0; k < n_kernels; ++k) {
      GridPoint p{j, k, 0, codegen[j] * n_kernels + k};
      if (store != nullptr) {
        p.digest =
            simulation_digest(kernels[k].name, jobs[j].opts, jobs[j].config);
        std::uint8_t payload[sim::kRunStatsBytes];
        if (store->lookup(p.digest, payload)) {
          out[j][k] = sim::decode_run_stats(payload);
          exec::Telemetry::instance().count_memo_hit();
          ++hits;
          continue;
        }
        exec::Telemetry::instance().count_memo_miss();
      }
      points.push_back(p);
    }
  }

  const std::size_t simulated =
      points.empty() ? 0
                     : run_points(kernels, jobs, std::move(points),
                                  jobs.size() * n_kernels, store, out);
  // Skip tally for this grid (delta over the run). A grid that skipped
  // nothing prints exactly the historical line, byte for byte.
  const exec::TelemetrySnapshot delta =
      exec::Telemetry::instance().snapshot() - before;
  char skipped[64] = "";
  if (delta.tasks_timed_out != 0 || delta.tasks_cancelled != 0) {
    std::snprintf(skipped, sizeof skipped, ", %llu timed-out, %llu cancelled",
                  static_cast<unsigned long long>(delta.tasks_timed_out),
                  static_cast<unsigned long long>(delta.tasks_cancelled));
  }
  if (store != nullptr) {
    std::fprintf(
        stderr,
        "[sttsim] result store %s: %zu/%zu grid points warm, %zu simulated%s\n",
        store->path().c_str(), hits, jobs.size() * n_kernels, simulated,
        skipped);
  } else if (skipped[0] != '\0') {
    std::fprintf(stderr, "[sttsim] grid: %zu points%s\n",
                 jobs.size() * n_kernels, skipped);
  }
  return out;
}

cpu::SystemConfig make_config(cpu::Dl1Organization org) {
  cpu::SystemConfig c;
  c.organization = org;
  return c;
}

std::vector<workloads::Kernel> select_kernels(
    const std::vector<std::string>& names) {
  if (names.empty()) return workloads::polybench_suite();
  std::vector<workloads::Kernel> out;
  out.reserve(names.size());
  for (const std::string& n : names) {
    out.push_back(workloads::find_kernel(n));
  }
  return out;
}

tech::EnergyBreakdown dl1_energy(const sim::RunStats& stats,
                                 const tech::TechnologyParams& t,
                                 double clock_ghz) {
  tech::AccessCounts counts;
  counts.reads = stats.mem.l1_array_reads;
  counts.writes = stats.mem.l1_array_writes;
  return tech::compute_energy(t, counts, stats.core.total_cycles, clock_ghz);
}

}  // namespace sttsim::experiments
