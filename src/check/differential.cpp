#include "sttsim/check/differential.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <utility>

#include "sttsim/cpu/trace_io.hpp"
#include "sttsim/util/check.hpp"
#include "sttsim/util/text.hpp"

namespace sttsim::check {
namespace {

struct StatField {
  const char* name;
  std::uint64_t sim::MemStats::* member;
};

constexpr StatField kMemStatFields[] = {
    {"loads", &sim::MemStats::loads},
    {"stores", &sim::MemStats::stores},
    {"prefetches", &sim::MemStats::prefetches},
    {"front_hits", &sim::MemStats::front_hits},
    {"front_misses", &sim::MemStats::front_misses},
    {"front_store_hits", &sim::MemStats::front_store_hits},
    {"promotions", &sim::MemStats::promotions},
    {"front_writebacks", &sim::MemStats::front_writebacks},
    {"prefetch_hits", &sim::MemStats::prefetch_hits},
    {"l1_read_hits", &sim::MemStats::l1_read_hits},
    {"l1_write_hits", &sim::MemStats::l1_write_hits},
    {"l1_misses", &sim::MemStats::l1_misses},
    {"l1_writebacks", &sim::MemStats::l1_writebacks},
    {"l2_hits", &sim::MemStats::l2_hits},
    {"l2_misses", &sim::MemStats::l2_misses},
    {"l1_array_reads", &sim::MemStats::l1_array_reads},
    {"l1_array_writes", &sim::MemStats::l1_array_writes},
    {"l2_array_reads", &sim::MemStats::l2_array_reads},
    {"l2_array_writes", &sim::MemStats::l2_array_writes},
    {"bank_conflict_cycles", &sim::MemStats::bank_conflict_cycles},
    {"ecc_corrections", &sim::MemStats::ecc_corrections},
    {"ecc_refills", &sim::MemStats::ecc_refills},
    // The wear counters (l1_frame_writes_*) are deliberately absent: they
    // are end-of-run array snapshots, not part of the per-op contract.
};

struct CoreField {
  const char* name;
  std::uint64_t sim::CoreStats::* member;
};

/// The core counters the replay loop books, checked once at the end of the
/// run: a loop that charges a stall to the wrong counter keeps every
/// per-op completion cycle right.
constexpr CoreField kCoreStatFields[] = {
    {"instructions", &sim::CoreStats::instructions},
    {"mem_instructions", &sim::CoreStats::mem_instructions},
    {"exec_cycles", &sim::CoreStats::exec_cycles},
    {"read_stall_cycles", &sim::CoreStats::read_stall_cycles},
    {"write_stall_cycles", &sim::CoreStats::write_stall_cycles},
    {"total_cycles", &sim::CoreStats::total_cycles},
};

const char* kind_name(cpu::OpKind kind) {
  switch (kind) {
    case cpu::OpKind::kExec:
      return "exec";
    case cpu::OpKind::kLoad:
      return "load";
    case cpu::OpKind::kStore:
      return "store";
    case cpu::OpKind::kPrefetch:
      return "prefetch";
  }
  return "?";
}

std::size_t count_stores(const cpu::DecodedTrace& trace) {
  return static_cast<std::size_t>(std::count_if(
      trace.ops.begin(), trace.ops.end(),
      [](const cpu::DecodedOp& op) { return op.kind == cpu::OpKind::kStore; }));
}

}  // namespace

Divergence run_differential(const cpu::SystemConfig& config,
                            const cpu::DecodedTrace& trace,
                            const OracleFaults& faults) {
  STTSIM_CHECK(trace.store_values.empty() ||
               trace.store_values.size() == count_stores(trace));
  cpu::System system(config);
  std::unique_ptr<ReferenceDl1> oracle = make_reference_dl1(config, faults);

  Divergence div;
  const auto flag = [&](std::size_t index, const std::string& field,
                        std::uint64_t expected, std::uint64_t observed) {
    div.diverged = true;
    div.op_index = index;
    div.field = field;
    div.expected = expected;
    div.observed = observed;
    if (index < trace.size()) {
      const cpu::DecodedOp& op = trace.ops[index];
      div.detail = strprintf(
          "op #%zu (%s addr=0x%llx size=%u): %s oracle=%llu simulator=%llu",
          index, kind_name(op.kind), static_cast<unsigned long long>(op.addr),
          static_cast<unsigned>(op.size), field.c_str(),
          static_cast<unsigned long long>(expected),
          static_cast<unsigned long long>(observed));
    } else {
      div.detail = strprintf("end of run (%zu ops): %s oracle=%llu "
                             "simulator=%llu",
                             trace.size(), field.c_str(),
                             static_cast<unsigned long long>(expected),
                             static_cast<unsigned long long>(observed));
    }
  };

  // The oracle's own core: its clock and counters follow the timing rules
  // of DESIGN.md independently of the production loop.
  sim::CoreStats want;
  sim::Cycle now = 0;
  std::size_t store = 0;  // ordinal of the next store's payload
  const sim::RunStats got = system.run(
      trace, [&](const cpu::OpEvent& ev) {
        if (div.diverged) return;  // the oracle stops at the first divergence
        const cpu::DecodedOp& op = trace.ops[ev.index];
        const sim::Cycle issue_done = now + 1;
        switch (op.kind) {
          case cpu::OpKind::kExec:
            want.instructions += op.count;
            want.exec_cycles += op.count;
            now += op.count;
            break;
          case cpu::OpKind::kLoad: {
            want.instructions += 1;
            want.mem_instructions += 1;
            want.exec_cycles += 1;
            now = std::max<sim::Cycle>(issue_done,
                                       oracle->load(op.addr, op.size, now));
            want.read_stall_cycles += now - issue_done;
            break;
          }
          case cpu::OpKind::kStore: {
            want.instructions += 1;
            want.mem_instructions += 1;
            want.exec_cycles += 1;
            now = std::max<sim::Cycle>(
                issue_done, oracle->store(op.addr, op.size,
                                          trace.store_value(store++), now));
            want.write_stall_cycles += now - issue_done;
            break;
          }
          case cpu::OpKind::kPrefetch:
            want.instructions += 1;
            want.exec_cycles += 1;
            oracle->prefetch(op.addr, now);
            now = issue_done;
            break;
        }

        if (now != ev.complete) {
          flag(ev.index, "cycle", now, ev.complete);
          return;
        }
        const sim::MemStats& got_mem = system.dl1().stats();
        const sim::MemStats& want_mem = oracle->stats();
        for (const StatField& f : kMemStatFields) {
          if (got_mem.*(f.member) != want_mem.*(f.member)) {
            flag(ev.index, f.name, want_mem.*(f.member), got_mem.*(f.member));
            return;
          }
        }
        if (!oracle->shadow_violations().empty()) {
          const ShadowViolation& v = oracle->shadow_violations().front();
          flag(ev.index, "shadow", v.expected, v.observed);
          div.detail = strprintf(
              "op #%zu (%s addr=0x%llx size=%u): shadow at 0x%llx level=%s "
              "expected=0x%02x observed=0x%02x",
              ev.index, kind_name(op.kind),
              static_cast<unsigned long long>(op.addr),
              static_cast<unsigned>(op.size),
              static_cast<unsigned long long>(v.addr), v.level.c_str(),
              static_cast<unsigned>(v.expected),
              static_cast<unsigned>(v.observed));
        }
      });
  if (div.diverged) return div;

  want.total_cycles = now;
  for (const CoreField& f : kCoreStatFields) {
    if (got.core.*(f.member) != want.*(f.member)) {
      flag(trace.size(), f.name, want.*(f.member), got.core.*(f.member));
      return div;
    }
  }
  return div;
}

MinimizeResult minimize_trace(const cpu::SystemConfig& config,
                              const cpu::DecodedTrace& trace,
                              const OracleFaults& faults) {
  MinimizeResult result;
  result.trace = trace;
  result.divergence = run_differential(config, result.trace, faults);
  result.probes = 1;
  if (!result.divergence.diverged) return result;

  // Classic ddmin over op subsequences: try dropping ever-finer chunks,
  // keeping any candidate that still diverges.
  std::size_t n = 2;
  while (result.trace.size() >= 2) {
    const cpu::DecodedTrace& cur = result.trace;
    const std::size_t chunk = (cur.size() + n - 1) / n;
    bool reduced = false;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t lo = std::min(cur.size(), i * chunk);
      const std::size_t hi = std::min(cur.size(), lo + chunk);
      if (lo >= hi) break;
      // Drop ops [lo, hi) and, with a sidecar, the payloads of their stores.
      cpu::DecodedTrace candidate;
      candidate.ops.reserve(cur.size() - (hi - lo));
      std::size_t store = 0;
      for (std::size_t k = 0; k < cur.size(); ++k) {
        const bool is_store = cur.ops[k].kind == cpu::OpKind::kStore;
        const bool keep = k < lo || k >= hi;
        if (keep) candidate.ops.push_back(cur.ops[k]);
        if (is_store && keep && !cur.store_values.empty()) {
          candidate.store_values.push_back(cur.store_values[store]);
        }
        store += is_store;
      }
      if (candidate.empty()) continue;
      const Divergence d = run_differential(config, candidate, faults);
      result.probes += 1;
      if (d.diverged) {
        result.trace = std::move(candidate);
        result.divergence = d;
        n = std::max<std::size_t>(2, n - 1);
        reduced = true;
        break;
      }
    }
    if (!reduced) {
      if (n >= result.trace.size()) break;  // 1-minimal
      n = std::min(result.trace.size(), n * 2);
    }
  }
  return result;
}

std::string write_reproducer(const std::string& dir, const std::string& tag,
                             const cpu::SystemConfig& config,
                             const MinimizeResult& result) {
  std::filesystem::create_directories(dir);
  const std::string trace_path = dir + "/" + tag + ".trace";
  cpu::write_trace_file(trace_path, result.trace);

  std::ofstream txt(dir + "/" + tag + ".txt");
  txt << "sttsim differential reproducer\n"
      << "organization: " << cpu::to_string(config.organization) << "\n"
      << "vwb_total_kbit: " << config.vwb_total_kbit << "\n"
      << "nvm_banks: " << config.nvm_banks << "\n"
      << "mshr_entries: " << config.mshr_entries << "\n";
  if (config.faults_active()) {
    txt << "faults: seed=" << config.faults.seed
        << " ppm=" << config.faults.fail_ppm
        << " double_pct=" << config.faults.double_fault_pct << "\n"
        << "ecc: correction_cycles=" << config.ecc.correction_cycles
        << " refill_cycles=" << config.ecc.refill_cycles << "\n";
  }
  txt << "trace_ops: " << result.trace.size() << "\n"
      << "minimizer_probes: " << result.probes << "\n"
      << "divergence: " << result.divergence.detail << "\n"
      << "replay: sttsim_cli --check-oracle --trace-in=" << tag << ".trace"
      << " --org=" << cpu::to_string(config.organization);
  if (config.faults_active()) {
    txt << " --faults=" << config.faults.seed << ":" << config.faults.fail_ppm
        << ":" << config.faults.double_fault_pct
        << " --ecc=" << config.ecc.correction_cycles << ":"
        << config.ecc.refill_cycles;
  }
  txt << "\n";
  return trace_path;
}

}  // namespace sttsim::check
