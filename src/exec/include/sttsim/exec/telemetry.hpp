// Process-wide throughput counters for the experiment engine: how many
// simulations ran, how many trace operations they replayed, how many traces
// were generated (vs served from the trace store), and how long each cold
// phase — generate / decode / replay — took. Snapshot differences around a
// campaign give simulations/sec, trace-ops/sec and a per-phase breakdown
// (the campaign benchmark, campaignbench/, reports them).
#pragma once

#include <atomic>
#include <cstdint>

namespace sttsim::exec {

/// The engine's counters, declared once: TelemetrySnapshot holds them as
/// plain integers, Telemetry as atomics.
template <typename T>
struct TelemetryCounters {
  T simulations{};      ///< completed System::run calls
  T trace_ops{};        ///< trace operations replayed
  T traces_generated{}; ///< kernel traces generated (not hits)
  T memo_hits{};        ///< grid points served from the persistent result
                        ///< store
  T memo_misses{};      ///< grid points simulated because the store had no
                        ///< (valid) record
  T tasks_timed_out{};  ///< grid points skipped past their grid's deadline
  T tasks_cancelled{};  ///< grid points skipped after an interrupt
  T trace_store_hits{};   ///< traces decoded from the store
  T trace_store_misses{}; ///< store probes that regenerated
  T generate_ns{};      ///< wall ns synthesizing traces
  T decode_ns{};        ///< wall ns deserializing/decompressing stored
                        ///< traces (warm path)
  T replay_ns{};        ///< wall ns inside System::run
};

/// Calls `f` once per counter with that counter of every `c`, in
/// declaration order — the single field list behind snapshot(), reset()
/// and operator-.
template <typename F, typename... Counters>
void for_each_counter(F&& f, Counters&... c) {
  f(c.simulations...);
  f(c.trace_ops...);
  f(c.traces_generated...);
  f(c.memo_hits...);
  f(c.memo_misses...);
  f(c.tasks_timed_out...);
  f(c.tasks_cancelled...);
  f(c.trace_store_hits...);
  f(c.trace_store_misses...);
  f(c.generate_ns...);
  f(c.decode_ns...);
  f(c.replay_ns...);
}

using TelemetrySnapshot = TelemetryCounters<std::uint64_t>;

inline TelemetrySnapshot operator-(TelemetrySnapshot lhs,
                                   const TelemetrySnapshot& rhs) {
  for_each_counter([](std::uint64_t& l, std::uint64_t r) { l -= r; }, lhs,
                   rhs);
  return lhs;
}

/// Thread-safe global counters (atomics; cheap enough for per-run bumps).
class Telemetry {
 public:
  static Telemetry& instance();

  void count_simulation(std::uint64_t ops_replayed) {
    add(live_.simulations, 1);
    add(live_.trace_ops, ops_replayed);
  }
  void count_trace_generated() { add(live_.traces_generated, 1); }
  void count_memo_hit() { add(live_.memo_hits, 1); }
  void count_memo_miss() { add(live_.memo_misses, 1); }
  void count_task_timed_out() { add(live_.tasks_timed_out, 1); }
  void count_task_cancelled() { add(live_.tasks_cancelled, 1); }
  void count_trace_store_hit() { add(live_.trace_store_hits, 1); }
  void count_trace_store_miss() { add(live_.trace_store_misses, 1); }
  void count_generate_ns(std::uint64_t ns) { add(live_.generate_ns, ns); }
  void count_decode_ns(std::uint64_t ns) { add(live_.decode_ns, ns); }
  void count_replay_ns(std::uint64_t ns) { add(live_.replay_ns, ns); }

  TelemetrySnapshot snapshot() const {
    TelemetrySnapshot s;
    for_each_counter(
        [](std::uint64_t& out, const Counter& in) {
          out = in.load(std::memory_order_relaxed);
        },
        s, live_);
    return s;
  }

  void reset() {
    for_each_counter(
        [](Counter& c) { c.store(0, std::memory_order_relaxed); }, live_);
  }

 private:
  using Counter = std::atomic<std::uint64_t>;

  static void add(Counter& c, std::uint64_t n) {
    c.fetch_add(n, std::memory_order_relaxed);
  }

  TelemetryCounters<Counter> live_;
};

}  // namespace sttsim::exec
