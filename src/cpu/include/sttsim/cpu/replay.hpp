// The replay loop — the simulator's single-thread hot path and its only
// per-op interpreter of a trace against a DL1.
//
// The core is in-order and single-issue (ARM Cortex-A9-like, 1 GHz). Loads
// are blocking: the next instruction waits for the data (load-to-use
// distance of one, the conservative case for read latency). Stores retire
// through the DL1's store buffer and stall the core only when the buffer
// backs up. Prefetches issue in one cycle and never block. The instruction
// side (32 KB SRAM IL1, identical in every configuration) is folded into the
// exec stream. Every stall cycle is booked to its cause, so Fig. 4's
// read-vs-write split is measured rather than estimated.
//
// cpu::System instantiates replay() once per concrete organization class —
// PlainDl1System, VwbDl1System, NarrowFrontDl1System and the
// FaultyDl1System decorator, all `final` — so every member call below
// resolves statically and inlines. Classes that offer a single-granule
// load_single/store_single entry (the three undecorated ones) take it for
// the overwhelming majority of accesses, skipping the first/last-granule
// loop setup; any other Dl1System goes through load/store.
//
// `observe(index, issue, complete)` runs after every op. The fast path
// passes NoObserve and the compiler deletes the call and the `issue`
// bookkeeping; the differential oracle (src/check) passes a hook through
// System::run's observed overload, so it checks this very loop.
#pragma once

#include <concepts>
#include <cstddef>

#include "sttsim/core/dl1_system.hpp"
#include "sttsim/cpu/decoded_trace.hpp"
#include "sttsim/sim/stats.hpp"

namespace sttsim::cpu {

/// The fast path's observer: does nothing, costs nothing.
struct NoObserve {
  void operator()(std::size_t, sim::Cycle, sim::Cycle) const {}
};

/// Whether `Dl1` offers the single-granule entries the loop prefers.
template <class Dl1>
concept HasSingleGranuleEntry = requires(Dl1& d, Addr a, sim::Cycle now) {
  { d.granule_shift() } -> std::convertible_to<unsigned>;
  { d.load_single(a, now) } -> std::convertible_to<sim::Cycle>;
  { d.store_single(a, now) } -> std::convertible_to<sim::Cycle>;
};

/// Replays `trace` against `dl1` from cycle 0 without resetting it, and
/// returns the run's statistics (dl1's accumulated MemStats plus the
/// end-of-run wear snapshot).
template <class Dl1, class Observe = NoObserve>
sim::RunStats replay(const DecodedTrace& trace, Dl1& dl1,
                     Observe observe = {}) {
  constexpr bool kSingle = HasSingleGranuleEntry<Dl1>;
  unsigned shift = 0;
  if constexpr (kSingle) shift = dl1.granule_shift();
  // Locals throughout: the counters, the clock and the op cursor must stay
  // in registers across the loop, which they could not if every dl1 stats
  // write might alias them.
  sim::CoreStats core;
  sim::Cycle now = 0;
  const DecodedOp* const ops = trace.ops.data();
  const std::size_t n = trace.ops.size();
  for (std::size_t i = 0; i < n; ++i) {
    const DecodedOp& op = ops[i];
    const sim::Cycle issue = now;
    switch (op.kind) {
      case OpKind::kExec: {
        now += op.count;
        core.instructions += op.count;
        core.exec_cycles += op.count;
        break;
      }
      case OpKind::kLoad: {
        core.instructions += 1;
        core.mem_instructions += 1;
        const sim::Cycle issue_done = now + 1;
        sim::Cycle data;
        if constexpr (kSingle) {
          data = decoded_span(op, shift) == 1
                     ? dl1.load_single(op.addr, now)
                     : dl1.load(op.addr, op.size, now);
        } else {
          data = dl1.load(op.addr, op.size, now);
        }
        const sim::Cycle done = data > issue_done ? data : issue_done;
        core.read_stall_cycles += done - issue_done;
        core.exec_cycles += 1;  // the issue cycle itself
        now = done;
        break;
      }
      case OpKind::kStore: {
        core.instructions += 1;
        core.mem_instructions += 1;
        const sim::Cycle issue_done = now + 1;
        sim::Cycle accepted;
        if constexpr (kSingle) {
          accepted = decoded_span(op, shift) == 1
                         ? dl1.store_single(op.addr, now)
                         : dl1.store(op.addr, op.size, now);
        } else {
          accepted = dl1.store(op.addr, op.size, now);
        }
        const sim::Cycle done = accepted > issue_done ? accepted : issue_done;
        core.write_stall_cycles += done - issue_done;
        core.exec_cycles += 1;
        now = done;
        break;
      }
      case OpKind::kPrefetch: {
        core.instructions += 1;
        dl1.prefetch(op.addr, now);
        core.exec_cycles += 1;
        now += 1;
        break;
      }
    }
    observe(i, issue, now);
  }
  core.total_cycles = now;
  sim::RunStats out;
  out.core = core;
  out.mem = dl1.stats();
  ::sttsim::core::finalize_wear(out.mem, dl1.array());
  return out;
}

}  // namespace sttsim::cpu
