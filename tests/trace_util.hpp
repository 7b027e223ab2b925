// Shared test utilities: hand-written traces, suite kernels at non-default
// sizes, and deterministic random trace generation.
//
// random_trace is used by the property ("fuzz") tests and the
// differential-oracle campaign so both exercise the same op mix: scalar
// loads/stores, 32-byte wide loads, 16-byte vector loads/stores, sub-word
// accesses at misaligned-within-line addresses, prefetch hints and exec
// bundles. Every store carries a nonzero deterministic payload
// (cpu::assign_store_values) so the data-content shadow can distinguish
// stale data from never-written data.
#pragma once

#include <initializer_list>

#include "sttsim/cpu/decoded_trace.hpp"
#include "sttsim/util/rng.hpp"
#include "sttsim/workloads/emitter.hpp"
#include "sttsim/workloads/kernels.hpp"

namespace sttsim::testutil {

/// One op of a hand-written trace (see trace_of).
struct Op {
  cpu::OpKind kind;
  Addr addr = 0;
  unsigned size = 0;
  std::uint32_t count = 1;
  std::uint64_t value = 0;  ///< store payload
};

inline Op ex(std::uint32_t count) {
  return {cpu::OpKind::kExec, 0, 0, count, 0};
}
inline Op ld(Addr addr, unsigned size) {
  return {cpu::OpKind::kLoad, addr, size, 1, 0};
}
inline Op st(Addr addr, unsigned size, std::uint64_t value = 0) {
  return {cpu::OpKind::kStore, addr, size, 1, value};
}
inline Op pf(Addr addr) { return {cpu::OpKind::kPrefetch, addr, 0, 1, 0}; }

/// Builds a trace from hand-written ops, e.g.
/// trace_of({ex(3), ld(0x100, 8), st(0x100, 8, 0xAA)}). The sidecar
/// stays empty unless some store carries a nonzero payload.
inline cpu::DecodedTrace trace_of(std::initializer_list<Op> ops) {
  cpu::DecodedTraceBuilder b;
  bool payloads = false;
  for (const Op& op : ops) {
    switch (op.kind) {
      case cpu::OpKind::kExec:
        b.exec(op.count);
        break;
      case cpu::OpKind::kLoad:
        b.load(op.addr, static_cast<std::uint8_t>(op.size));
        break;
      case cpu::OpKind::kStore:
        b.store(op.addr, static_cast<std::uint8_t>(op.size));
        payloads |= op.value != 0;
        break;
      case cpu::OpKind::kPrefetch:
        b.prefetch(op.addr);
        break;
    }
  }
  cpu::DecodedTrace t = b.take();
  if (payloads) {
    for (const Op& op : ops) {
      if (op.kind == cpu::OpKind::kStore) t.store_values.push_back(op.value);
    }
  }
  return t;
}

/// Runs a kernel body (workloads::X_into) at a non-default size:
/// kernel_trace(workloads::gemm_into, opts, 16, 16, 16).
template <typename Body, typename... Sizes>
cpu::DecodedTrace kernel_trace(Body body,
                               const workloads::CodegenOptions& opts,
                               Sizes... sizes) {
  workloads::Emitter em(opts);
  body(em, static_cast<std::uint64_t>(sizes)...);
  return em.take_decoded();
}

/// Deterministic random trace of `ops` operations over the address range
/// [0x10000, 0x10000 + region_bytes). Mix (percent): 24 scalar loads,
/// 8 vector (16 B) loads, 8 wide (32 B) loads, 10 misaligned sub-word loads,
/// 11 scalar stores, 7 vector (16 B) stores, 7 misaligned sub-word stores,
/// 10 prefetches, 15 exec bundles. Misaligned accesses stay inside one
/// 8-byte word, so they never straddle a cache line on any organization.
inline cpu::DecodedTrace random_trace(std::uint64_t seed, std::size_t ops,
                                      Addr region_bytes) {
  Rng rng(seed);
  cpu::DecodedTraceBuilder t;
  for (std::size_t i = 0; i < ops; ++i) {
    const std::uint64_t dice = rng.next_below(100);
    const Addr word = align_down(rng.next_below(region_bytes), 8) + 0x10000;
    if (dice < 40) {
      // Aligned loads: scalar (8 B), vector (16 B) and wide (32 B).
      t.load(word, dice < 8 ? 32 : (dice < 16 ? 16 : 8));
    } else if (dice < 50) {
      // Misaligned-within-line sub-word load (1/2/4 B at any offset that
      // keeps the access inside the 8-byte word).
      const unsigned size = 1u << rng.next_below(3);
      t.load(word + rng.next_below(9 - size),
             static_cast<std::uint8_t>(size));
    } else if (dice < 68) {
      t.store(word, dice < 57 ? 16 : 8);
    } else if (dice < 75) {
      const unsigned size = 1u << rng.next_below(3);
      t.store(word + rng.next_below(9 - size),
              static_cast<std::uint8_t>(size));
    } else if (dice < 85) {
      t.prefetch(word);
    } else {
      t.exec(1 + static_cast<std::uint32_t>(rng.next_below(6)));
    }
  }
  cpu::DecodedTrace trace = t.take();
  cpu::assign_store_values(trace, seed);
  return trace;
}

}  // namespace sttsim::testutil
