// Onboarding a custom workload: write your own trace generator with the
// Emitter/DataLayout API, compile it with and without the paper's Section V
// code transformations (CodegenOptions), and measure it across DL1
// organizations.
//
// The kernel here is a saxpy-with-gather, x[i] = a*x[i] + y[idx[i]]. The
// unit-stride stream over x goes through the Emitter's streaming helpers, so
// vectorization and software prefetching apply to it; the data-dependent
// gather from y stays one scalar load per element under any options.
//
//   $ ./examples/custom_kernel
#include <cstdio>

#include "sttsim/cpu/system.hpp"
#include "sttsim/util/rng.hpp"
#include "sttsim/workloads/data_layout.hpp"
#include "sttsim/workloads/emitter.hpp"

using namespace sttsim;

namespace {

cpu::DecodedTrace saxpy_gather(std::uint64_t n,
                               const workloads::CodegenOptions& opts) {
  workloads::DataLayout mem;
  const workloads::Vector x = mem.vector("x", n);
  const workloads::Vector y = mem.vector("y", n);
  workloads::Emitter em(opts);
  Rng rng(7);
  // `width` elements of x per iteration: 1 in scalar code, the vector width
  // when vectorizing (with a scalar epilogue for the remainder).
  const auto body = [&](std::uint64_t i, unsigned width) {
    em.loop_iter();
    em.stream_load(x.at(i), width);  // unit-stride
    for (unsigned k = 0; k < width; ++k) {
      em.load(y.at(rng.next_below(n)));  // data-dependent gather
    }
    em.flop(2);
    em.stream_store(x.at(i), width);
  };
  const unsigned w = em.width();
  em.loop_setup();
  std::uint64_t i = 0;
  for (; i + w <= n; i += w) body(i, w);
  for (; i < n; ++i) body(i, 1);
  return em.take_decoded();
}

double run(const cpu::DecodedTrace& trace, cpu::Dl1Organization org) {
  cpu::SystemConfig cfg;
  cfg.organization = org;
  cpu::System system(cfg);
  return static_cast<double>(system.run(trace).core.total_cycles);
}

}  // namespace

int main() {
  const cpu::DecodedTrace plain =
      saxpy_gather(100000, workloads::CodegenOptions::none());
  const cpu::DecodedTrace optimized =
      saxpy_gather(100000, workloads::CodegenOptions::all());
  std::printf("plain code    : %s\n", cpu::describe(plain).c_str());
  std::printf("optimized code: %s\n", cpu::describe(optimized).c_str());

  const double base = run(plain, cpu::Dl1Organization::kSramBaseline);
  std::printf("\n%-22s %12s %10s\n", "organization / code", "cycles",
              "penalty");
  const auto report = [&](const char* label, const cpu::DecodedTrace& t,
                          cpu::Dl1Organization org) {
    const double c = run(t, org);
    std::printf("%-22s %12.0f %+9.1f%%\n", label, c, (c - base) / base * 100);
  };
  report("sram / plain", plain, cpu::Dl1Organization::kSramBaseline);
  report("drop-in / plain", plain, cpu::Dl1Organization::kNvmDropIn);
  report("vwb / plain", plain, cpu::Dl1Organization::kNvmVwb);
  report("sram / optimized", optimized, cpu::Dl1Organization::kSramBaseline);
  report("vwb / optimized", optimized, cpu::Dl1Organization::kNvmVwb);
  return 0;
}
