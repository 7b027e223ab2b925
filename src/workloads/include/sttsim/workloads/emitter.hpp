// Trace emitter — the "compiler back end" of the workload generators.
//
// Kernels call high-level emission helpers; the active CodegenOptions decide
// how they lower:
//  * width()          — 1 without vectorization, vector_width with it;
//  * loop_iter()      — per-iteration index/branch overhead, reduced by the
//                       branch/alignment optimizations ("others");
//  * stream_load/store — unit-stride accesses that additionally drop a
//                       software-prefetch hint at each new DL1-line boundary
//                       when prefetching is enabled (the paper's manual
//                       intrinsics on "critical data and loop arrays").
//
// Consecutive exec cycles are merged into single trace ops to keep traces
// compact.
//
// Ops land in a cpu::DecodedTraceBuilder as packed 16-byte DecodedOps with
// granule spans precomputed; store payloads stay zero.
#pragma once

#include "sttsim/cpu/decoded_trace.hpp"
#include "sttsim/workloads/codegen.hpp"
#include "sttsim/workloads/data_layout.hpp"

namespace sttsim::workloads {

class Emitter {
 public:
  /// `stream_line_bytes` is the granularity at which streaming prefetches
  /// are dropped (one hint per new DL1 line entered; 64 B default).
  explicit Emitter(const CodegenOptions& opts,
                   std::uint64_t stream_line_bytes = 64);

  const CodegenOptions& options() const { return opts_; }

  /// Elements processed per (possibly vector) operation.
  unsigned width() const {
    return opts_.vectorize ? opts_.vector_width : 1;
  }

  /// `n` plain non-memory instructions.
  void exec(std::uint32_t n);

  /// Per-iteration loop overhead (index update, compare, branch).
  void loop_iter();

  /// Loop-entry overhead (trip-count setup, alignment checks).
  void loop_setup();

  /// `n` arithmetic operations (scalar or SIMD — one op either way).
  void flop(std::uint32_t n = 1);

  /// Random-access load/store of `n_elems` doubles.
  void load(Addr a, unsigned n_elems = 1);
  void store(Addr a, unsigned n_elems = 1);

  /// Unit-stride streaming access: same as load/store plus an automatic
  /// prefetch hint `prefetch_distance_bytes` ahead whenever the access is
  /// the first to touch its DL1 line.
  void stream_load(Addr a, unsigned n_elems = 1);
  void stream_store(Addr a, unsigned n_elems = 1);

  /// Explicit software prefetch (no-op unless prefetching is enabled).
  void prefetch(Addr a);

  /// Finishes emission and yields the trace.
  cpu::DecodedTrace take_decoded();

 private:
  void flush_exec();
  bool first_in_line(Addr a, unsigned bytes) const;

  CodegenOptions opts_;
  std::uint64_t stream_line_bytes_;
  cpu::DecodedTraceBuilder builder_;
  std::uint32_t pending_exec_ = 0;
};

}  // namespace sttsim::workloads
