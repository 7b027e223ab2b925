// Differential fuzz driver: runs a production cpu::System and the reference
// oracle (check/oracle.hpp) in lockstep over one trace, comparing after every
// op and once more at the end of the run. On divergence, a delta-debugging
// minimizer (ddmin) shrinks the trace to a 1-minimal reproducer that can be
// written out as a replayable artifact.
#pragma once

#include <cstdint>
#include <string>

#include "sttsim/check/oracle.hpp"
#include "sttsim/cpu/decoded_trace.hpp"
#include "sttsim/cpu/system.hpp"

namespace sttsim::check {

/// The first point at which the simulator and the oracle disagreed.
struct Divergence {
  bool diverged = false;
  std::size_t op_index = 0;  ///< index of the offending op in the trace
                             ///< (the trace length for end-of-run fields)
  std::string field;  ///< "cycle", a sim::MemStats or sim::CoreStats field
                      ///< name, or "shadow"
  std::uint64_t expected = 0;  ///< oracle-side value
  std::uint64_t observed = 0;  ///< simulator-side value
  std::string detail;          ///< one-line human-readable description
};

/// Runs `trace` through a freshly built cpu::System for `config` — the
/// same replay loop instantiation run_grid uses, via System::run's observed
/// overload — and through the reference oracle in lockstep. After every op
/// the completion cycle, every sim::MemStats counter and the data-content
/// shadow log are compared; after the last op, the core counters System
/// returned are compared with the oracle's own tally. The first mismatch is
/// returned. The oracle reads each op's kind, addr, size and count and each
/// store's payload, never the precomputed spans, so it stays independent of
/// the replay's fast-path geometry. `faults` injects deliberate oracle bugs
/// (checker-sensitivity tests).
Divergence run_differential(const cpu::SystemConfig& config,
                            const cpu::DecodedTrace& trace,
                            const OracleFaults& faults = {});

/// Result of delta-debugging minimization.
struct MinimizeResult {
  cpu::DecodedTrace trace;  ///< 1-minimal subsequence that still diverges
  Divergence divergence;  ///< the divergence the minimal trace triggers
  unsigned probes = 0;    ///< differential runs spent minimizing
};

/// ddmin: reduces `trace` to a 1-minimal subsequence that still diverges
/// under `config`/`faults`; each dropped op takes its store payload with
/// it. If the full trace does not diverge, returns it unchanged with
/// `divergence.diverged == false`.
MinimizeResult minimize_trace(const cpu::SystemConfig& config,
                              const cpu::DecodedTrace& trace,
                              const OracleFaults& faults = {});

/// Writes a replayable reproducer: `<dir>/<tag>.trace` (trace file,
/// cpu/trace_io.hpp) plus `<dir>/<tag>.txt` describing the
/// configuration, the divergence, and the replay command. Creates `dir` if
/// needed; returns the trace path.
std::string write_reproducer(const std::string& dir, const std::string& tag,
                             const cpu::SystemConfig& config,
                             const MinimizeResult& result);

}  // namespace sttsim::check
