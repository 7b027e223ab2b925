// Campaign interruption for the experiment engine: a process-wide interrupt
// flag that the SIGINT handler sets, and a process-wide wall-clock budget
// per grid (the benches' --deadline flag).
//
// Both are checked by each grid task before it starts (run_grid): a point
// that has not started when the flag is set or the budget is spent is
// skipped and reported, its result slot keeps default RunStats, and the
// points already running finish and persist their records. An interrupted
// grid then throws Interrupted, so a re-run against the same result store
// completes only the missing points.
#pragma once

#include <stdexcept>

namespace sttsim::exec {

/// True once SIGINT (or request_interrupt) asked the process to stop.
bool interrupted();

/// Sets the interrupt flag. Async-signal-safe (one lock-free atomic store),
/// so the SIGINT handler calls it directly.
void request_interrupt();

/// Clears the flag (tests; a real SIGINT is sticky for the process).
void clear_interrupt();

/// Installs a SIGINT handler that calls request_interrupt() and then resets
/// itself (SA_RESETHAND): the first Ctrl-C requests a graceful drain, a
/// second one kills the process the old-fashioned way. Idempotent.
void install_interrupt_handler();

/// Thrown by a campaign that drained after an interrupt.
class Interrupted : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Process-wide wall-clock budget of each grid, in seconds from the grid's
/// start; 0 (the default) means none. This is what --deadline sets.
void set_default_deadline(double seconds);
double default_deadline();

}  // namespace sttsim::exec
