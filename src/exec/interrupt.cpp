#include "sttsim/exec/interrupt.hpp"

#include <atomic>

#include <signal.h>

namespace sttsim::exec {
namespace {

// Namespace-scope atomics are constant-initialized, so the handler never
// runs a lazy construction.
std::atomic<bool> g_interrupted{false};
static_assert(std::atomic<bool>::is_always_lock_free);

std::atomic<double> g_default_deadline{0.0};

void interrupt_handler(int) { request_interrupt(); }

}  // namespace

bool interrupted() { return g_interrupted.load(std::memory_order_acquire); }

void request_interrupt() {
  g_interrupted.store(true, std::memory_order_release);
}

void clear_interrupt() {
  g_interrupted.store(false, std::memory_order_release);
}

void install_interrupt_handler() {
  struct sigaction sa;
  sigemptyset(&sa.sa_mask);
  sa.sa_handler = interrupt_handler;
  // First Ctrl-C requests a graceful drain; the handler then resets so a
  // second Ctrl-C falls through to the default (kill) disposition.
  sa.sa_flags = SA_RESETHAND;
  sigaction(SIGINT, &sa, nullptr);
}

void set_default_deadline(double seconds) {
  g_default_deadline.store(seconds);
}

double default_deadline() { return g_default_deadline.load(); }

}  // namespace sttsim::exec
