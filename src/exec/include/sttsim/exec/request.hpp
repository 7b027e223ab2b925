// Resilient request lifecycle for the experiment engine: *what to run*
// (CampaignRequest: a task count plus priority, wall-clock deadline, and
// retry policy) separated from *how it runs* (RequestScheduler, which
// drives the existing ParallelExecutor with per-task cooperative
// cancellation, a deadline watchdog, and bounded retry with exponential
// backoff + deterministic jitter).
//
// Error taxonomy — every failure a task can suffer is one of four kinds:
//   * transient      — worth retrying (I/O hiccup, injected flake); retried
//                      up to RetryPolicy::max_retries with backoff.
//   * deterministic  — retrying would reproduce it (logic error, bad
//                      config); fails the task immediately. Any exception
//                      that is not a TaskError is classified deterministic.
//   * cancelled      — the task observed a cancellation request (SIGINT or
//                      an explicit CancellationSource::cancel).
//   * timeout        — the request's deadline passed; the watchdog tripped
//                      the request token and the task (running or not yet
//                      started) is reported timed-out, never wedged.
//
// Degradation contract: the scheduler NEVER wedges and NEVER loses the
// outcome of a task. Timed-out and cancelled tasks are skipped-and-reported
// (their result slot stays empty, telemetry counts them); failed tasks
// carry their exception for callers that want the historical
// abort-the-grid semantics. Cancellation is cooperative: a task that never
// checks its token delays completion but is still reported truthfully.
//
// The happy path is byte-identical to the pre-scheduler engine: with no
// deadline, no retries needed, and no faults injected, a jobs==1 run
// executes every task inline in submission order, exactly like
// ParallelExecutor::map always has.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "sttsim/exec/parallel_executor.hpp"
#include "sttsim/exec/telemetry.hpp"

namespace sttsim::exec {

// ---- Error taxonomy ---------------------------------------------------

enum class TaskErrorKind : std::uint8_t {
  kTransient,      ///< retry may succeed (backoff applies)
  kDeterministic,  ///< retry would reproduce the failure
  kCancelled,      ///< task observed a cancellation request
  kTimeout,        ///< the request deadline passed
};

const char* to_string(TaskErrorKind kind);

/// Structured task failure. Tasks (and the engine's fault hooks) throw
/// this to tell the scheduler *how* they failed; a plain std::exception is
/// treated as deterministic (retrying a logic error only wastes work).
class TaskError : public std::runtime_error {
 public:
  TaskError(TaskErrorKind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}
  TaskErrorKind kind() const { return kind_; }

 private:
  TaskErrorKind kind_;
};

// ---- Cooperative cancellation -----------------------------------------

namespace detail {
struct CancelState {
  std::atomic<bool> cancelled{false};
  // TaskErrorKind of the cancellation (kCancelled or kTimeout), valid once
  // `cancelled` is true. Written before the flag with release ordering.
  std::atomic<std::uint8_t> reason{
      static_cast<std::uint8_t>(TaskErrorKind::kCancelled)};
};
}  // namespace detail

/// Read-only handle a task polls to honor cancellation. Default-constructed
/// tokens are never cancelled. A token can observe up to two sources (its
/// request's source and the process-wide interrupt source); the first one
/// tripped supplies the reason.
class CancellationToken {
 public:
  CancellationToken() = default;

  bool cancelled() const {
    return (primary_ && primary_->cancelled.load(std::memory_order_acquire)) ||
           (secondary_ &&
            secondary_->cancelled.load(std::memory_order_acquire));
  }

  /// kCancelled / kTimeout of the source that tripped (kCancelled if none).
  TaskErrorKind reason() const;

  /// Throws TaskError(reason()) if cancellation was requested. Long-running
  /// tasks call this at convenient safepoints.
  void throw_if_cancelled() const;

 private:
  friend class CancellationSource;
  friend CancellationToken merge_tokens(const CancellationToken&,
                                        const CancellationToken&);
  std::shared_ptr<const detail::CancelState> primary_;
  std::shared_ptr<const detail::CancelState> secondary_;
};

/// Owner side of a cancellation request. cancel() is async-signal-safe
/// (atomics only), so the SIGINT handler may call it directly.
class CancellationSource {
 public:
  CancellationSource() : state_(std::make_shared<detail::CancelState>()) {}

  CancellationToken token() const;
  bool cancelled() const {
    return state_->cancelled.load(std::memory_order_acquire);
  }
  void cancel(TaskErrorKind reason = TaskErrorKind::kCancelled) {
    state_->reason.store(static_cast<std::uint8_t>(reason),
                         std::memory_order_release);
    state_->cancelled.store(true, std::memory_order_release);
  }
  /// Re-arms the source (tests; a real SIGINT is sticky for the process).
  void reset() { state_->cancelled.store(false, std::memory_order_release); }

 private:
  std::shared_ptr<detail::CancelState> state_;
};

/// Token observing both `a` and `b`.
CancellationToken merge_tokens(const CancellationToken& a,
                               const CancellationToken& b);

/// The process-wide interrupt source: tripped by the SIGINT handler (or by
/// tests). Every RequestScheduler task token observes it, so Ctrl-C drains
/// in-flight tasks instead of killing mid-append.
CancellationSource& interrupt_source();

/// Installs a SIGINT handler that trips interrupt_source() and then resets
/// itself (SA_RESETHAND): the first Ctrl-C requests a graceful drain, a
/// second one kills the process the old-fashioned way. Idempotent.
void install_interrupt_handler();

// ---- Retry policy ------------------------------------------------------

/// Bounded retry with exponential backoff and deterministic jitter. The
/// jitter is a pure function of (jitter_seed, task index, attempt) so two
/// runs of the same campaign back off identically — reproducibility
/// extends to the failure paths.
struct RetryPolicy {
  unsigned max_retries = 0;        ///< extra attempts after the first
  std::uint32_t base_delay_ms = 2; ///< backoff before retry #1
  double multiplier = 2.0;         ///< delay growth per retry
  std::uint32_t max_delay_ms = 250;
  std::uint64_t jitter_seed = 0x6a69747465720001ULL;

  /// Backoff before retry `attempt` (1-based) of task `task_index`:
  /// min(max_delay, base * multiplier^(attempt-1)) scaled by a
  /// deterministic jitter factor in [0.5, 1.0].
  std::chrono::milliseconds backoff(std::size_t task_index,
                                    unsigned attempt) const;
};

// ---- Requests ----------------------------------------------------------

/// What to run: a named campaign with scheduling metadata. The point list
/// itself is supplied to RequestScheduler::run as (count, fn) — the
/// request describes how those points should be treated.
struct CampaignRequest {
  std::string name = "campaign";
  int priority = 0;        ///< higher drains first when requests share a
                           ///< scheduler's pending queue
  double deadline_s = 0.0; ///< wall-clock budget from run() start; 0 = none
  RetryPolicy retry;
};

/// Process-wide request defaults (the CLIs' --deadline / --retries /
/// --request-priority flags). run_grid builds its request from these.
void set_default_request(const CampaignRequest& request);
CampaignRequest default_request();

// ---- Engine fault injection -------------------------------------------

/// Failure-injection harness for the engine itself — the execution-layer
/// sibling of reliability::FaultInjector. Seed-driven and per-task
/// deterministic: whether task i throws/stalls/slows is a pure function of
/// (seed, i), so retry/timeout/degradation paths are testable bit-for-bit,
/// including under ThreadSanitizer. All hooks run in the scheduler's task
/// wrapper, never inside simulation code.
struct TaskFaults {
  std::uint64_t seed = 0;
  std::uint32_t transient_ppm = 0;      ///< odds task throws kTransient
  unsigned transient_failures = 1;      ///< attempts that throw before success
  std::uint32_t deterministic_ppm = 0;  ///< odds task throws kDeterministic
  std::uint32_t stall_ppm = 0;   ///< odds task stalls until cancelled
  std::uint32_t slow_ppm = 0;    ///< odds task sleeps slow_ms first
  std::uint32_t slow_ms = 0;
  /// Trip interrupt_source() after this many tasks complete (0 = never) —
  /// a deterministic stand-in for SIGINT mid-campaign.
  std::uint64_t interrupt_after_tasks = 0;

  bool hits(std::uint32_t ppm, std::size_t task, std::uint64_t salt) const;
  bool throws_transient(std::size_t task) const {
    return hits(transient_ppm, task, 1);
  }
  bool throws_deterministic(std::size_t task) const {
    return hits(deterministic_ppm, task, 2);
  }
  bool stalls(std::size_t task) const { return hits(stall_ppm, task, 3); }
  bool slows(std::size_t task) const { return hits(slow_ppm, task, 4); }
};

/// Installs (or clears, with nullopt) the process-wide engine faults.
void set_task_faults(const std::optional<TaskFaults>& faults);
std::optional<TaskFaults> task_faults();

// ---- Task outcomes -----------------------------------------------------

enum class TaskStatus : std::uint8_t { kOk, kFailed, kTimedOut, kCancelled };

const char* to_string(TaskStatus status);

struct TaskOutcome {
  TaskStatus status = TaskStatus::kOk;
  TaskErrorKind error_kind = TaskErrorKind::kDeterministic;
  unsigned attempts = 1;    ///< 1 = first try succeeded
  std::string error;        ///< what() of the final failure
  std::exception_ptr exception;  ///< set when status == kFailed
};

template <typename T>
struct TaskResult {
  std::optional<T> value;  ///< engaged iff outcome.status == kOk
  TaskOutcome outcome;
};

template <typename T>
struct RequestResult {
  std::vector<TaskResult<T>> tasks;
  bool interrupted = false;  ///< the interrupt source tripped mid-request
  std::size_t ok = 0;
  std::size_t failed = 0;
  std::size_t timed_out = 0;
  std::size_t cancelled = 0;
  std::size_t retries = 0;  ///< total retry attempts across all tasks
};

// ---- Scheduler ---------------------------------------------------------

namespace detail {

/// Pending task bodies ordered by (priority desc, enqueue order asc). The
/// scheduler submits one generic trampoline per body to the executor; each
/// trampoline pops the best pending body, so a high-priority request
/// enqueued later overtakes queued (not yet running) low-priority work.
class PriorityTaskQueue {
 public:
  void push(int priority, std::function<void()> body);
  /// Highest-priority, oldest body; empty function if none pending.
  std::function<void()> pop();
  std::size_t pending() const;

 private:
  struct Rank {
    int priority;
    std::uint64_t seq;
    bool operator<(const Rank& o) const {
      if (priority != o.priority) return priority > o.priority;
      return seq < o.seq;
    }
  };
  mutable std::mutex mu_;
  std::uint64_t next_seq_ = 0;
  std::map<Rank, std::function<void()>> pending_;
};

/// Shared per-request lifecycle state: the request's cancellation source
/// (tripped by the watchdog on deadline or by SIGINT via the interrupt
/// source), the absolute deadline plus the watchdog thread enforcing it,
/// and a snapshot of the engine faults.
struct Lifecycle {
  CampaignRequest request;
  CancellationSource source;
  CancellationToken token;  ///< merge of source and interrupt_source()
  std::optional<std::chrono::steady_clock::time_point> deadline;
  std::optional<TaskFaults> faults;
  std::atomic<std::uint64_t> completed{0};

  // Deadline watchdog: sleeps until the deadline (or until end_lifecycle
  // wakes it), then cancels `source` with kTimeout so running tasks drain
  // at their next safepoint and queued tasks are skipped-and-reported.
  std::thread watchdog;
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;  // guarded by mu
  // Bodies of THIS request that have finished. Needed because the pending
  // queue is shared: another request's trampoline may pop and run one of
  // our bodies, so our own futures completing does not mean our bodies
  // have — run() must wait for this count, or it would return (and free
  // the result vector) with a body still writing into it.
  std::size_t bodies_done = 0;  // guarded by mu

  bool past_deadline() const {
    return deadline && std::chrono::steady_clock::now() >= *deadline;
  }
};

}  // namespace detail

class RequestScheduler {
 public:
  /// `jobs == 0` uses default_jobs(), like ParallelExecutor.
  explicit RequestScheduler(unsigned jobs = 0) : pool_(jobs) {}

  unsigned jobs() const { return pool_.jobs(); }

  /// Runs `fn(0, token) .. fn(count-1, token)` under `request`'s lifecycle
  /// and returns every task's result and outcome in input order. Never
  /// throws for task-level failures — outcomes carry them (failed tasks
  /// keep their exception_ptr so callers can restore abort semantics).
  /// Thread-safe: concurrent run() calls share the pending queue, where
  /// priority decides who drains first.
  template <typename F>
  auto run(const CampaignRequest& request, std::size_t count, F&& fn)
      -> RequestResult<
          std::invoke_result_t<F&, std::size_t, const CancellationToken&>> {
    using R = std::invoke_result_t<F&, std::size_t, const CancellationToken&>;
    auto lifecycle = begin_lifecycle(request);
    RequestResult<R> result;
    result.tasks.resize(count);
    {
      std::vector<std::future<void>> futures;
      futures.reserve(count);
      for (std::size_t i = 0; i < count; ++i) {
        queue_.push(request.priority, [this, &lifecycle, &result, &fn, i] {
          TaskResult<R>& slot = result.tasks[i];
          slot.outcome =
              run_task(*lifecycle, i, [&](const CancellationToken& token) {
                slot.value.emplace(fn(i, token));
              });
          // Notify under the lock: once run() sees the last count it may
          // destroy the lifecycle, so no body may touch `cv` after
          // releasing `mu`.
          std::lock_guard<std::mutex> lock(lifecycle->mu);
          lifecycle->bodies_done += 1;
          lifecycle->cv.notify_all();
        });
        futures.push_back(pool_.submit([this] {
          if (std::function<void()> body = queue_.pop()) body();
        }));
      }
      for (auto& f : futures) f.get();
      // The futures cover this request's trampolines; with the queue shared
      // between requests, our bodies may have been run by someone else's
      // trampolines. Wait for every body of THIS request before touching
      // (or releasing) the result vector.
      std::unique_lock<std::mutex> lock(lifecycle->mu);
      lifecycle->cv.wait(lock,
                         [&] { return lifecycle->bodies_done == count; });
    }
    end_lifecycle(*lifecycle);
    result.interrupted = interrupt_source().cancelled();
    for (const TaskResult<R>& t : result.tasks) {
      result.retries += t.outcome.attempts - 1;
      switch (t.outcome.status) {
        case TaskStatus::kOk: ++result.ok; break;
        case TaskStatus::kFailed: ++result.failed; break;
        case TaskStatus::kTimedOut: ++result.timed_out; break;
        case TaskStatus::kCancelled: ++result.cancelled; break;
      }
    }
    return result;
  }

 private:
  std::unique_ptr<detail::Lifecycle> begin_lifecycle(
      const CampaignRequest& request);
  void end_lifecycle(detail::Lifecycle& lifecycle);

  /// One task's full lifecycle: pre-attempt cancellation/deadline gates,
  /// engine fault hooks, the attempt itself, and transient retry with
  /// token-aware backoff. Defined in request.cpp — the type-erased body
  /// keeps all policy code out of the template.
  TaskOutcome run_task(
      detail::Lifecycle& lifecycle, std::size_t index,
      const std::function<void(const CancellationToken&)>& attempt);

  ParallelExecutor pool_;
  detail::PriorityTaskQueue queue_;
};

}  // namespace sttsim::exec
