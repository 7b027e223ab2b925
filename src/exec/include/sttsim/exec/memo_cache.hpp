// Concurrency-safe memoization: a shared_mutex-guarded map whose values
// are produced by a per-key once-latch, so each value is generated exactly
// once even when many jobs request the same key simultaneously (the other
// requesters block on the latch, not on the map lock, so unrelated keys
// generate in parallel).
//
// Values are shared: get_or_generate hands out a shared_ptr, and drop()
// only forgets the cache's own reference, so a value lives until its last
// holder lets go. A caller that is done with a key can free its memory
// without knowing who else is still using it.
//
// experiments::TraceCache instantiates this for (kernel, codegen) ->
// DecodedTrace; the template itself is simulator-agnostic so the
// ThreadSanitizer test target can exercise it without linking the
// simulation libraries.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <utility>

namespace sttsim::exec {

template <typename Key, typename Value, typename Compare = std::less<>>
class ConcurrentMemoCache {
 public:
  using Handle = std::shared_ptr<const Value>;

  /// Returns the value for `lookup`, generating it with `gen()` on first
  /// use (or first use after a drop()). `lookup` may be a cheap view type
  /// (heterogeneous comparison via a transparent `Compare`); `make_key()`
  /// materializes the owning Key only on the insertion path, so cache hits
  /// allocate nothing. If `gen` throws, the entry stays ungenerated and the
  /// next requester retries.
  template <typename LookupKey, typename MakeKey, typename Generator>
  Handle get_or_generate(const LookupKey& lookup, MakeKey&& make_key,
                         Generator&& gen) {
    // Requesters hold the entry itself, not a map iterator, so a
    // concurrent drop() can erase the map node without pulling the latch
    // out from under a waiter.
    std::shared_ptr<Entry> entry;
    {
      std::shared_lock<std::shared_mutex> read(mu_);
      const auto it = map_.find(lookup);
      if (it != map_.end()) entry = it->second;
    }
    if (entry == nullptr) {
      std::unique_lock<std::shared_mutex> write(mu_);
      std::shared_ptr<Entry>& slot = map_[std::forward<MakeKey>(make_key)()];
      if (slot == nullptr) slot = std::make_shared<Entry>();
      entry = slot;
    }
    // Per-key latch (explicit mutex/condvar rather than std::call_once,
    // whose exceptional path is not ThreadSanitizer-clean in libstdc++).
    std::unique_lock<std::mutex> lock(entry->mu);
    while (true) {
      if (entry->value != nullptr) return entry->value;
      if (!entry->generating) break;
      entry->done.wait(lock);
    }
    entry->generating = true;
    lock.unlock();
    Handle value;
    try {
      value = std::make_shared<const Value>(gen());
    } catch (...) {
      lock.lock();
      entry->generating = false;  // let the next requester retry
      entry->done.notify_all();
      throw;
    }
    lock.lock();
    entry->value = value;
    entry->generating = false;
    generated_.fetch_add(1, std::memory_order_relaxed);
    entry->done.notify_all();
    return value;
  }

  /// Forgets the value cached under `lookup`, if any. Holders of a Handle
  /// keep theirs alive; the next get_or_generate for the key regenerates.
  /// A generation in flight completes for the requesters already waiting
  /// on it.
  template <typename LookupKey>
  void drop(const LookupKey& lookup) {
    std::shared_ptr<Entry> entry;  // released after the map lock
    std::unique_lock<std::shared_mutex> write(mu_);
    const auto it = map_.find(lookup);
    if (it == map_.end()) return;
    entry = std::move(it->second);
    map_.erase(it);
  }

  /// Number of generations so far (drop() does not decrement it).
  std::size_t entries() const {
    return generated_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    std::mutex mu;
    std::condition_variable done;
    bool generating = false;
    Handle value;
  };

  mutable std::shared_mutex mu_;
  std::map<Key, std::shared_ptr<Entry>, Compare> map_;
  std::atomic<std::size_t> generated_{0};
};

}  // namespace sttsim::exec
