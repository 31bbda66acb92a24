// Thread-safe single-flight memo keyed by a 128-bit digest: the first caller
// of a key computes its value, concurrent callers of the same key wait for
// it, so no value is ever computed twice while its entry lives.
//
// Two uses: sweep::run's per-run memos (transpiled circuits, input
// fingerprints; unbounded, they die with the run) and sweep::Session's
// placement memo, which outlives runs and so is bounded — completed
// entries are evicted least-recently-used past a byte budget, in-flight
// ones never are. A compute that throws leaves no entry behind: callers
// already waiting on the key get the exception, later callers compute
// afresh, so one transient failure is never replayed to every later sweep.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <future>
#include <limits>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "util/hash.hpp"

namespace parallax::sweep {

/// One caller's hit/miss tallies over a (possibly shared) memo — each run
/// keeps its own, so runs sharing a memo never count each other's lookups.
struct MemoCounters {
  std::atomic<std::size_t> hits{0};
  std::atomic<std::size_t> misses{0};
};

template <typename V>
class Memo {
 public:
  /// Unbounded: every completed entry stays for the memo's lifetime.
  Memo() = default;
  /// Completed entries are evicted least-recently-used once their
  /// `bytes_of` sizes sum past `max_bytes`. The newest completed entry is
  /// always kept, like the cache store's memory tier.
  Memo(std::size_t max_bytes, std::function<std::size_t(const V&)> bytes_of)
      : max_bytes_(max_bytes), bytes_of_(std::move(bytes_of)) {}

  Memo(const Memo&) = delete;
  Memo& operator=(const Memo&) = delete;

  /// The value for `key`, computing it with `compute` on a miss, tallied
  /// in `counters` when given. The value is shared and immutable, so it
  /// outlives its entry's eviction.
  std::shared_ptr<const V> get(const util::Digest128& key,
                               const std::function<V()>& compute,
                               MemoCounters* counters = nullptr) {
    std::promise<std::shared_ptr<const V>> promise;
    std::shared_future<std::shared_ptr<const V>> pending;
    {
      std::lock_guard lock(mutex_);
      auto it = entries_.find(key);
      if (it != entries_.end()) {
        if (it->second.done) lru_.splice(lru_.begin(), lru_, it->second.lru);
        if (counters) counters->hits.fetch_add(1, std::memory_order_relaxed);
        pending = it->second.future;
      } else {
        entries_.emplace(key, Entry{promise.get_future().share()});
        if (counters) {
          counters->misses.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
    // Wait outside the lock: the owner needs it to publish.
    if (pending.valid()) return pending.get();

    std::shared_ptr<const V> value;
    try {
      value = std::make_shared<const V>(compute());
    } catch (...) {
      {
        std::lock_guard lock(mutex_);
        entries_.erase(key);
      }
      promise.set_exception(std::current_exception());
      throw;
    }
    {
      std::lock_guard lock(mutex_);
      Entry& entry = entries_.at(key);
      entry.done = true;
      entry.bytes = bytes_of_ ? bytes_of_(*value) : 0;
      bytes_ += entry.bytes;
      lru_.push_front(key);
      entry.lru = lru_.begin();
      while (bytes_ > max_bytes_ && lru_.size() > 1) {
        const auto victim = entries_.find(lru_.back());
        bytes_ -= victim->second.bytes;
        entries_.erase(victim);
        lru_.pop_back();
      }
    }
    promise.set_value(value);
    return value;
  }

  /// Completed entries currently held.
  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mutex_);
    return lru_.size();
  }

 private:
  struct Entry {
    std::shared_future<std::shared_ptr<const V>> future;
    bool done = false;
    std::size_t bytes = 0;
    /// Position in lru_; valid once done.
    typename std::list<util::Digest128>::iterator lru{};
  };

  mutable std::mutex mutex_;
  std::map<util::Digest128, Entry> entries_;
  /// Completed entries only; front = most recently used.
  std::list<util::Digest128> lru_;
  std::size_t bytes_ = 0;
  const std::size_t max_bytes_ = std::numeric_limits<std::size_t>::max();
  const std::function<std::size_t(const V&)> bytes_of_;
};

}  // namespace parallax::sweep
