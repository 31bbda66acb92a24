// Two-tier content-addressed byte store behind the compilation cache: an
// in-memory LRU (bounded by bytes) in front of an on-disk directory of
// entries named by their 128-bit key, plus an append-only index file.
//
// Disk layout under `directory`:
//   objects/<hh>/<32-hex>.bin   one entry; <hh> = first two hex chars
//   index.log                   one line per store: "<32-hex> <kind> <bytes>"
//   tmp/                        staging for atomic writes
//
// Entry file format: the cache/envelope.hpp header (magic, payload version,
// kind, payload size, 64-bit payload checksum) followed by the payload.
// get() re-validates everything; a truncated file, a flipped byte, a
// version from a newer or older build, or a kind mismatch all degrade to a
// silent miss (and the bad file is unlinked best-effort) — never an
// exception to the caller.
//
// Concurrency: every operation is safe to call from the sweep driver's
// worker threads. The LRU/stats bookkeeping sits behind one mutex held only
// for map operations; file reads and writes run outside it, so worker
// threads' cache IO proceeds in parallel (the content address makes a
// doubly-read or doubly-written entry harmless — identical bytes). Across
// processes, object writes are write-to-tmp + rename (atomic on POSIX), so
// readers never observe a partial entry; the worst cross-process race is a
// duplicate index line, which the index reader dedups.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/hash.hpp"

namespace parallax::cache {

using util::Digest128;

/// Payload kinds; folded into the entry header so a key collision across
/// kinds (impossible by construction, cheap to double-check) misses.
enum class Kind : std::uint32_t {
  kPlacement = 1,
  kResult = 2,
};

[[nodiscard]] const char* to_string(Kind kind) noexcept;

/// Bump to retire every existing on-disk entry (serialization change).
/// v2: Layer::aod_moves joined the layer codec (per-layer movement-loss
/// accounting for the discrete-event simulator).
/// v3: option fingerprints feed every field unconditionally; entries keyed
/// under the old, ambiguous option bytes must never be read again.
inline constexpr std::uint32_t kPayloadVersion = 3;

struct StoreOptions {
  /// On-disk root; empty disables the disk tier (memory-only cache).
  std::string directory;
  /// Memory-tier budget; entries beyond it are evicted least-recently-used
  /// (they remain on disk). 0 disables the memory tier.
  std::size_t max_memory_bytes = 64ull << 20;
  /// Disk-tier budget (entry files including headers); 0 = unbounded.
  /// When exceeded, entries are evicted LRU-by-index-order: index.log
  /// append order is the recency order (a re-put moves an entry to the
  /// back), so the least-recently-written entry goes first. Evicted entries
  /// degrade to clean misses — exactly like an entry that was never
  /// written. This is what keeps long sharded campaigns from growing a
  /// shared cache directory without bound. The budget is enforced per
  /// process over its open-time snapshot plus its own writes: N concurrent
  /// writers can transiently overshoot toward N x budget, and the next
  /// budgeted open trims the directory back. Sequential shard runs (the
  /// common campaign shape) stay within budget throughout.
  std::uint64_t max_disk_bytes = 0;
};

struct StoreStats {
  std::size_t memory_hits = 0;
  std::size_t disk_hits = 0;
  std::size_t misses = 0;
  std::size_t stores = 0;
  std::size_t evictions = 0;
  /// Disk-tier entries evicted to honor max_disk_bytes.
  std::size_t disk_evictions = 0;
  /// Current disk-tier usage (tracked only when max_disk_bytes > 0).
  std::uint64_t disk_bytes = 0;
  /// Entries dropped because validation failed (truncation, checksum,
  /// version, kind).
  std::size_t corrupt = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t bytes_read = 0;
};

class Store {
 public:
  explicit Store(StoreOptions options);

  /// Payload bytes for `key`, or nullopt (absent or invalid).
  [[nodiscard]] std::optional<std::string> get(Kind kind, const Digest128& key);

  /// Stores a payload in both tiers. Overwrites are idempotent — the content
  /// address guarantees identical bytes.
  void put(Kind kind, const Digest128& key, const std::string& payload);

  [[nodiscard]] StoreStats stats() const;
  [[nodiscard]] const std::string& directory() const noexcept {
    return options_.directory;
  }
  [[nodiscard]] bool has_disk_tier() const noexcept {
    return !options_.directory.empty();
  }

  /// One row per distinct on-disk entry (from the index, falling back to a
  /// directory scan when the index is missing), existence-checked.
  struct IndexEntry {
    Digest128 key;
    Kind kind = Kind::kPlacement;
    std::uint64_t payload_bytes = 0;
  };
  [[nodiscard]] std::vector<IndexEntry> entries() const;

  /// Drops both tiers; returns the number of disk entries removed.
  std::size_t clear();

 private:
  struct MemKey {
    Kind kind;
    Digest128 key;
    friend auto operator<=>(const MemKey&, const MemKey&) noexcept = default;
  };
  using LruList = std::list<std::pair<MemKey, std::string>>;

  [[nodiscard]] std::string object_path(const Digest128& key) const;
  /// Lists object files by reading each header (32 bytes, never the
  /// payload) — the index-less fallback shared by entries() and
  /// load_disk_usage(). Scan order stands in for the lost recency order.
  [[nodiscard]] std::vector<IndexEntry> scan_objects() const;
  /// Inserts or replaces; replacement matters when a stale-but-checksummed
  /// payload was loaded before its entry was recomputed and re-put.
  void memory_insert_locked(const MemKey& key, const std::string& payload);

  /// Lock-free disk helpers: all shared state they touch is atomic or
  /// guarded separately; callers fold the returned accounting into stats_
  /// under the mutex.
  struct DiskRead {
    std::optional<std::string> payload;
    std::uint64_t bytes_read = 0;
    bool corrupt = false;
  };
  [[nodiscard]] DiskRead disk_read(Kind kind, const Digest128& key);
  struct DiskWrite {
    /// 0 when the write was skipped or failed.
    std::uint64_t bytes_written = 0;
    /// Entries unlinked to honor max_disk_bytes.
    std::size_t evictions = 0;
  };
  [[nodiscard]] DiskWrite disk_write(Kind kind, const Digest128& key,
                                     const std::string& payload);

  // --- disk budget tracking (only active when max_disk_bytes > 0) ------------
  struct DiskEntryInfo {
    Digest128 key;
    Kind kind = Kind::kPlacement;
    std::uint64_t file_bytes = 0;
  };
  /// Entries in index-append order (front = least recently written); the
  /// tracking members below are guarded by index_mutex_.
  using DiskList = std::list<DiskEntryInfo>;
  /// Rebuilds the tracking state from index.log (existence-checked), or
  /// from an object-directory scan when the index is missing — a budget
  /// must bound pre-existing files even if the user deleted the log.
  void load_disk_usage();
  /// Unlinks least-recently-written entries until within budget. Caller
  /// holds index_mutex_. Returns the number of evictions.
  std::size_t evict_over_budget_locked();
  /// Records/refreshes an entry and evicts front entries while over budget.
  /// Caller holds index_mutex_. Returns the number of evictions.
  std::size_t track_disk_entry_locked(const Digest128& key, Kind kind,
                                      std::uint64_t file_bytes);
  /// Forgets an entry whose file was dropped outside eviction (corruption).
  void untrack_disk_entry(const Digest128& key);
  /// Rewrites index.log from disk_order_ once dead lines (evicted or
  /// re-put entries) dominate, so a churning budgeted campaign keeps the
  /// log bounded too, not just the objects. Caller holds index_mutex_.
  void maybe_compact_index_locked();
  /// Unconditional index.log rewrite from disk_order_ (atomic
  /// write-to-tmp + rename, failures quietly keep the old log). Caller
  /// holds index_mutex_.
  void compact_index_locked();

  StoreOptions options_;
  mutable std::mutex mutex_;  // LRU + stats bookkeeping only, never IO
  LruList lru_;  // front = most recently used
  std::map<MemKey, LruList::iterator> by_key_;
  std::size_t memory_bytes_ = 0;
  std::atomic<std::uint64_t> tmp_counter_{0};
  mutable std::mutex index_mutex_;  // index.log appends + disk tracking
  DiskList disk_order_;
  std::map<Digest128, DiskList::iterator> disk_by_key_;
  std::uint64_t disk_bytes_ = 0;
  std::uint64_t stale_index_lines_ = 0;
  StoreStats stats_;
};

}  // namespace parallax::cache
