// Persistent kernel corpus with an in-memory LRU front.
//
// A store is a directory of content-addressed kernel files
// (`<pair-key-hex>.slk`, the core/serialize formats; v3 block-compressed by
// default) fronted by a byte-budgeted LRU cache with two residency tiers.
// Lookups probe the cache first, then the directory -- by default through a
// read-only mmap (falling back to a whole-file read if the map fails). A v3
// disk hit enters the cache *compressed-resident*, charged its compressed
// bytes, and serves queries by streaming blocks; once it takes
// promote_after_hits cache hits (and the decoded tier has headroom under
// promoted_fraction) the store promotes it to a fully-decoded kernel +
// index, charged in full. The budget therefore measures real memory, and a
// cold tail costs a fraction of what decoded kernels would -- several times
// more pairs stay resident per byte. Writes go through a temp-file + rename
// so a crashed or killed writer never leaves a torn kernel behind for a
// reader to choke on.
//
// All filesystem access goes through the injected Env (engine/env.hpp), and
// the store is built to *degrade, never fail* when that Env misbehaves:
//
//   * write failure (ENOSPC, torn temp file, failed rename) -> the entry
//     keeps serving from the cache, is marked non-persisted with a retry
//     budget, and retry_pending() re-attempts the persist later (the
//     scheduler calls it after every compute batch);
//   * read failure -> treated as a miss, the caller recomputes;
//   * corrupt or foreign file -> treated as a miss and *quarantined* (moved
//     to `<name>.quarantined`) so the poison is kept for inspection but
//     never re-read, and the recomputed kernel can land cleanly;
//   * orphaned `*.tmp*` files (a writer crashed between temp write and
//     rename) are swept on startup.
//
// The write_failures / quarantined / pending_persists counters make every
// one of those paths auditable through the engine stats endpoint.
//
// Thread-safe: one mutex serializes cache metadata, while serialization I/O
// happens outside the lock (the file an entry maps to is immutable once
// renamed into place).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "core/serialize.hpp"
#include "engine/env.hpp"
#include "engine/lru_cache.hpp"

namespace semilocal {

struct KernelStoreOptions {
  /// Directory of persisted kernels. Empty disables the disk tier (the
  /// store is then just the shared LRU cache).
  std::string dir;
  /// In-memory LRU budget.
  std::size_t cache_bytes = std::size_t{64} << 20;
  /// Persist kernels inserted via put() to the disk tier.
  bool persist = true;
  /// On-disk encoding for persisted kernels. Loads always auto-detect, so
  /// stores written under either format keep reading.
  KernelFormat format = KernelFormat::kV3Compressed;
  /// Cache hits a compressed-resident entry takes before the store promotes
  /// it to a fully-decoded kernel (+index). < 0 disables promotion; 0
  /// promotes on the first cache hit after the disk load.
  int promote_after_hits = 2;
  /// Cap on the decoded tier as a fraction of cache_bytes: promotion is
  /// denied (the entry keeps serving compressed) while decoded bytes plus
  /// the candidate would exceed it. 1.0 = the whole budget may decode.
  double promoted_fraction = 1.0;
  /// Re-attempts a failed persist gets (via retry_pending()) before the
  /// entry is abandoned as cache-only.
  int persist_retries = 3;
  /// Filesystem the store runs on. nullptr = real_env().
  Env* env = nullptr;
};

struct KernelStoreStats {
  LruCacheStats cache;
  std::uint64_t disk_hits = 0;        ///< found on disk after a cache miss
  std::uint64_t disk_errors = 0;      ///< unreadable/corrupt files (treated as misses)
  std::uint64_t disk_writes = 0;      ///< kernels successfully persisted
  std::uint64_t write_failures = 0;   ///< failed persist attempts (incl. retries)
  std::uint64_t quarantined = 0;      ///< corrupt files moved aside / removed
  std::uint64_t tmp_swept = 0;        ///< orphaned temp files removed at startup
  std::size_t pending_persists = 0;   ///< entries cached but not yet on disk
  std::uint64_t mmap_fallbacks = 0;   ///< map_file failures served via read_file
  std::uint64_t compressed_loads = 0; ///< disk hits kept compressed-resident
  std::uint64_t promotions = 0;       ///< compressed entries decoded + recharged
  std::uint64_t blocks_decoded = 0;   ///< v3 blocks decoded on store paths
  std::size_t bytes_on_disk = 0;      ///< sum of persisted kernel file sizes
  std::size_t bytes_on_disk_raw = 0;  ///< what v2-raw would have used

  /// Achieved on-disk compression vs the raw v2 encoding of the same
  /// kernels (1.0 when nothing was persisted or the store writes v2).
  [[nodiscard]] double compression_ratio() const {
    return bytes_on_disk == 0 ? 1.0
                              : static_cast<double>(bytes_on_disk_raw) /
                                    static_cast<double>(bytes_on_disk);
  }

  /// The store is degraded while any entry is cache-only pending a persist
  /// retry: serving is correct but a restart would lose those kernels.
  [[nodiscard]] bool degraded() const { return pending_persists > 0; }
};

class KernelStore {
 public:
  explicit KernelStore(KernelStoreOptions options);

  /// Cache, then disk. nullptr if the pair is in neither tier (including
  /// every disk failure mode: those degrade to a miss, never throw). v3
  /// disk hits come back compressed-resident (promoted to decoded entries
  /// once hot; see KernelStoreOptions); v2 hits come back decoded with no
  /// query index yet -- the index is rebuilt lazily on first query (it is
  /// never persisted).
  CachedKernelPtr find(const PairKey& key);

  /// Inserts into the cache and (if configured) persists the kernel to disk
  /// (the entry's query index, if any, stays in memory only). A persist
  /// failure marks the entry pending with a retry budget instead of
  /// throwing.
  void put(const PairKey& key, CachedKernelPtr entry);

  /// Re-attempts every pending persist once (each failure burns one retry;
  /// at zero the entry is abandoned as cache-only). Returns the number
  /// persisted. The scheduler calls this after each compute batch.
  std::size_t retry_pending();

  /// True iff the disk tier holds this key (cache not consulted).
  [[nodiscard]] bool on_disk(const PairKey& key) const;

  /// True iff puts are (configured to be) persisted to a disk tier.
  [[nodiscard]] bool persists() const {
    return options_.persist && !options_.dir.empty();
  }

  [[nodiscard]] KernelStoreStats stats() const;
  [[nodiscard]] const std::string& dir() const { return options_.dir; }

 private:
  struct PendingPersist {
    CachedKernelPtr entry;
    int retries_left = 0;
  };

  [[nodiscard]] std::string path_for(const PairKey& key) const;
  /// Serialize + temp write + rename. Returns true on success; failure
  /// cleans up the temp file best-effort and returns false.
  bool persist_one(const PairKey& key, const CachedKernel& entry);
  /// Moves a corrupt kernel file aside (or removes it if the move fails).
  void quarantine(const std::string& path);
  /// Startup recovery: removes `*.tmp*` orphans left by crashed writers.
  void sweep_orphan_tmps();
  /// Reads + parses the disk tier for `key` (cache not consulted): a
  /// compressed-resident entry for v3 files, a decoded one for v2. nullptr
  /// on any failure (counted, corrupt files quarantined).
  CachedKernelPtr load_from_disk(const PairKey& key);
  /// Decodes a hot compressed entry and replaces it in the cache with a
  /// decoded-tier entry (charged in full).
  CachedKernelPtr promote(const PairKey& key, const CachedKernelPtr& entry);

  KernelStoreOptions options_;
  Env* env_;
  mutable std::mutex mutex_;
  LruKernelCache cache_;
  std::unordered_map<PairKey, PendingPersist, PairKeyHash> pending_;
  std::mutex retry_mutex_;  ///< serializes retry_pending passes (I/O phase)
  /// Shared with compressed cache entries (which may outlive the store).
  std::shared_ptr<std::atomic<std::uint64_t>> blocks_decoded_;
  std::uint64_t disk_hits_ = 0;
  std::uint64_t disk_errors_ = 0;
  std::uint64_t disk_writes_ = 0;
  std::uint64_t write_failures_ = 0;
  std::uint64_t quarantined_ = 0;
  std::uint64_t tmp_swept_ = 0;
  std::uint64_t mmap_fallbacks_ = 0;
  std::uint64_t compressed_loads_ = 0;
  std::uint64_t promotions_ = 0;
  std::size_t bytes_on_disk_ = 0;
  std::size_t bytes_on_disk_raw_ = 0;
  std::uint64_t tmp_serial_ = 0;  ///< per-store, so temp names are deterministic
};

}  // namespace semilocal
