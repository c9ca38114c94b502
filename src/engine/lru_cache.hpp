// Byte-budgeted LRU cache of semi-local kernels, keyed by content hash.
//
// The cached value is a shared_ptr<const CachedKernel>: the kernel plus its
// lazily-attached QueryIndex. Eviction drops the cache's reference while
// in-flight queries keep theirs, so neither the kernel nor its index is ever
// freed under a reader. Capacity is a byte budget, not an entry count --
// kernels scale with m + n, and a serving cache mixing 1 kb and 1 Mb kernels
// needs to account for that. An entry is charged for its index *up front*
// (projected from the kernel order) whether or not the index is built yet,
// so the accounting never changes underneath the LRU. Plot strips and
// corpus upsert kernels are cached without an index and many never get
// one, so the charge -- and the stats' cache_bytes -- is a budget figure,
// not the bytes actually resident. Counters
// (hits / misses / evictions) feed the engine stats endpoint.
//
// Not internally synchronized: the owner (KernelStore) serializes access.
#pragma once

#include <atomic>
#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "core/kernel.hpp"
#include "core/kernel_codec.hpp"
#include "core/query_index.hpp"
#include "engine/key.hpp"

namespace semilocal {

/// Shared ownership handle for a bare kernel.
using KernelPtr = std::shared_ptr<const SemiLocalKernel>;

/// Approximate resident bytes of a bare kernel of this order: the two
/// permutation maps plus a fixed object overhead (index not included; see
/// CachedKernel).
std::size_t kernel_resident_bytes(Index order);

/// Projected cache charge of a *decoded* entry of this order: kernel plus
/// its (projected) query index. What a compressed entry would cost after
/// promotion -- the store's promotion-headroom check uses this.
std::size_t decoded_entry_bytes(Index order);

/// A cached kernel in one of two residency tiers.
///
/// Decoded tier: the kernel plus its shared immutable query index, built at
/// most once, in place via std::call_once, by the query that first needs it
/// (see wants_index()) -- on whichever thread answers that query (a
/// scheduler worker, when serving), never by a kernel job itself, and never
/// on the reactor: engine/query.hpp's non-blocking form refuses instead of
/// building. Plot strips and upsert kernels that are rarely queried never
/// build it. Once
/// built it is read lock-free: index_if_built() is a single acquire load.
///
/// Compressed tier (disk hits under format v3): the entry holds only the
/// validated CompressedKernel and is charged its compressed bytes, so the
/// LRU budget measures real memory and holds several times more pairs.
/// Queries stream individual blocks (engine/query.cpp routes them);
/// kernel() / index() still work -- they decode the whole kernel once, on
/// demand -- so explicit-API callers never see the tier. The cache charge
/// deliberately stays at the compressed size until the store *promotes* the
/// entry (replaces it with a decoded one) under its promotion policy.
///
/// Immutable from the readers' point of view, so one entry may serve any
/// number of connection threads concurrently.
class CachedKernel {
 public:
  explicit CachedKernel(KernelPtr kernel) : kernel_(std::move(kernel)) {}
  /// Compressed-resident entry. `decoded_blocks` (optional, shared so it
  /// survives the store) is bumped per block if a full decode happens.
  explicit CachedKernel(
      CompressedKernelPtr blob,
      std::shared_ptr<std::atomic<std::uint64_t>> decoded_blocks = nullptr)
      : blob_(std::move(blob)), decoded_blocks_(std::move(decoded_blocks)) {}
  CachedKernel(const CachedKernel&) = delete;
  CachedKernel& operator=(const CachedKernel&) = delete;

  [[nodiscard]] bool is_compressed() const { return blob_ != nullptr; }
  /// The compressed form, nullptr for decoded-tier entries.
  [[nodiscard]] const CompressedKernel* compressed() const { return blob_.get(); }

  /// Dimensions without forcing a decode.
  [[nodiscard]] Index m() const { return blob_ ? blob_->m() : kernel_->m(); }
  [[nodiscard]] Index n() const { return blob_ ? blob_->n() : kernel_->n(); }
  [[nodiscard]] Index order() const { return m() + n(); }

  /// The decoded kernel; for a compressed entry this decodes all blocks
  /// exactly once (thread-safe) and keeps the result for the entry's
  /// lifetime. The cache charge is not revisited -- promotion is the store's
  /// job.
  [[nodiscard]] const SemiLocalKernel& kernel() const { return *ensure_kernel(); }
  [[nodiscard]] const KernelPtr& kernel_ptr() const { return ensure_kernel(); }

  /// The query index, building it if this is the first call (thread-safe;
  /// concurrent callers block until the one build finishes). `builds`
  /// (optional) is incremented iff this call performed the build.
  const QueryIndex& index(std::atomic<std::uint64_t>* builds = nullptr) const {
    std::call_once(index_once_, [this, builds] {
      index_ = std::make_unique<const QueryIndex>(kernel());
      index_ready_.store(index_.get(), std::memory_order_release);
      if (builds) builds->fetch_add(1, std::memory_order_relaxed);
    });
    return *index_;
  }

  /// Lock-free peek: the index if already built, nullptr otherwise.
  [[nodiscard]] const QueryIndex* index_if_built() const {
    return index_ready_.load(std::memory_order_acquire);
  }

  /// One-window asks an entry scans before it builds its index: a build
  /// costs about this many scans (results/bench_query.json: build_s x
  /// scan_queries_per_s reads about 950 to 1250 at orders 2000 to 16000).
  static constexpr std::uint32_t kScansPerBuild = 1024;

  /// Records an ask of `windows` windows on this entry while its index is
  /// not built, and says whether the ask should build it. A batch of two
  /// or more windows builds at once. One-window asks scan until they have
  /// cost about one build -- the kScansPerBuild-th one builds -- the
  /// ski-rental rule: an entry asked few windows never pays for an index,
  /// and one asked many pays at most twice the optimum. Thread-safe: every
  /// ask from the threshold on wants the index, and index()'s call_once
  /// builds it once.
  bool wants_index(std::size_t windows) const {
    if (windows > 1) return true;
    return asks_.fetch_add(1, std::memory_order_relaxed) + 1 >= kScansPerBuild;
  }

  /// Cache-hit counter feeding the store's promotion threshold. Returns the
  /// new count.
  std::uint32_t touch() const {
    return find_hits_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Bytes this entry pins in the cache: compressed bytes for the
  /// compressed tier, kernel + (projected) index for the decoded tier.
  [[nodiscard]] std::size_t resident_bytes() const {
    if (blob_) return blob_->encoded_bytes() + 128;
    return decoded_entry_bytes(kernel_->order());
  }

 private:
  const KernelPtr& ensure_kernel() const {
    if (blob_) {
      std::call_once(kernel_once_, [this] {
        kernel_ = std::make_shared<const SemiLocalKernel>(
            blob_->decode(decoded_blocks_ ? decoded_blocks_.get() : nullptr));
      });
    }
    return kernel_;
  }

  CompressedKernelPtr blob_;
  std::shared_ptr<std::atomic<std::uint64_t>> decoded_blocks_;
  mutable std::once_flag kernel_once_;
  mutable KernelPtr kernel_;
  mutable std::atomic<std::uint32_t> find_hits_{0};
  mutable std::once_flag index_once_;
  mutable std::unique_ptr<const QueryIndex> index_;
  mutable std::atomic<const QueryIndex*> index_ready_{nullptr};
  mutable std::atomic<std::uint32_t> asks_{0};  ///< one-window asks while unindexed
};

/// Shared ownership handle the engine hands out for cached entries.
using CachedKernelPtr = std::shared_ptr<const CachedKernel>;

/// Counters exposed through EngineStats.
struct LruCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
  std::size_t bytes = 0;
  std::size_t budget_bytes = 0;
  std::size_t compressed_entries = 0;  ///< entries still in the compressed tier
  std::size_t compressed_bytes = 0;    ///< their share of `bytes`
};

class LruKernelCache {
 public:
  /// A zero budget disables caching (every get misses, puts are dropped).
  explicit LruKernelCache(std::size_t budget_bytes) : budget_(budget_bytes) {}

  /// Returns the cached entry and marks it most-recently-used, or nullptr.
  CachedKernelPtr get(const PairKey& key);

  /// Inserts (or refreshes) an entry, then evicts least-recently-used
  /// entries until the budget holds. An entry larger than the whole budget
  /// is not cached at all.
  void put(const PairKey& key, CachedKernelPtr entry);

  [[nodiscard]] LruCacheStats stats() const;

  /// Bytes held by decoded-tier entries; the store's promotion budget is a
  /// cap on this.
  [[nodiscard]] std::size_t decoded_bytes() const {
    return bytes_ - compressed_bytes_;
  }

 private:
  struct Entry {
    PairKey key;
    CachedKernelPtr value;
    std::size_t bytes = 0;
    bool compressed = false;
  };

  void evict_to_budget();

  std::size_t budget_;
  std::size_t bytes_ = 0;
  std::size_t compressed_bytes_ = 0;
  std::size_t compressed_entries_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<PairKey, std::list<Entry>::iterator, PairKeyHash> index_;
};

}  // namespace semilocal
