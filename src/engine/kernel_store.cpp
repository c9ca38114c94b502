#include "engine/kernel_store.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/kernel_codec.hpp"
#include "core/serialize.hpp"

namespace semilocal {
namespace {

/// Bound on entries tracked for persist retry; beyond it a failed write is
/// counted but the entry is immediately cache-only (no retry).
constexpr std::size_t kMaxPendingPersists = 256;

}  // namespace

KernelStore::KernelStore(KernelStoreOptions options)
    : options_(std::move(options)),
      env_(options_.env ? options_.env : &real_env()),
      cache_(options_.cache_bytes),
      blocks_decoded_(std::make_shared<std::atomic<std::uint64_t>>(0)) {
  if (options_.dir.empty()) return;
  env_->create_dirs(options_.dir);  // failure degrades to write failures later
  sweep_orphan_tmps();
}

std::string KernelStore::path_for(const PairKey& key) const {
  return options_.dir + "/" + key.hex() + ".slk";
}

void KernelStore::sweep_orphan_tmps() {
  // A writer that died between temp write and rename leaks `<key>.slk.tmpN`.
  // Those are invisible to readers (never renamed into place) but would
  // accumulate forever; remove them before serving. Every failure here is
  // ignorable -- an unswept orphan is a disk-space leak, not a correctness
  // problem.
  std::vector<std::string> names;
  try {
    names = env_->list_dir(options_.dir);
  } catch (const EnvError&) {
    return;
  }
  std::uint64_t swept = 0;
  for (const std::string& name : names) {
    if (name.find(".tmp") == std::string::npos) continue;
    try {
      env_->remove_file(options_.dir + "/" + name);
      ++swept;
    } catch (const EnvError&) {
    }
  }
  std::lock_guard lock(mutex_);
  tmp_swept_ += swept;
}

void KernelStore::quarantine(const std::string& path) {
  // Keep the poison for post-mortem inspection but make sure it is never
  // read again (and never blocks the recomputed kernel's rename). If the
  // move itself fails, fall back to deleting; if even that fails, the next
  // put() will simply rename a fresh kernel over it.
  bool moved = false;
  try {
    env_->rename_file(path, path + ".quarantined");
    moved = true;
  } catch (const EnvError&) {
    try {
      env_->remove_file(path);
      moved = true;
    } catch (const EnvError&) {
    }
  }
  std::lock_guard lock(mutex_);
  ++disk_errors_;
  if (moved) ++quarantined_;
}

bool KernelStore::decoded_tier_fits(Index order) const {
  const auto cap = static_cast<std::size_t>(
      options_.promoted_fraction * static_cast<double>(options_.cache_bytes));
  return cache_.decoded_bytes() + decoded_entry_bytes(order) <= cap;
}

CachedKernelPtr KernelStore::find(const PairKey& key) {
  CachedKernelPtr hot;
  {
    std::lock_guard lock(mutex_);
    if (CachedKernelPtr hit = cache_.get(key)) {
      if (!hit->is_compressed() || options_.promote_after_hits < 0) return hit;
      if (static_cast<int>(hit->touch()) < options_.promote_after_hits) {
        return hit;
      }
      // Hot enough to promote -- but only while the decoded tier has
      // headroom; a denied candidate keeps serving compressed (and will be
      // re-considered on its next hit).
      if (!decoded_tier_fits(hit->order())) return hit;
      hot = std::move(hit);
    }
  }
  if (hot) return promote(key, hot);
  if (options_.dir.empty()) return nullptr;
  return load_from_disk(key);
}

CachedKernelPtr KernelStore::promote(const PairKey& key,
                                     const CachedKernelPtr& entry) {
  // The full decode runs outside the lock (concurrent promoters of one key
  // are idempotent: last put wins, both produce the same kernel). The
  // compressed entry's lazy decode does the work and keeps serving in-flight
  // readers; the cache slot is then recharged at the decoded size.
  auto promoted = std::make_shared<const CachedKernel>(entry->kernel_ptr());
  std::lock_guard lock(mutex_);
  ++promotions_;
  cache_.put(key, promoted);
  return promoted;
}

CachedKernelPtr KernelStore::load_from_disk(const PairKey& key) {
  const std::string path = path_for(key);
  if (!env_->exists(path)) return nullptr;
  MappedFilePtr map;
  std::string owned;
  std::string_view bytes;
  // Zero-copy; a failed map falls back to read_file and bumps
  // mmap_fallbacks.
  try {
    map = env_->map_file(path);
    bytes = map->view();
  } catch (const EnvError&) {
    std::lock_guard lock(mutex_);
    ++mmap_fallbacks_;
  }
  if (!map) {
    try {
      owned = env_->read_file(path);
      bytes = owned;
    } catch (const EnvError&) {
      // Transient read failure: degrade to a miss (the caller recomputes)
      // but leave the file alone -- it may be perfectly healthy.
      std::lock_guard lock(mutex_);
      ++disk_errors_;
      return nullptr;
    }
  }
  // Cheap sanity check that the file really is the kernel of this pair's
  // lengths; a content-hash filename collision across sizes cannot happen
  // (lengths are part of the key), so a mismatch means a foreign file.
  // Corrupt and foreign files -- any file that is not v3 among them -- are
  // both quarantined.
  CachedKernelPtr entry;
  try {
    // open() validates every checksum up front, so a torn mapping is caught
    // here -- decoding later cannot fail on corruption.
    CompressedKernelPtr blob = map ? CompressedKernel::open(bytes, map)
                                   : CompressedKernel::open(std::move(owned));
    if (blob->m() != key.len_a || blob->n() != key.len_b) {
      throw std::runtime_error("kernel dimensions do not match the key");
    }
    entry = std::make_shared<const CachedKernel>(std::move(blob), blocks_decoded_);
  } catch (const std::exception&) {
    quarantine(path);
    return nullptr;
  }
  {
    std::lock_guard lock(mutex_);
    ++disk_hits_;
    // promote_after_hits == 0: promoted at the load itself, zero hits in,
    // under the same headroom check as a promotion on a cache hit.
    if (options_.promote_after_hits != 0 || !decoded_tier_fits(entry->order())) {
      ++compressed_loads_;
      cache_.put(key, entry);
      return entry;
    }
  }
  return promote(key, entry);
}

bool KernelStore::persist_one(const PairKey& key, const CachedKernel& entry) {
  const std::string path = path_for(key);
  std::string tmp;
  {
    // Unique temp name so concurrent writers of the same key can't
    // interleave into one file; the final rename is atomic within the
    // directory. The serial is per-store (not process-global) so temp names
    // -- and therefore fault traces -- are deterministic run-to-run.
    std::lock_guard lock(mutex_);
    tmp = path + ".tmp" + std::to_string(tmp_serial_++);
  }
  const std::string bytes = save_kernel_bytes(entry.kernel());
  try {
    env_->write_file(tmp, bytes);
    env_->rename_file(tmp, path);
  } catch (const EnvError&) {
    try {
      env_->remove_file(tmp);  // best-effort: a leak here is swept at restart
    } catch (const EnvError&) {
    }
    return false;
  }
  std::lock_guard lock(mutex_);
  bytes_on_disk_ += bytes.size();
  bytes_on_disk_raw_ += raw_kernel_bytes(entry.order());
  return true;
}

void KernelStore::put(const PairKey& key, CachedKernelPtr entry) {
  if (!entry) return;
  bool write_disk = false;
  {
    std::lock_guard lock(mutex_);
    cache_.put(key, entry);
    write_disk = options_.persist && !options_.dir.empty();
  }
  if (!write_disk) return;
  if (persist_one(key, *entry)) {
    std::lock_guard lock(mutex_);
    ++disk_writes_;
    pending_.erase(key);
    return;
  }
  // Degrade: the entry keeps serving from the cache; remember it (with a
  // retry budget) so retry_pending() can persist it once the fault clears.
  std::lock_guard lock(mutex_);
  ++write_failures_;
  if (options_.persist_retries <= 0) return;
  if (const auto it = pending_.find(key); it != pending_.end()) {
    it->second.entry = std::move(entry);  // keep the freshest pointer
    return;
  }
  if (pending_.size() >= kMaxPendingPersists) return;
  pending_.emplace(key,
                   PendingPersist{std::move(entry), options_.persist_retries});
}

std::size_t KernelStore::retry_pending() {
  std::lock_guard retry_lock(retry_mutex_);
  std::vector<std::pair<PairKey, CachedKernelPtr>> snapshot;
  {
    std::lock_guard lock(mutex_);
    if (pending_.empty()) return 0;
    snapshot.reserve(pending_.size());
    for (const auto& [key, p] : pending_) snapshot.emplace_back(key, p.entry);
  }
  std::size_t persisted = 0;
  for (const auto& [key, entry] : snapshot) {
    if (persist_one(key, *entry)) {
      ++persisted;
      std::lock_guard lock(mutex_);
      ++disk_writes_;
      pending_.erase(key);
    } else {
      std::lock_guard lock(mutex_);
      ++write_failures_;
      if (const auto it = pending_.find(key); it != pending_.end()) {
        if (--it->second.retries_left <= 0) pending_.erase(it);  // abandoned
      }
    }
  }
  return persisted;
}

bool KernelStore::on_disk(const PairKey& key) const {
  if (options_.dir.empty()) return false;
  return env_->exists(path_for(key));
}

KernelStoreStats KernelStore::stats() const {
  std::lock_guard lock(mutex_);
  return KernelStoreStats{
      .cache = cache_.stats(),
      .disk_hits = disk_hits_,
      .disk_errors = disk_errors_,
      .disk_writes = disk_writes_,
      .write_failures = write_failures_,
      .quarantined = quarantined_,
      .tmp_swept = tmp_swept_,
      .pending_persists = pending_.size(),
      .mmap_fallbacks = mmap_fallbacks_,
      .compressed_loads = compressed_loads_,
      .promotions = promotions_,
      .blocks_decoded = blocks_decoded_->load(std::memory_order_relaxed),
      .bytes_on_disk = bytes_on_disk_,
      .bytes_on_disk_raw = bytes_on_disk_raw_};
}

}  // namespace semilocal
