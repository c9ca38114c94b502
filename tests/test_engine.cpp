// Comparison-engine subsystem tests: LRU cache accounting and eviction
// order, kernel store disk tier, scheduler coalescing + backpressure
// (deterministic via workers = 0 + drain()), wire protocol round-trips, the
// thread-safe query layer against the brute-force oracle, the PairKey
// digest (known answers, bit sensitivity, near-duplicate DNA), and the
// acceptance end-to-end: a mixed repeated load must cost one computation per
// distinct pair -- asserted via the engine stats counters, not timing.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <latch>
#include <limits>
#include <memory>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bitlcs/encoding.hpp"
#include "core/api.hpp"
#include "engine/engine.hpp"
#include "engine/key.hpp"
#include "engine/protocol.hpp"
#include "oracles.hpp"
#include "scratch.hpp"
#include "util/random.hpp"

namespace semilocal {
namespace {

namespace fs = std::filesystem;
using testing::ScratchDir;

CachedKernelPtr make_entry(Index la, Index lb, std::uint64_t seed) {
  const auto a = testing::random_string(la, 4, seed * 2 + 1);
  const auto b = testing::random_string(lb, 4, seed * 2 + 2);
  return std::make_shared<const CachedKernel>(
      std::make_shared<const SemiLocalKernel>(semi_local_kernel(a, b)));
}

PairKey key_for(std::uint64_t seed) {
  const auto a = testing::random_string(16, 4, seed * 2 + 1);
  const auto b = testing::random_string(16, 4, seed * 2 + 2);
  return make_pair_key(a, b);
}

// ---------------------------------------------------------------------------
// PairKey digest: known answers, bit sensitivity, near-duplicate inputs.

/// Deterministic known-answer input: every third symbol cycles through the
/// edge values 0, 255, 256, -1, INT32_MIN and INT32_MAX; the others are a
/// multiplicative sequence that sets high bits too.
Sequence known_answer_input(std::size_t length) {
  static constexpr std::array<Symbol, 6> kEdges = {
      0, 255, 256, -1, std::numeric_limits<Symbol>::min(),
      std::numeric_limits<Symbol>::max()};
  Sequence s(length);
  for (std::size_t i = 0; i < length; ++i) {
    s[i] = i % 3 == 0 ? kEdges[(i / 3) % kEdges.size()]
                      : static_cast<Symbol>(static_cast<std::uint32_t>(i) * 2654435761U);
  }
  return s;
}

TEST(PairKey, DigestKnownAnswers) {
  // The digest names every kernel file on disk: changing any of these values
  // renames every content address and orphans every existing kernel store.
  // Lengths straddle the 8-symbol lane step and the 2-symbol word tail.
  struct Known {
    std::size_t length;
    std::uint64_t digest;
  };
  static constexpr std::array<Known, 11> kKnown = {{
      {0, 0xef46db3751d8e999ULL},
      {1, 0x3aefa6fd5cf2deb4ULL},
      {2, 0xb617e10f4a256a10ULL},
      {7, 0xc15ad9e27f2e88f1ULL},
      {8, 0x8da8f853b0c8f584ULL},
      {9, 0xced79472e5884782ULL},
      {15, 0x3ae43752cb6cfee1ULL},
      {16, 0x8e447a2563f5e763ULL},
      {17, 0x6eb04246292ecf0cULL},
      {64, 0x5d4d497eeeee5ec9ULL},
      {2000, 0x1b3091bdf2591c15ULL},
  }};
  for (const Known& k : kKnown) {
    EXPECT_EQ(sequence_digest(known_answer_input(k.length)), k.digest)
        << "length " << k.length;
  }
  const Sequence a = known_answer_input(17);
  const Sequence b = known_answer_input(9);
  const PairKey key = make_pair_key(a, b);
  EXPECT_EQ(key.hex(), "6eb04246292ecf0cced79472e5884782");
  EXPECT_EQ(key.len_a, 17);
  EXPECT_EQ(key.len_b, 9);
}

TEST(PairKey, EveryBitOfEverySymbolReachesTheDigest) {
  // 17 symbols: two full lane steps plus a one-symbol tail, so both the
  // lanes and the tail are covered.
  const Sequence base = testing::random_string(17, 1 << 30, 5);
  std::unordered_set<std::uint64_t> digests = {sequence_digest(base)};
  for (std::size_t i = 0; i < base.size(); ++i) {
    for (int bit = 0; bit < 32; ++bit) {
      Sequence flipped = base;
      flipped[i] = static_cast<Symbol>(static_cast<std::uint32_t>(flipped[i]) ^ (1U << bit));
      EXPECT_TRUE(digests.insert(sequence_digest(flipped)).second)
          << "symbol " << i << " bit " << bit;
    }
  }

  std::unordered_set<std::uint64_t> zeros;
  for (std::size_t length = 0; length <= 40; ++length) {
    EXPECT_TRUE(zeros.insert(sequence_digest(Sequence(length, 0))).second)
        << "all-zero length " << length;
  }
}

TEST(PairKey, NearDuplicateDnaStringsGetDistinctDigests) {
  // DNA is low-entropy and upserted versions differ by small edits: a weak
  // digest would collide here and serve one string's kernel for another.
  // Every digest is remembered with the edit that produced it; a repeat
  // must come from an identical string.
  const Sequence base = testing::random_string(2000, 4, 77);
  constexpr Index kPatch = 256;
  enum class Kind { kSubstitute, kInsert, kDelete, kPatch, kPrefix };
  struct Edit {
    Kind kind;
    std::size_t at;
    Symbol symbol;  // substituted/inserted symbol, or the patch's seed
  };
  const auto apply = [&](const Edit& e) {
    Sequence s = base;
    const auto at = static_cast<std::ptrdiff_t>(e.at);
    switch (e.kind) {
      case Kind::kSubstitute:
        s[e.at] = e.symbol;
        break;
      case Kind::kInsert:
        s.insert(s.begin() + at, e.symbol);
        break;
      case Kind::kDelete:
        s.erase(s.begin() + at);
        break;
      case Kind::kPatch: {
        const Sequence patch =
            testing::random_string(kPatch, 4, static_cast<std::uint64_t>(e.symbol));
        std::copy(patch.begin(), patch.end(), s.begin() + at);
        break;
      }
      case Kind::kPrefix:
        s.resize(e.at);
        break;
    }
    return s;
  };

  std::unordered_map<std::uint64_t, Edit> seen;
  std::size_t collisions = 0;
  const auto check = [&](const Edit& e) {
    const Sequence s = apply(e);
    const auto [it, fresh] = seen.emplace(sequence_digest(s), e);
    if (!fresh && apply(it->second) != s) ++collisions;
  };
  for (std::size_t i = 0; i < base.size(); ++i) {
    for (Symbol c = 0; c < 4; ++c) {
      if (c != base[i]) check({Kind::kSubstitute, i, c});
    }
    check({Kind::kDelete, i, 0});
  }
  for (std::size_t i = 0; i <= base.size(); ++i) {
    for (Symbol c = 0; c < 4; ++c) check({Kind::kInsert, i, c});
    check({Kind::kPrefix, i, 0});  // every truncation, the base included
  }
  for (std::size_t at = 0; at + kPatch <= base.size(); at += 3) {
    check({Kind::kPatch, at, static_cast<Symbol>(1000 + at)});
  }
  EXPECT_EQ(collisions, 0u);
  // Substitutions and patches each make a new string; so do insertions and
  // deletions up to runs of equal symbols -- the map must hold thousands.
  EXPECT_GT(seen.size(), 12000u);
}

TEST(LruCache, EvictsLeastRecentlyUsedFirst) {
  const CachedKernelPtr k0 = make_entry(16, 16, 0);
  const CachedKernelPtr k1 = make_entry(16, 16, 1);
  const CachedKernelPtr k2 = make_entry(16, 16, 2);
  const std::size_t each = k0->resident_bytes();
  // Budget fits exactly two equally-sized kernels.
  LruKernelCache cache(2 * each);
  cache.put(key_for(0), k0);
  cache.put(key_for(1), k1);
  // Touch k0 so k1 becomes the least recently used...
  ASSERT_NE(cache.get(key_for(0)), nullptr);
  // ...then inserting k2 must evict k1, not k0.
  cache.put(key_for(2), k2);
  EXPECT_NE(cache.get(key_for(0)), nullptr);
  EXPECT_EQ(cache.get(key_for(1)), nullptr);
  EXPECT_NE(cache.get(key_for(2)), nullptr);
  const LruCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_LE(stats.bytes, stats.budget_bytes);
}

TEST(LruCache, CountsHitsAndMisses) {
  LruKernelCache cache(std::size_t{1} << 20);
  EXPECT_EQ(cache.get(key_for(0)), nullptr);
  cache.put(key_for(0), make_entry(8, 8, 0));
  EXPECT_NE(cache.get(key_for(0)), nullptr);
  EXPECT_EQ(cache.get(key_for(1)), nullptr);
  const LruCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
}

TEST(LruCache, EntryLargerThanBudgetIsNotCached) {
  const CachedKernelPtr big = make_entry(64, 64, 0);
  LruKernelCache cache(big->resident_bytes() - 1);
  cache.put(key_for(0), big);
  EXPECT_EQ(cache.get(key_for(0)), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(LruCache, EvictionNeverFreesUnderAReader) {
  // A reader holding the entry pointer keeps it alive past eviction.
  LruKernelCache cache(std::size_t{1} << 10);
  CachedKernelPtr held;
  {
    const CachedKernelPtr k = make_entry(16, 16, 0);
    cache.put(key_for(0), k);
    held = cache.get(key_for(0));
    ASSERT_NE(held, nullptr);
  }
  for (std::uint64_t s = 1; s < 32; ++s) cache.put(key_for(s), make_entry(16, 16, s));
  EXPECT_EQ(cache.get(key_for(0)), nullptr);  // evicted from the cache...
  EXPECT_EQ(held->kernel().m(), 16);          // ...but still valid for the holder
}

TEST(KernelStore, DiskTierSurvivesProcessRestart) {
  ScratchDir dir("store_roundtrip");
  const auto a = testing::random_string(32, 4, 1);
  const auto b = testing::random_string(40, 4, 2);
  const PairKey key = make_pair_key(a, b);
  KernelStoreOptions options;
  options.dir = dir.str();
  {
    KernelStore store(options);
    store.put(key, std::make_shared<const CachedKernel>(
                       std::make_shared<const SemiLocalKernel>(semi_local_kernel(a, b))));
    EXPECT_EQ(store.stats().disk_writes, 1u);
    EXPECT_TRUE(store.on_disk(key));
  }
  // A fresh store (cold cache) over the same directory must load it back.
  KernelStore store(options);
  const CachedKernelPtr loaded = store.find(key);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->kernel().m(), 32);
  EXPECT_EQ(loaded->kernel().n(), 40);
  EXPECT_EQ(store.stats().disk_hits, 1u);
  // The disk hit was promoted: the next find is a pure cache hit.
  ASSERT_NE(store.find(key), nullptr);
  EXPECT_EQ(store.stats().cache.hits, 1u);
  EXPECT_EQ(store.stats().disk_hits, 1u);
}

TEST(KernelStore, DiskHitsComeBackCompressedAndPromoteWhenHot) {
  ScratchDir dir("store_tiers");
  const auto a = testing::random_string(600, 4, 3);
  const auto b = testing::random_string(640, 4, 4);
  const PairKey key = make_pair_key(a, b);
  KernelStoreOptions options;
  options.dir = dir.str();
  options.promote_after_hits = 2;
  {
    KernelStore warm(options);
    warm.put(key, std::make_shared<const CachedKernel>(
                      std::make_shared<const SemiLocalKernel>(semi_local_kernel(a, b))));
  }
  KernelStore store(options);
  const CachedKernelPtr loaded = store.find(key);
  ASSERT_NE(loaded, nullptr);
  // The v3 disk hit lands compressed-resident, charged far below the
  // decoded footprint, and still answers queries correctly by streaming.
  EXPECT_TRUE(loaded->is_compressed());
  EXPECT_EQ(store.stats().compressed_loads, 1u);
  EXPECT_EQ(store.stats().cache.compressed_entries, 1u);
  EXPECT_LT(store.stats().cache.compressed_bytes,
            kernel_resident_bytes(loaded->order()) / 2);
  QueryCounters counters;
  EXPECT_EQ(answer_query(*loaded, QueryKind::kLcs, 0, 0, /*use_index=*/true,
                         &counters),
            testing::lcs_oracle(a, b));
  EXPECT_EQ(counters.compressed.load(), 1u);
  EXPECT_GT(counters.blocks_decoded.load(), 0u);
  // Hits 1 and 2 keep serving compressed; hit 2 crosses the threshold and
  // the entry is promoted to the decoded tier.
  ASSERT_NE(store.find(key), nullptr);
  EXPECT_EQ(store.stats().promotions, 0u);
  const CachedKernelPtr hot = store.find(key);
  ASSERT_NE(hot, nullptr);
  EXPECT_FALSE(hot->is_compressed());
  EXPECT_EQ(store.stats().promotions, 1u);
  EXPECT_EQ(store.stats().cache.compressed_entries, 0u);
  EXPECT_GE(store.stats().cache.bytes, kernel_resident_bytes(hot->order()));
  EXPECT_GT(store.stats().blocks_decoded, 0u);  // the promotion's full decode
  // Promoted answers match the compressed-path answers.
  EXPECT_EQ(answer_query(*hot, QueryKind::kLcs, 0, 0, /*use_index=*/true),
            testing::lcs_oracle(a, b));
}

TEST(KernelStore, PromotionRespectsDecodedTierHeadroom) {
  ScratchDir dir("store_headroom");
  const auto a = testing::random_string(600, 4, 5);
  const auto b = testing::random_string(640, 4, 6);
  const PairKey key = make_pair_key(a, b);
  KernelStoreOptions options;
  options.dir = dir.str();
  options.promote_after_hits = 1;
  options.promoted_fraction = 0.0;  // no decoded-tier budget at all
  {
    KernelStore warm(options);
    warm.put(key, std::make_shared<const CachedKernel>(
                      std::make_shared<const SemiLocalKernel>(semi_local_kernel(a, b))));
  }
  KernelStore store(options);
  ASSERT_NE(store.find(key), nullptr);
  for (int hit = 0; hit < 4; ++hit) {
    const CachedKernelPtr entry = store.find(key);
    ASSERT_NE(entry, nullptr);
    EXPECT_TRUE(entry->is_compressed()) << "hit " << hit;
  }
  EXPECT_EQ(store.stats().promotions, 0u);
}

TEST(KernelStore, RawFormatOptionKeepsEntriesDecoded) {
  ScratchDir dir("store_v2_opt");
  const auto a = testing::random_string(50, 4, 7);
  const auto b = testing::random_string(44, 4, 8);
  const PairKey key = make_pair_key(a, b);
  KernelStoreOptions options;
  options.dir = dir.str();
  options.format = KernelFormat::kV2Raw;
  {
    KernelStore warm(options);
    warm.put(key, std::make_shared<const CachedKernel>(
                      std::make_shared<const SemiLocalKernel>(semi_local_kernel(a, b))));
  }
  KernelStore store(options);
  const CachedKernelPtr loaded = store.find(key);
  ASSERT_NE(loaded, nullptr);
  EXPECT_FALSE(loaded->is_compressed());
  EXPECT_EQ(store.stats().compressed_loads, 0u);
  EXPECT_DOUBLE_EQ(store.stats().compression_ratio(), 1.0);
}

TEST(KernelStore, CorruptFileIsAMissNotACrash) {
  ScratchDir dir("store_corrupt");
  const PairKey key = key_for(7);
  {
    std::ofstream out(fs::path(dir.str()) / (key.hex() + ".slk"), std::ios::binary);
    out << "this is not a kernel";
  }
  KernelStoreOptions options;
  options.dir = dir.str();
  KernelStore store(options);
  EXPECT_EQ(store.find(key), nullptr);
  EXPECT_EQ(store.stats().disk_errors, 1u);
}

EngineOptions drain_mode(int max_queue = 256, int max_batch = 8) {
  EngineOptions options;
  options.scheduler.workers = 0;  // deterministic: compute only in drain()
  options.scheduler.max_queue = static_cast<std::size_t>(max_queue);
  options.scheduler.max_batch = static_cast<std::size_t>(max_batch);
  return options;
}

TEST(Scheduler, DuplicateSubmissionsCoalesceToOneComputation) {
  ComparisonEngine engine(drain_mode());
  const auto a = testing::random_string(64, 4, 1);
  const auto b = testing::random_string(64, 4, 2);
  auto first = engine.entry_async(a, b);
  auto second = engine.entry_async(a, b);
  EXPECT_GT(engine.drain(), 0u);
  // Both callers got the same kernel from a single computation.
  EXPECT_EQ(first.get(), second.get());
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.scheduler.coalesced, 1u);
  EXPECT_EQ(stats.scheduler.computed, 1u);
  EXPECT_EQ(stats.scheduler.inflight, 0u);
}

/// Concurrent asks for cold pairs with real workers: every thread asks
/// every pair, released together so duplicates are in flight at once. Each
/// pair must be combed exactly once, whether a late ask joins the job in
/// flight or hits the cache it filled.
TEST(Scheduler, ConcurrentAsksOfFewPairsCombEachPairOnce) {
  constexpr std::size_t kPairs = 4;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kAsksPerPair = 64;
  constexpr std::size_t kAsksPerThread = kPairs * kAsksPerPair / kThreads;
  EngineOptions options;
  options.scheduler.workers = 2;
  ComparisonEngine engine(options);
  std::vector<std::pair<Sequence, Sequence>> pairs;
  std::vector<Index> expected;
  for (std::uint64_t p = 0; p < kPairs; ++p) {
    pairs.emplace_back(testing::random_string(200, 4, 700 + p * 2),
                       testing::random_string(180, 4, 701 + p * 2));
    expected.push_back(testing::lcs_oracle(pairs.back().first, pairs.back().second));
  }
  std::vector<std::vector<Index>> answers(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      start.arrive_and_wait();
      for (std::size_t k = 0; k < kAsksPerThread; ++k) {
        const auto& [a, b] = pairs[(t + k) % kPairs];
        answers[t].push_back(engine.lcs(a, b));
      }
    });
  }
  for (std::thread& client : clients) client.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(answers[t].size(), kAsksPerThread);
    for (std::size_t k = 0; k < kAsksPerThread; ++k) {
      EXPECT_EQ(answers[t][k], expected[(t + k) % kPairs]) << "thread " << t << " ask " << k;
    }
  }
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.scheduler.computed, kPairs);
  EXPECT_EQ(stats.scheduler.inflight, 0u);
}

TEST(Scheduler, FullQueueRejectsWithRetryHint) {
  ComparisonEngine engine(drain_mode(/*max_queue=*/2));
  auto f0 = engine.entry_async(testing::random_string(16, 4, 1),
                                testing::random_string(16, 4, 2));
  auto f1 = engine.entry_async(testing::random_string(16, 4, 3),
                                testing::random_string(16, 4, 4));
  try {
    (void)engine.entry_async(testing::random_string(16, 4, 5),
                              testing::random_string(16, 4, 6));
    FAIL() << "third submission should have been rejected";
  } catch (const EngineOverloaded& e) {
    EXPECT_GT(e.retry_after_ms(), 0);
  }
  EXPECT_EQ(engine.stats().scheduler.rejected, 1u);
  // Draining frees the queue; the rejected pair now goes through.
  engine.drain();
  auto f2 = engine.entry_async(testing::random_string(16, 4, 5),
                                testing::random_string(16, 4, 6));
  engine.drain();
  EXPECT_NE(f2.get(), nullptr);
  EXPECT_EQ(engine.stats().scheduler.computed, 3u);
}

/// Regression: a client loop that honors the retry-after hint must make
/// progress through sustained overload, and after mass rejection a drain()
/// must leave no stuck futures behind (queue empty, nothing in flight,
/// every accepted future resolved).
TEST(Scheduler, RetryAfterHintsAreHonoredAndDrainLeavesNoStuckFutures) {
  constexpr std::uint64_t kPairs = 24;
  ComparisonEngine engine(drain_mode(/*max_queue=*/4, /*max_batch=*/2));
  std::vector<std::shared_future<CachedKernelPtr>> accepted;
  std::uint64_t rejections = 0;
  for (std::uint64_t p = 0; p < kPairs; ++p) {
    const auto a = testing::random_string(24, 4, 900 + p * 2);
    const auto b = testing::random_string(24, 4, 901 + p * 2);
    // Client loop: submit, and on overload honor the hint (in drain mode,
    // "waiting retry_after_ms" is standing in for a real sleep -- the queue
    // frees because we drain, which is what the hint promises time for).
    for (int attempt = 0;; ++attempt) {
      ASSERT_LT(attempt, 8) << "pair " << p << " never accepted";
      try {
        accepted.push_back(engine.entry_async(a, b));
        break;
      } catch (const EngineOverloaded& e) {
        ++rejections;
        EXPECT_GT(e.retry_after_ms(), 0);
        engine.drain();
      }
    }
  }
  ASSERT_GT(rejections, 0u) << "queue of 4 never overflowed -- test is vacuous";
  engine.drain();
  for (std::size_t i = 0; i < accepted.size(); ++i) {
    ASSERT_EQ(accepted[i].wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "future " << i << " stuck after drain()";
    EXPECT_NE(accepted[i].get(), nullptr) << i;
  }
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.scheduler.computed, kPairs);
  EXPECT_EQ(stats.scheduler.rejected, rejections);
  EXPECT_EQ(stats.scheduler.queue_depth, 0u);
  EXPECT_EQ(stats.scheduler.inflight, 0u);
}

TEST(Scheduler, BatchesGroupQueuedMisses) {
  ComparisonEngine engine(drain_mode(/*max_queue=*/256, /*max_batch=*/4));
  for (std::uint64_t s = 0; s < 8; ++s) {
    (void)engine.entry_async(testing::random_string(24, 4, 100 + s * 2),
                              testing::random_string(24, 4, 101 + s * 2));
  }
  engine.drain();
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.scheduler.computed, 8u);
  EXPECT_EQ(stats.scheduler.batches, 2u);  // 8 jobs / max_batch 4
}

// --- The score path: a global score never builds a kernel --------------------

TEST(ScorePath, MissComputesAScoreAndNoKernel) {
  ComparisonEngine engine(drain_mode());
  const auto a = testing::random_string(300, 4, 61);
  const auto b = testing::random_string(280, 4, 62);
  auto score = engine.score_async(a, b);
  EXPECT_EQ(engine.stats().scheduler.queue_depth, 1u);
  engine.drain();
  ASSERT_EQ(score.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(score.get(), testing::lcs_oracle(a, b));
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.scheduler.computed, 0u);
  EXPECT_EQ(stats.scheduler.scores_computed, 1u);
  EXPECT_EQ(stats.scheduler.inflight, 0u);
  EXPECT_EQ(stats.store.cache.entries, 0u);
  EXPECT_EQ(engine.store().find(make_pair_key(a, b)), nullptr);
}

TEST(ScorePath, RepeatIsAMemoHitAnsweredAtOnce) {
  ComparisonEngine engine(drain_mode());
  const auto a = testing::random_string(200, 4, 63);
  const auto b = testing::random_string(220, 4, 64);
  auto first = engine.score_async(a, b);
  engine.drain();
  auto again = engine.score_async(a, b);
  ASSERT_EQ(again.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(again.get(), first.get());
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.scheduler.score_memo_hits, 1u);
  EXPECT_EQ(stats.scheduler.scores_computed, 1u);
  EXPECT_EQ(stats.scheduler.queue_depth, 0u);
  EXPECT_EQ(stats.requests, 2u);
}

TEST(ScorePath, KernelHitAnswersWithoutAScoreJob) {
  ComparisonEngine engine(drain_mode());
  const auto a = testing::random_string(90, 4, 65);
  const auto b = testing::random_string(70, 4, 66);
  auto entry = engine.entry_async(a, b);
  engine.drain();
  ASSERT_NE(entry.get(), nullptr);
  const std::uint64_t hits = engine.stats().store.cache.hits;
  auto score = engine.score_async(a, b);
  ASSERT_EQ(score.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(score.get(), testing::lcs_oracle(a, b));
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.store.cache.hits, hits + 1);  // one store probe
  EXPECT_EQ(stats.scheduler.scores_computed, 0u);
  EXPECT_EQ(stats.scheduler.score_memo_hits, 0u);
}

TEST(ScorePath, KernelInFlightIsJoinedNotScored) {
  ComparisonEngine engine(drain_mode());
  const auto a = testing::random_string(120, 4, 67);
  const auto b = testing::random_string(130, 4, 68);
  auto entry = engine.entry_async(a, b);
  auto score = engine.score_async(a, b);
  EXPECT_EQ(engine.stats().scheduler.queue_depth, 1u);  // no score job
  engine.drain();
  EXPECT_EQ(score.get(), testing::lcs_oracle(a, b));
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.scheduler.computed, 1u);
  EXPECT_EQ(stats.scheduler.scores_computed, 0u);
  EXPECT_EQ(stats.scheduler.coalesced, 1u);
}

TEST(ScorePath, KernelSubmitUpgradesAQueuedScoreJob) {
  ComparisonEngine engine(drain_mode());
  const auto a = testing::random_string(110, 4, 69);
  const auto b = testing::random_string(100, 4, 70);
  auto score = engine.score_async(a, b);
  auto entry = engine.entry_async(a, b);
  EXPECT_EQ(engine.stats().scheduler.queue_depth, 1u);  // the same job
  engine.drain();
  ASSERT_NE(entry.get(), nullptr);
  EXPECT_EQ(score.get(), testing::lcs_oracle(a, b));
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.scheduler.computed, 1u);
  EXPECT_EQ(stats.scheduler.scores_computed, 0u);
  EXPECT_EQ(stats.scheduler.inflight, 0u);
}

TEST(ScorePath, WindowAfterAScoreBuildsTheKernelExactlyOnce) {
  EngineOptions options = drain_mode();
  options.scheduler.workers = 1;
  ComparisonEngine engine(options);
  const auto a = testing::random_string(150, 4, 71);
  const auto b = testing::random_string(140, 4, 72);
  EXPECT_EQ(engine.score_async(a, b).get(), testing::lcs_oracle(a, b));
  EXPECT_EQ(engine.stats().scheduler.computed, 0u);
  const Index window = engine.string_substring(a, b, 10, 90);
  EXPECT_EQ(window, testing::lcs_oracle(a, SequenceView(b).subspan(10, 80)));
  (void)engine.answer_batch(a, b, std::vector<WindowQuery>(3));
  EXPECT_EQ(engine.score_async(a, b).get(), testing::lcs_oracle(a, b));
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.scheduler.computed, 1u);
  EXPECT_EQ(stats.scheduler.scores_computed, 1u);
}

TEST(ScorePath, DuplicateMissesCoalesceIntoOneScore) {
  ComparisonEngine engine(drain_mode());
  const auto a = testing::random_string(256, 4, 73);
  const auto b = testing::random_string(200, 4, 74);
  constexpr int kDuplicates = 6;
  std::vector<std::shared_future<Index>> scores;
  for (int i = 0; i < kDuplicates; ++i) scores.push_back(engine.score_async(a, b));
  engine.drain();
  for (const auto& score : scores) EXPECT_EQ(score.get(), testing::lcs_oracle(a, b));
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.scheduler.scores_computed, 1u);
  EXPECT_EQ(stats.scheduler.coalesced, static_cast<std::uint64_t>(kDuplicates - 1));
}

TEST(ScorePath, FullQueueShedsScoreJobs) {
  ComparisonEngine engine(drain_mode(/*max_queue=*/1));
  auto first = engine.score_async(testing::random_string(32, 4, 75),
                                  testing::random_string(32, 4, 76));
  try {
    (void)engine.score_async(testing::random_string(32, 4, 77),
                             testing::random_string(32, 4, 78));
    FAIL() << "second score job should have been rejected";
  } catch (const EngineOverloaded& e) {
    EXPECT_GT(e.retry_after_ms(), 0);
  }
  EXPECT_EQ(engine.stats().scheduler.rejected, 1u);
  engine.drain();
  EXPECT_GE(first.get(), 0);
}

TEST(ScorePath, PairsBeyondTheByteAlphabetStillScoreExactly) {
  // 300 distinct symbols: more than the plane kernel's 8 planes hold.
  ComparisonEngine engine(drain_mode());
  const auto a = uniform_sequence(400, 300, 79);
  const auto b = uniform_sequence(380, 300, 80);
  ASSERT_GT(dense_remap(a, b).alphabet, 256);
  auto score = engine.score_async(a, b);
  engine.drain();
  EXPECT_EQ(score.get(), testing::lcs_oracle(a, b));
}

TEST(ScorePath, ConcurrentColdAsksMatchTheOracle) {
  // The cold path under contention: 8 client threads, released together,
  // ask never-seen pairs -- the global score of one, a single window of the
  // next -- through score_async and score_then on 4 workers. Some window
  // pairs are asked twice: the second ask combs the kernel, unless another
  // pair took the pair's score memo slot since, and then it is a window job
  // again. Both must answer exactly.
  constexpr int kThreads = 8;
  constexpr int kPairsPerThread = 48;
  constexpr std::size_t kMemoSlots = 4096;  // KernelScheduler's direct-mapped memo
  // Declared before the engine: a late callback never outlives them.
  std::atomic<int> wrong{0};
  std::atomic<int> answered{0};
  EngineOptions options;
  options.scheduler.workers = 4;
  options.scheduler.max_queue = 4096;  // no shedding: every ask is answered
  ComparisonEngine engine(options);

  struct Ask {
    Sequence a;
    Sequence b;
    WindowQuery query;
    Index want = 0;
    bool twice = false;
  };
  std::vector<std::vector<Ask>> asks(kThreads);
  std::unordered_map<std::size_t, int> slots;
  int collisions = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (int p = 0; p < kPairsPerThread; ++p) {
      const auto seed = static_cast<std::uint64_t>(1000 + 2 * (t * kPairsPerThread + p));
      Ask ask;
      ask.a = testing::random_string(40 + (p % 7) * 9, 4, seed);
      ask.b = testing::random_string(50 + (p % 5) * 11, 4, seed + 1);
      const auto n = static_cast<Index>(ask.b.size());
      if (p % 2 == 0) {
        ask.want = testing::lcs_oracle(ask.a, ask.b);
      } else {
        ask.query = {QueryKind::kStringSubstring, p % n, n - p % 3};
        ask.want = testing::lcs_oracle(
            ask.a, SequenceView(ask.b).subspan(static_cast<std::size_t>(ask.query.x),
                                               static_cast<std::size_t>(ask.query.y -
                                                                        ask.query.x)));
        ask.twice = p % 4 == 1;
      }
      collisions += slots[PairKeyHash{}(make_pair_key(ask.a, ask.b)) % kMemoSlots]++ > 0;
      asks[static_cast<std::size_t>(t)].push_back(std::move(ask));
    }
  }
  ASSERT_GT(collisions, 0) << "no two pairs share a memo slot: the test is vacuous";

  int expected = 0;
  for (const auto& thread_asks : asks) {
    for (const Ask& ask : thread_asks) expected += ask.twice ? 2 : 1;
  }
  std::latch start(kThreads);
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      const auto check = [&](Index want) {
        return [&, want](Index got, std::exception_ptr failure) {
          if (failure || got != want) wrong.fetch_add(1);
          answered.fetch_add(1);
        };
      };
      start.arrive_and_wait();
      for (const Ask& ask : asks[static_cast<std::size_t>(t)]) {
        try {
          if (ask.query.kind == QueryKind::kLcs) {
            check(ask.want)(engine.score_async(ask.a, ask.b).get(), nullptr);
            continue;
          }
          for (int round = 0; round < (ask.twice ? 2 : 1); ++round) {
            ScoreThen then = check(ask.want);
            if (const auto now = engine.score_then(ask.a, ask.b, ask.query, then)) {
              then(*now, nullptr);
            }
          }
        } catch (...) {
          wrong.fetch_add(1);
          answered.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  for (int spin = 0; answered.load() < expected && spin < 10000; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(answered.load(), expected);
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(engine.stats().scheduler.rejected, 0u);
}

TEST(QueryLayer, MatchesBruteForceOracle) {
  const auto a = testing::random_string(18, 3, 11);
  const auto b = testing::random_string(23, 3, 12);
  const SemiLocalKernel kernel = semi_local_kernel(a, b);
  EXPECT_EQ(kernel.lcs(), testing::lcs_oracle(a, b));
  const auto n = static_cast<Index>(b.size());
  const auto m = static_cast<Index>(a.size());
  for (Index j0 = 0; j0 <= n; ++j0) {
    for (Index j1 = j0; j1 <= n; ++j1) {
      const Sequence window(b.begin() + j0, b.begin() + j1);
      ASSERT_EQ(kernel.string_substring(j0, j1), testing::lcs_oracle(a, window))
          << "j0=" << j0 << " j1=" << j1;
    }
  }
  for (Index i0 = 0; i0 <= m; ++i0) {
    for (Index i1 = i0; i1 <= m; ++i1) {
      const Sequence window(a.begin() + i0, a.begin() + i1);
      ASSERT_EQ(kernel.substring_string(i0, i1), testing::lcs_oracle(window, b))
          << "i0=" << i0 << " i1=" << i1;
    }
  }
}

TEST(QueryLayer, RejectsOutOfRangeWindows) {
  const SemiLocalKernel kernel =
      semi_local_kernel(testing::random_string(8, 3, 1), testing::random_string(9, 3, 2));
  EXPECT_THROW((void)kernel.string_substring(-1, 3), std::out_of_range);
  EXPECT_THROW((void)kernel.string_substring(4, 2), std::out_of_range);
  EXPECT_THROW((void)kernel.string_substring(0, 10), std::out_of_range);
  EXPECT_THROW((void)kernel.substring_string(0, 9), std::out_of_range);
}

// The engine hands out the kernel its LRU shares, so the kernel's own query
// methods must be safe on one const object read by many threads at once.
TEST(QueryLayer, SharedKernelAnswersFromManyThreads) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 64;
  ComparisonEngine engine;
  const auto a = testing::random_string(37, 4, 91);
  const auto b = testing::random_string(45, 4, 92);
  const KernelPtr kernel = engine.kernel(a, b);
  const auto m = static_cast<Index>(a.size());
  const auto n = static_cast<Index>(b.size());
  const SequenceView va{a};
  const SequenceView vb{b};
  const auto slice = [](SequenceView s, Index from, Index to) {
    return s.subspan(static_cast<std::size_t>(from), static_cast<std::size_t>(to - from));
  };

  // One round asks all six kinds; its windows and their oracle answers are
  // drawn up front so the threads do nothing but query.
  struct Round {
    Index j0, j1, i0, i1, k, l;
    std::array<Index, 6> expected;
  };
  std::vector<std::vector<Round>> rounds(kThreads);
  Rng rng(93);
  for (auto& thread_rounds : rounds) {
    for (int r = 0; r < kRounds; ++r) {
      Round q{};
      q.j0 = rng.uniform(0, n);
      q.j1 = rng.uniform(q.j0, n);
      q.i0 = rng.uniform(0, m);
      q.i1 = rng.uniform(q.i0, m);
      q.k = rng.uniform(0, m);
      q.l = rng.uniform(0, n);
      q.expected = {
          testing::lcs_oracle(va, slice(vb, q.j0, q.j1)),  // h(m + j0, j1)
          testing::lcs_oracle(va, vb),
          testing::lcs_oracle(va, slice(vb, q.j0, q.j1)),
          testing::lcs_oracle(slice(va, q.i0, q.i1), vb),
          testing::lcs_oracle(slice(va, 0, q.k), slice(vb, q.l, n)),
          testing::lcs_oracle(slice(va, q.k, m), slice(vb, 0, q.l)),
      };
      thread_rounds.push_back(q);
    }
  }

  std::latch start(kThreads);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (const Round& q : rounds[static_cast<std::size_t>(t)]) {
        try {
          const std::array<Index, 6> got = {
              kernel->h(m + q.j0, q.j1),
              kernel->lcs(),
              kernel->string_substring(q.j0, q.j1),
              kernel->substring_string(q.i0, q.i1),
              kernel->prefix_suffix(q.k, q.l),
              kernel->suffix_prefix(q.k, q.l),
          };
          if (got != q.expected) mismatches.fetch_add(1, std::memory_order_relaxed);
        } catch (...) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(Protocol, RequestRoundTrips) {
  Request request;
  request.op = Op::kStringSubstring;
  request.x = 3;
  request.y = 41;
  request.a = testing::random_string(50, 4, 1);
  request.b = testing::random_string(70, 4, 2);
  const Request decoded = decode_request(encode_request(request));
  EXPECT_EQ(decoded.op, request.op);
  EXPECT_EQ(decoded.x, request.x);
  EXPECT_EQ(decoded.y, request.y);
  EXPECT_EQ(decoded.a, request.a);
  EXPECT_EQ(decoded.b, request.b);
}

TEST(Protocol, BatchQueryRoundTrips) {
  Request request;
  request.op = Op::kBatchQuery;
  request.a = testing::random_string(30, 4, 3);
  request.b = testing::random_string(35, 4, 4);
  request.windows = {{QueryKind::kLcs, 0, 0},
                     {QueryKind::kStringSubstring, 5, 20},
                     {QueryKind::kSubstringString, 2, 28}};
  const Request decoded = decode_request(encode_request(request));
  EXPECT_EQ(decoded.op, Op::kBatchQuery);
  ASSERT_EQ(decoded.windows.size(), request.windows.size());
  for (std::size_t i = 0; i < request.windows.size(); ++i) {
    EXPECT_EQ(decoded.windows[i].kind, request.windows[i].kind) << i;
    EXPECT_EQ(decoded.windows[i].x, request.windows[i].x) << i;
    EXPECT_EQ(decoded.windows[i].y, request.windows[i].y) << i;
  }

  Response response;
  response.values = {17, -1, 9};
  const Response round = decode_response(encode_response(response));
  EXPECT_EQ(round.values, response.values);

  // Unknown window kind byte is rejected.
  std::string bad = encode_request(request);
  // kind byte of window 0 sits right after op + 2*i64 + 2*u32 + |a| + |b| + u32.
  const std::size_t kind_at = 1 + 16 + 8 + request.a.size() + request.b.size() + 4;
  bad[kind_at] = 99;
  EXPECT_THROW((void)decode_request(bad), ProtocolError);
}

TEST(Protocol, ResponseRoundTrips) {
  Response response;
  response.status = Status::kOverloaded;
  response.value = -7;
  response.retry_ms = 12;
  response.text = "queue full";
  const Response decoded = decode_response(encode_response(response));
  EXPECT_EQ(decoded.status, response.status);
  EXPECT_EQ(decoded.value, response.value);
  EXPECT_EQ(decoded.retry_ms, response.retry_ms);
  EXPECT_EQ(decoded.text, response.text);
}

TEST(Protocol, MalformedPayloadsThrow) {
  Request request;
  request.op = Op::kLcs;
  request.a = testing::random_string(10, 4, 1);
  request.b = testing::random_string(10, 4, 2);
  const std::string valid = encode_request(request);
  // Unknown op byte.
  std::string bad_op = valid;
  bad_op[0] = 99;
  EXPECT_THROW((void)decode_request(bad_op), ProtocolError);
  // Truncation at every prefix length.
  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    EXPECT_THROW((void)decode_request(valid.substr(0, cut)), ProtocolError) << cut;
  }
  // Trailing garbage.
  EXPECT_THROW((void)decode_request(valid + "x"), ProtocolError);
  EXPECT_THROW((void)decode_response(std::string_view{}), ProtocolError);
}

TEST(Protocol, FramingRoundTripsAndRejectsTruncation) {
  std::stringstream wire;
  write_frame(wire, "hello");
  write_frame(wire, "");
  const auto first = read_frame(wire);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, "hello");
  const auto second = read_frame(wire);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, "");
  EXPECT_FALSE(read_frame(wire).has_value());  // clean EOF

  std::stringstream truncated(std::string("\x05\x00\x00\x00he", 6));
  EXPECT_THROW((void)read_frame(truncated), ProtocolError);
  std::stringstream half_header(std::string("\x05\x00", 2));
  EXPECT_THROW((void)read_frame(half_header), ProtocolError);
  std::stringstream oversized(std::string("\xff\xff\xff\xff", 4));
  EXPECT_THROW((void)read_frame(oversized), ProtocolError);
}

/// Acceptance: a mixed load with repeats costs one computation per distinct
/// pair, with the repeats answered from the cache -- per the stats counters.
TEST(EngineEndToEnd, RepeatedPairsAreNeverRecomputed) {
  ScratchDir dir("engine_e2e");
  constexpr std::uint64_t kDistinctPairs = 4;
  constexpr int kRounds = 5;
  std::vector<std::pair<Sequence, Sequence>> pool;
  for (std::uint64_t p = 0; p < kDistinctPairs; ++p) {
    pool.emplace_back(testing::random_string(96, 4, 500 + p * 2),
                      testing::random_string(96, 4, 501 + p * 2));
  }

  EngineOptions options;
  options.store.dir = dir.str();
  options.scheduler.workers = 1;
  ComparisonEngine engine(options);
  std::vector<Index> first_scores;
  for (int round = 0; round < kRounds; ++round) {
    for (std::uint64_t p = 0; p < kDistinctPairs; ++p) {
      const Index score = engine.lcs(pool[p].first, pool[p].second);
      if (round == 0) {
        first_scores.push_back(score);
      } else {
        ASSERT_EQ(score, first_scores[p]) << "round " << round << " pair " << p;
      }
    }
  }

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.requests, kDistinctPairs * kRounds);
  // One computation per distinct pair -- repeats never recompute.
  EXPECT_EQ(stats.scheduler.computed, kDistinctPairs);
  // Every repeat round was served from the in-memory cache.
  EXPECT_EQ(stats.store.cache.hits, kDistinctPairs * (kRounds - 1));
  EXPECT_GT(stats.cache_hit_rate(), 0.0);
  EXPECT_EQ(stats.store.disk_writes, kDistinctPairs);
  // Both the compute path and the cache fast path record a latency sample.
  EXPECT_EQ(stats.latency.count, stats.requests);
  // Every query is one window, and five asks of a pair cost far less than
  // an index build: all were scanned, and no pair built an index.
  EXPECT_EQ(stats.queries.indexed, 0u);
  EXPECT_EQ(stats.queries.scanned, stats.requests);
  EXPECT_EQ(stats.queries.index_builds, 0u);

  // Warm restart over the same store directory: zero recompute, all disk.
  ComparisonEngine warm(options);
  for (std::uint64_t p = 0; p < kDistinctPairs; ++p) {
    EXPECT_EQ(warm.lcs(pool[p].first, pool[p].second), first_scores[p]);
  }
  const EngineStats warm_stats = warm.stats();
  EXPECT_EQ(warm_stats.scheduler.computed, 0u);
  EXPECT_EQ(warm_stats.store.disk_hits, kDistinctPairs);
}

}  // namespace
}  // namespace semilocal
