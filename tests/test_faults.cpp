// Deterministic fault-injection suite for the engine subsystem.
//
// The central idea: Tiskin's semi-local framework gives an exact oracle for
// every query, so differential testing under injected faults has no
// tolerance calls -- under ANY fault schedule the engine must return the
// oracle answer or an explicit error (EngineOverloaded), and must never
// crash or silently answer wrong.
//
//   * FaultSchedules.HundredsOfSeededSchedulesStayOracleExact drives
//     randomized FaultPlans (write/read/rename/remove/list faults, scripted
//     windows, probability mode, short writes) through
//     compute -> store -> evict -> reload -> query cycles, including an
//     engine restart over the surviving store directory, checking every
//     answer against tests/oracles.hpp and asserting that re-running a seed
//     reproduces the identical fault trace byte-for-byte.
//   * Targeted tests pin each degradation policy: write failure -> cache
//     serving continues + retry budget, fault window passing -> pending
//     persists drain, corruption -> quarantine + recompute, orphaned temp
//     files -> startup sweep.
//   * Protocol fuzz: random bytes, truncated frames, and oversized declared
//     lengths against the frame/payload decoders -- clean rejection, no
//     over-allocation, no crash.
//
// Seed replay: SEMILOCAL_FAULT_SEED_BASE=<base> SEMILOCAL_FAULT_SEEDS=<n>
// ./test_faults --gtest_filter='FaultSchedules.*' re-runs exactly those
// schedules (each failure message carries its seed).
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "core/serialize.hpp"
#include "engine/corpus.hpp"
#include "engine/corpus_version.hpp"
#include "engine/engine.hpp"
#include "engine/env.hpp"
#include "engine/protocol.hpp"
#include "oracles.hpp"
#include "scratch.hpp"
#include "util/random.hpp"

namespace semilocal {
namespace {

namespace fs = std::filesystem;
using testing::ScratchDir;

/// Scripted trigger shorthand: "fail `count` matching calls of `op` after
/// letting `skip` through". Further fields are assigned at the call site.
FaultRule fault_rule(EnvOp op, std::uint64_t skip = 0,
                     std::uint64_t count = std::numeric_limits<std::uint64_t>::max()) {
  FaultRule rule;
  rule.op = op;
  rule.skip = skip;
  rule.count = count;
  return rule;
}

// ---------------------------------------------------------------------------
// FaultyEnv unit behaviour.

TEST(FaultyEnv, ScriptedNthOperationFails) {
  ScratchDir dir;
  FaultPlan plan;
  // "Fail the 2nd write": skip 1, window of 1.
  plan.rules.push_back(fault_rule(EnvOp::kWrite, /*skip=*/1, /*count=*/1));
  FaultyEnv env(plan);
  env.write_file(dir.file("a"), "first");
  EXPECT_THROW(env.write_file(dir.file("b"), "second"), EnvError);
  env.write_file(dir.file("c"), "third");
  EXPECT_TRUE(env.exists(dir.file("a")));
  EXPECT_FALSE(env.exists(dir.file("b")));
  EXPECT_TRUE(env.exists(dir.file("c")));
  EXPECT_EQ(env.faults_injected(), 1u);
}

TEST(FaultyEnv, ShortWriteLeavesTornPartialFile) {
  ScratchDir dir;
  FaultPlan plan;
  FaultRule torn = fault_rule(EnvOp::kWrite);
  torn.short_write_bytes = 3;
  plan.rules.push_back(torn);
  FaultyEnv env(plan);
  EXPECT_THROW(env.write_file(dir.file("torn"), "0123456789"), EnvError);
  EXPECT_TRUE(env.exists(dir.file("torn")));
  EXPECT_EQ(real_env().read_file(dir.file("torn")), "012");
}

TEST(FaultyEnv, PathSubstringFilterScopesTheRule) {
  ScratchDir dir;
  FaultPlan plan;
  FaultRule tmp_only = fault_rule(EnvOp::kWrite);
  tmp_only.path_substring = ".tmp";
  plan.rules.push_back(tmp_only);
  FaultyEnv env(plan);
  env.write_file(dir.file("fine.slk"), "ok");
  EXPECT_THROW(env.write_file(dir.file("doomed.slk.tmp0"), "nope"), EnvError);
}

TEST(FaultyEnv, ProbabilityModeIsSeedDeterministic) {
  const auto run = [](std::uint64_t seed) {
    ScratchDir dir;
    FaultPlan plan;
    plan.seed = seed;
    FaultRule coin = fault_rule(EnvOp::kWrite);
    coin.probability = 0.5;
    plan.rules.push_back(coin);
    FaultyEnv env(plan);
    std::string outcomes;
    for (int i = 0; i < 64; ++i) {
      try {
        env.write_file(dir.file(std::string("f").append(std::to_string(i))), "x");
        outcomes += '.';
      } catch (const EnvError& e) {
        EXPECT_TRUE(e.injected());
        outcomes += 'X';
      }
    }
    return outcomes;
  };
  const std::string first = run(42);
  EXPECT_EQ(first, run(42));
  EXPECT_NE(first.find('X'), std::string::npos);
  EXPECT_NE(first.find('.'), std::string::npos);
  EXPECT_NE(first, run(43));
}

TEST(FaultyEnv, ClockIsMonotonicAndDeterministic) {
  FaultPlan plan;
  plan.clock_step_ns = 7;
  FaultyEnv env(plan);
  EXPECT_EQ(env.now_ns(), 7u);
  EXPECT_EQ(env.now_ns(), 14u);
  FaultyEnv again(plan);
  EXPECT_EQ(again.now_ns(), 7u);
}

// ---------------------------------------------------------------------------
// Targeted degradation policies.

EngineOptions faulty_drain_engine(const std::string& dir, Env* env,
                                  std::size_t cache_bytes = std::size_t{64} << 20) {
  EngineOptions options;
  options.store.dir = dir;
  options.store.cache_bytes = cache_bytes;
  options.scheduler.workers = 0;  // deterministic: compute only in drain()
  options.env = env;
  return options;
}

Index engine_lcs(ComparisonEngine& engine, const Sequence& a, const Sequence& b) {
  auto future = engine.entry_async(a, b);
  engine.drain();
  return engine.answer(*future.get(), QueryKind::kLcs, 0, 0);
}

/// Acceptance: store write failure -> cache-only serving continues, and the
/// stats JSON exposes the degradation counters.
TEST(Degradation, WriteFailuresServeFromCacheAndShowInStatsJson) {
  ScratchDir dir;
  FaultPlan plan;
  plan.rules.push_back(fault_rule(EnvOp::kWrite));  // ENOSPC on every write
  FaultyEnv env(plan);
  ComparisonEngine engine(faulty_drain_engine(dir.str(), &env));
  const auto a = testing::random_string(48, 4, 1);
  const auto b = testing::random_string(52, 4, 2);
  // The answer is still oracle-exact even though nothing can be persisted.
  EXPECT_EQ(engine_lcs(engine, a, b), testing::lcs_oracle(a, b));
  // Repeats serve from the cache: no disk, no recompute.
  EXPECT_EQ(engine_lcs(engine, a, b), testing::lcs_oracle(a, b));
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.scheduler.computed, 1u);
  EXPECT_GE(stats.store.cache.hits, 1u);
  EXPECT_GE(stats.store.write_failures, 1u);
  EXPECT_EQ(stats.store.disk_writes, 0u);
  EXPECT_EQ(stats.store.pending_persists, 1u);
  EXPECT_TRUE(stats.store.degraded());
  EXPECT_FALSE(engine.store().on_disk(make_pair_key(a, b)));

  const std::string json = stats_json(stats);
  EXPECT_NE(json.find("\"degraded_mode\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"store_pending_persists\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"store_quarantined\": 0"), std::string::npos) << json;
  const std::size_t failures_at = json.find("\"store_write_failures\": ");
  ASSERT_NE(failures_at, std::string::npos) << json;
  EXPECT_NE(json[failures_at + std::string("\"store_write_failures\": ").size()], '0');
}

/// Once the fault window passes, the retry budget lands the pending persist
/// and the engine leaves degraded mode.
TEST(Degradation, RetryBudgetPersistsAfterFaultWindowCloses) {
  ScratchDir dir;
  FaultPlan plan;
  plan.rules.push_back(fault_rule(EnvOp::kWrite, /*skip=*/0, /*count=*/2));
  FaultyEnv env(plan);
  ComparisonEngine engine(faulty_drain_engine(dir.str(), &env));
  const auto a = testing::random_string(40, 4, 11);
  const auto b = testing::random_string(44, 4, 12);
  EXPECT_EQ(engine_lcs(engine, a, b), testing::lcs_oracle(a, b));
  // First persist + first retry (piggybacked on the compute batch) both
  // fell in the fault window.
  EXPECT_TRUE(engine.stats().store.degraded());
  // The window is spent; the explicit retry pass must now succeed.
  EXPECT_EQ(engine.store().retry_pending(), 1u);
  const EngineStats stats = engine.stats();
  EXPECT_FALSE(stats.store.degraded());
  EXPECT_EQ(stats.store.disk_writes, 1u);
  EXPECT_TRUE(engine.store().on_disk(make_pair_key(a, b)));
  EXPECT_NE(stats_json(stats).find("\"degraded_mode\": 0"), std::string::npos);
}

TEST(Degradation, RetryBudgetExhaustsToCacheOnlyNotForever) {
  ScratchDir dir;
  FaultPlan plan;
  plan.rules.push_back(fault_rule(EnvOp::kWrite));  // disk never recovers
  FaultyEnv env(plan);
  KernelStoreOptions options;
  options.dir = dir.str();
  options.persist_retries = 2;
  options.env = &env;
  KernelStore store(options);
  const auto a = testing::random_string(24, 4, 21);
  const auto b = testing::random_string(24, 4, 22);
  const PairKey key = make_pair_key(a, b);
  store.put(key, std::make_shared<const CachedKernel>(
                     std::make_shared<const SemiLocalKernel>(semi_local_kernel(a, b))));
  EXPECT_EQ(store.stats().pending_persists, 1u);
  EXPECT_EQ(store.retry_pending(), 0u);  // burns retry 1
  EXPECT_EQ(store.retry_pending(), 0u);  // burns retry 2 -> abandoned
  const KernelStoreStats stats = store.stats();
  EXPECT_EQ(stats.pending_persists, 0u);
  EXPECT_EQ(stats.write_failures, 3u);  // initial put + 2 retries
  // Abandoned means cache-only, not lost: the entry still serves.
  EXPECT_NE(store.find(key), nullptr);
  EXPECT_EQ(store.retry_pending(), 0u);  // nothing tracked anymore
}

TEST(Degradation, CorruptKernelIsQuarantinedAndRecomputed) {
  ScratchDir dir;
  const auto a = testing::random_string(32, 4, 31);
  const auto b = testing::random_string(36, 4, 32);
  const PairKey key = make_pair_key(a, b);
  const std::string path = dir.file(key.hex() + ".slk");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a kernel";
  }
  FaultyEnv env(FaultPlan{});  // no faults; Env only for determinism
  ComparisonEngine engine(faulty_drain_engine(dir.str(), &env));
  EXPECT_EQ(engine_lcs(engine, a, b), testing::lcs_oracle(a, b));
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.store.quarantined, 1u);
  EXPECT_EQ(stats.store.disk_errors, 1u);
  EXPECT_EQ(stats.scheduler.computed, 1u);  // recomputed past the bad file
  // The poison was moved aside and a fresh kernel persisted in its place.
  EXPECT_TRUE(fs::exists(path + ".quarantined"));
  EXPECT_TRUE(engine.store().on_disk(key));
  EXPECT_EQ(real_env().read_file(path + ".quarantined"), "this is not a kernel");
  // The replacement is genuinely loadable by a cold store.
  KernelStoreOptions cold;
  cold.dir = dir.str();
  KernelStore reload(cold);
  ASSERT_NE(reload.find(key), nullptr);
}

TEST(Degradation, ForeignKernelOfWrongLengthsIsQuarantined) {
  ScratchDir dir;
  const auto a = testing::random_string(20, 4, 41);
  const auto b = testing::random_string(22, 4, 42);
  const PairKey key = make_pair_key(a, b);
  // A perfectly valid kernel file... of some other pair's dimensions.
  save_kernel_file(dir.file(key.hex() + ".slk"),
                   semi_local_kernel(testing::random_string(8, 4, 43),
                                     testing::random_string(9, 4, 44)));
  KernelStoreOptions options;
  options.dir = dir.str();
  KernelStore store(options);
  EXPECT_EQ(store.find(key), nullptr);
  EXPECT_EQ(store.stats().quarantined, 1u);
  EXPECT_TRUE(fs::exists(dir.file(key.hex() + ".slk.quarantined")));
}

TEST(Degradation, ReadFaultDegradesToMissWithoutQuarantine) {
  ScratchDir dir;
  const auto a = testing::random_string(28, 4, 51);
  const auto b = testing::random_string(30, 4, 52);
  const PairKey key = make_pair_key(a, b);
  save_kernel_file(dir.file(key.hex() + ".slk"), semi_local_kernel(a, b));
  FaultPlan plan;
  // A disk hit tries map_file first and falls back to read_file, so a truly
  // transient outage needs both to fail once.
  plan.rules.push_back(fault_rule(EnvOp::kMap, /*skip=*/0, /*count=*/1));
  plan.rules.push_back(fault_rule(EnvOp::kRead, /*skip=*/0, /*count=*/1));
  FaultyEnv env(plan);
  KernelStoreOptions options;
  options.dir = dir.str();
  options.env = &env;
  KernelStore store(options);
  // Transient read failure: a miss, but the healthy file must survive.
  EXPECT_EQ(store.find(key), nullptr);
  EXPECT_EQ(store.stats().disk_errors, 1u);
  EXPECT_EQ(store.stats().mmap_fallbacks, 1u);
  EXPECT_EQ(store.stats().quarantined, 0u);
  // Fault window over: the same file loads fine.
  ASSERT_NE(store.find(key), nullptr);
  EXPECT_EQ(store.stats().disk_hits, 1u);
}

TEST(FaultyEnv, TornMapServesPrefixThenZeros) {
  ScratchDir dir;
  real_env().write_file(dir.file("t"), "0123456789");
  FaultPlan plan;
  FaultRule torn = fault_rule(EnvOp::kMap);
  torn.torn_map_bytes = 4;
  plan.rules.push_back(torn);
  FaultyEnv env(plan);
  const MappedFilePtr map = env.map_file(dir.file("t"));
  EXPECT_EQ(map->view(), std::string_view("0123\0\0\0\0\0\0", 10));
  EXPECT_NE(env.trace_text().find("torn_map=4"), std::string::npos);
}

/// A failed map falls back to the whole-file read: still a disk hit, no
/// disk error, just a counted fallback.
TEST(Degradation, MapFaultFailsOverToWholeFileRead) {
  ScratchDir dir;
  const auto a = testing::random_string(26, 4, 53);
  const auto b = testing::random_string(31, 4, 54);
  const PairKey key = make_pair_key(a, b);
  save_kernel_file(dir.file(key.hex() + ".slk"), semi_local_kernel(a, b));
  FaultPlan plan;
  plan.rules.push_back(fault_rule(EnvOp::kMap));  // every map fails
  FaultyEnv env(plan);
  KernelStoreOptions options;
  options.dir = dir.str();
  options.env = &env;
  KernelStore store(options);
  const CachedKernelPtr entry = store.find(key);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(answer_query(*entry, QueryKind::kLcs, 0, 0, /*use_index=*/true),
            testing::lcs_oracle(a, b));
  const KernelStoreStats stats = store.stats();
  EXPECT_EQ(stats.mmap_fallbacks, 1u);
  EXPECT_EQ(stats.disk_hits, 1u);
  EXPECT_EQ(stats.disk_errors, 0u);
  EXPECT_EQ(stats.quarantined, 0u);
}

/// A torn mapping -- the map "succeeds" but the tail reads as zeros -- must
/// be caught by the v3 per-block checksums at open, quarantined, and the
/// kernel recomputed. Serving a wrong answer is the one forbidden outcome.
TEST(Degradation, TornMappingIsQuarantinedAndRecomputed) {
  ScratchDir dir;
  const auto a = testing::random_string(64, 4, 55);
  const auto b = testing::random_string(60, 4, 56);
  const PairKey key = make_pair_key(a, b);
  const std::string path = dir.file(key.hex() + ".slk");
  save_kernel_file(path, semi_local_kernel(a, b));
  const std::size_t file_size = fs::file_size(path);
  FaultPlan plan;
  FaultRule torn = fault_rule(EnvOp::kMap, /*skip=*/0, /*count=*/1);
  torn.torn_map_bytes = file_size / 2;  // header intact, payload tail zeroed
  plan.rules.push_back(torn);
  FaultyEnv env(plan);
  ComparisonEngine engine(faulty_drain_engine(dir.str(), &env));
  EXPECT_EQ(engine_lcs(engine, a, b), testing::lcs_oracle(a, b));
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.store.quarantined, 1u);
  EXPECT_EQ(stats.scheduler.computed, 1u);  // recomputed past the torn map
  EXPECT_EQ(stats.store.mmap_fallbacks, 0u);  // the map "worked"
  EXPECT_TRUE(fs::exists(path + ".quarantined"));
  // The recomputed kernel was persisted and reloads cleanly cold.
  KernelStoreOptions cold;
  cold.dir = dir.str();
  KernelStore reload(cold);
  ASSERT_NE(reload.find(key), nullptr);
}

// ---------------------------------------------------------------------------
// Orphaned temp-file sweep (simulated crash between temp write and rename).

TEST(OrphanSweep, StartupRemovesLeftoverTmpFilesOnly) {
  ScratchDir dir;
  const auto a = testing::random_string(16, 4, 61);
  const auto b = testing::random_string(18, 4, 62);
  const PairKey key = make_pair_key(a, b);
  // Construct the post-crash state directly: a good kernel, plus temp files
  // a dying writer would leak at various stages.
  save_kernel_file(dir.file(key.hex() + ".slk"), semi_local_kernel(a, b));
  real_env().write_file(dir.file("deadbeef.slk.tmp0"), "half a kern");
  real_env().write_file(dir.file("deadbeef.slk.tmp7"), "");
  KernelStoreOptions options;
  options.dir = dir.str();
  KernelStore store(options);
  EXPECT_EQ(store.stats().tmp_swept, 2u);
  EXPECT_FALSE(fs::exists(dir.file("deadbeef.slk.tmp0")));
  EXPECT_FALSE(fs::exists(dir.file("deadbeef.slk.tmp7")));
  // The real kernel survived the sweep and still loads.
  ASSERT_NE(store.find(key), nullptr);
}

TEST(OrphanSweep, FailedPersistLeavesNoVisibleKernelAndRestartSweepsTheTmp) {
  ScratchDir dir;
  FaultPlan plan;
  // Rename always fails, and so does the post-failure tmp cleanup: the
  // worst case, a torn writer that leaks its temp file.
  plan.rules.push_back(fault_rule(EnvOp::kRename));
  plan.rules.push_back(fault_rule(EnvOp::kRemove));
  FaultyEnv env(plan);
  const auto a = testing::random_string(24, 4, 71);
  const auto b = testing::random_string(26, 4, 72);
  const PairKey key = make_pair_key(a, b);
  {
    KernelStoreOptions options;
    options.dir = dir.str();
    options.persist_retries = 0;  // no retries: one leaked tmp, not four
    options.env = &env;
    KernelStore store(options);
    store.put(key, std::make_shared<const CachedKernel>(
                       std::make_shared<const SemiLocalKernel>(semi_local_kernel(a, b))));
    EXPECT_GE(store.stats().write_failures, 1u);
    // No reader can ever see a half-published kernel.
    EXPECT_FALSE(store.on_disk(key));
    EXPECT_TRUE(fs::exists(dir.file(key.hex() + ".slk.tmp0")));
  }
  // "Reboot" onto a healthy filesystem: the orphan is swept.
  KernelStoreOptions options;
  options.dir = dir.str();
  KernelStore store(options);
  EXPECT_EQ(store.stats().tmp_swept, 1u);
  EXPECT_FALSE(fs::exists(dir.file(key.hex() + ".slk.tmp0")));
}

// ---------------------------------------------------------------------------
// The seeded scenario runner.

struct ScenarioResult {
  std::string trace;            ///< FaultyEnv::trace_text()
  std::uint64_t faults = 0;
  std::uint64_t computed = 0;
};

FaultPlan random_plan(std::uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  FaultPlan plan;
  plan.seed = seed;
  const int nrules = static_cast<int>(rng.uniform(1, 4));
  for (int r = 0; r < nrules; ++r) {
    FaultRule rule;
    constexpr EnvOp kOps[] = {EnvOp::kRead,   EnvOp::kWrite, EnvOp::kRename,
                              EnvOp::kRemove, EnvOp::kList,  EnvOp::kMap};
    rule.op = kOps[rng.uniform(0, 5)];
    switch (rng.uniform(0, 2)) {
      case 0:
        rule.path_substring = "";
        break;
      case 1:
        rule.path_substring = ".slk";
        break;
      default:
        rule.path_substring = ".tmp";
        break;
    }
    rule.skip = static_cast<std::uint64_t>(rng.uniform(0, 6));
    // Mix bounded windows ("ENOSPC for a while") with unbounded ones
    // ("disk never comes back").
    if (rng.bernoulli(0.7)) {
      rule.count = static_cast<std::uint64_t>(rng.uniform(1, 8));
    }
    if (rng.bernoulli(0.4)) {
      rule.probability = 0.25 + 0.5 * rng.uniform01();
    }
    if (rule.op == EnvOp::kWrite && rng.bernoulli(0.5)) {
      rule.short_write_bytes = static_cast<std::size_t>(rng.uniform(1, 64));
    }
    // Half the map faults serve a torn prefix instead of failing outright;
    // the torn ones must end in quarantine + recompute, never a wrong answer.
    if (rule.op == EnvOp::kMap && rng.bernoulli(0.5)) {
      rule.torn_map_bytes = static_cast<std::size_t>(rng.uniform(1, 96));
    }
    rule.message = "seed" + std::to_string(seed) + "/r" + std::to_string(r);
    plan.rules.push_back(std::move(rule));
  }
  return plan;
}

/// One full scenario: compute -> store -> evict -> reload -> query cycles
/// plus an engine restart, every answer checked against the brute-force
/// oracle. Only EngineOverloaded may surface; any other exception or any
/// wrong answer fails the test. Returns the fault trace for replay checks.
ScenarioResult run_scenario(std::uint64_t seed, const std::string& dir) {
  const FaultPlan plan = random_plan(seed);
  FaultyEnv env(plan);

  // A small pool of pairs with precomputed oracle answers.
  Rng rng(seed * 2654435761u + 17);
  struct TestPair {
    Sequence a, b;
    Index lcs = 0;
  };
  std::vector<TestPair> pool;
  const int npairs = static_cast<int>(rng.uniform(3, 5));
  for (int p = 0; p < npairs; ++p) {
    TestPair tp;
    const auto alphabet = static_cast<Symbol>(rng.uniform(2, 4));
    tp.a = testing::random_string(rng.uniform(8, 40), alphabet, seed * 100 + p * 2);
    tp.b = testing::random_string(rng.uniform(8, 40), alphabet, seed * 100 + p * 2 + 1);
    tp.lcs = testing::lcs_oracle(tp.a, tp.b);
    pool.push_back(std::move(tp));
  }

  ScenarioResult result;
  const auto drive = [&](ComparisonEngine& engine, int cycles) {
    for (int cycle = 0; cycle < cycles; ++cycle) {
      for (const TestPair& tp : pool) {
        CachedKernelPtr entry;
        try {
          auto future = engine.entry_async(tp.a, tp.b);
          engine.drain();
          entry = future.get();
        } catch (const EngineOverloaded&) {
          engine.drain();  // explicit error + honored retry: acceptable
          continue;
        }
        ASSERT_NE(entry, nullptr);
        // Global LCS plus a few random windows, all oracle-checked.
        ASSERT_EQ(engine.answer(*entry, QueryKind::kLcs, 0, 0), tp.lcs);
        const auto n = static_cast<Index>(tp.b.size());
        const auto m = static_cast<Index>(tp.a.size());
        std::vector<WindowQuery> windows;
        std::vector<Index> expected;
        for (int q = 0; q < 3; ++q) {
          const Index j0 = rng.uniform(0, n);
          const Index j1 = rng.uniform(j0, n);
          windows.push_back({QueryKind::kStringSubstring, j0, j1});
          expected.push_back(testing::lcs_oracle(
              tp.a, Sequence(tp.b.begin() + j0, tp.b.begin() + j1)));
          const Index i0 = rng.uniform(0, m);
          const Index i1 = rng.uniform(i0, m);
          windows.push_back({QueryKind::kSubstringString, i0, i1});
          expected.push_back(testing::lcs_oracle(
              Sequence(tp.a.begin() + i0, tp.a.begin() + i1), tp.b));
        }
        ASSERT_EQ(engine.answer_batch(*entry, windows), expected);
      }
    }
  };

  // The store lives in a fixed-basename subdirectory so the trace of a
  // `list` fault (which records the directory basename) is identical across
  // the two replay runs despite their distinct scratch parents.
  const std::string store_dir = dir + "/store";
  {
    // Tiny cache: entries of ~40-symbol pairs run a few KiB, so a 4 KiB
    // budget forces constant eviction and reload-from-disk under faults.
    ComparisonEngine engine(
        faulty_drain_engine(store_dir, &env, /*cache_bytes=*/std::size_t{4} << 10));
    drive(engine, 3);
    if (::testing::Test::HasFatalFailure()) return result;
    result.computed = engine.stats().scheduler.computed;
  }
  {
    // Restart over whatever survived on disk (possibly nothing, possibly
    // orphaned tmps, possibly quarantined corpses): still oracle-exact.
    ComparisonEngine engine(
        faulty_drain_engine(store_dir, &env, /*cache_bytes=*/std::size_t{4} << 10));
    drive(engine, 1);
    if (::testing::Test::HasFatalFailure()) return result;
    result.computed += engine.stats().scheduler.computed;
  }
  result.trace = env.trace_text();
  result.faults = env.faults_injected();
  return result;
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  return value != nullptr && *value != '\0' ? std::strtoull(value, nullptr, 10)
                                            : fallback;
}

/// The acceptance driver: >= 200 seeded fault schedules, each run twice on
/// fresh directories -- every answer oracle-exact both times, and both runs'
/// fault traces identical byte-for-byte. SEMILOCAL_FAULT_SEED_BASE /
/// SEMILOCAL_FAULT_SEEDS select the schedule range (CI runs extra random
/// bases; failures print the seed for replay).
TEST(FaultSchedules, HundredsOfSeededSchedulesStayOracleExact) {
  const std::uint64_t base = env_u64("SEMILOCAL_FAULT_SEED_BASE", 1);
  const std::uint64_t seeds = env_u64("SEMILOCAL_FAULT_SEEDS", 200);
  std::uint64_t total_faults = 0;
  for (std::uint64_t seed = base; seed < base + seeds; ++seed) {
    SCOPED_TRACE("fault schedule seed " + std::to_string(seed) +
                 " (replay: SEMILOCAL_FAULT_SEED_BASE=" + std::to_string(seed) +
                 " SEMILOCAL_FAULT_SEEDS=1 ./test_faults"
                 " --gtest_filter='FaultSchedules.*')");
    ScratchDir first_dir("run1");
    const ScenarioResult first = run_scenario(seed, first_dir.str());
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    ScratchDir second_dir("run2");
    const ScenarioResult second = run_scenario(seed, second_dir.str());
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    // Same seed -> byte-for-byte identical fault trace (and identical
    // engine-visible behaviour, already asserted by the oracle checks).
    ASSERT_EQ(first.trace, second.trace);
    ASSERT_EQ(first.faults, second.faults);
    ASSERT_EQ(first.computed, second.computed);
    total_faults += first.faults;
  }
  // The schedules must actually bite: across the whole run, faults fired.
  EXPECT_GT(total_faults, seeds) << "fault plans barely injected anything";
}

// ---------------------------------------------------------------------------
// Versioned upsert crash consistency: upsert -> crash -> restart -> query
// cycles under hostile write/rename/remove schedules. The invariant is
// all-or-nothing per generation -- after any failed commit, and after any
// restart, the corpus (in memory and on disk) serves exactly the last
// committed generation: old answers or new answers, never a blend.

FaultPlan upsert_fault_plan(std::uint64_t seed) {
  Rng rng(seed * 0xc2b2ae3d27d4eb4fULL + 5);
  FaultPlan plan;
  plan.seed = seed;
  const int nrules = static_cast<int>(rng.uniform(1, 3));
  for (int r = 0; r < nrules; ++r) {
    FaultRule rule;
    // Only mutation ops: the publish protocol is what is under test, and a
    // read-clean plan keeps the restart loads (and thus the traces of the
    // two replay runs) byte-identical.
    constexpr EnvOp kOps[] = {EnvOp::kWrite, EnvOp::kRename, EnvOp::kRemove};
    rule.op = kOps[rng.uniform(0, 2)];
    switch (rng.uniform(0, 3)) {
      case 0:
        rule.path_substring = "";
        break;
      case 1:
        rule.path_substring = "index.tsv";  // the commit point itself
        break;
      case 2:
        rule.path_substring = ".tmp";
        break;
      default:
        rule.path_substring = ".v";  // document version files
        break;
    }
    rule.skip = static_cast<std::uint64_t>(rng.uniform(0, 10));
    rule.count = static_cast<std::uint64_t>(rng.uniform(1, 6));
    if (rng.bernoulli(0.3)) {
      rule.probability = 0.3 + 0.4 * rng.uniform01();
    }
    if (rule.op == EnvOp::kWrite && rng.bernoulli(0.5)) {
      rule.short_write_bytes = static_cast<std::size_t>(rng.uniform(1, 32));
    }
    rule.message = "useed" + std::to_string(seed) + "/r" + std::to_string(r);
    plan.rules.push_back(std::move(rule));
  }
  return plan;
}

struct UpsertScenarioResult {
  std::string trace;
  std::uint64_t faults = 0;
  std::uint64_t committed = 0;  ///< upserts whose generation landed
  std::uint64_t resumed = 0;    ///< pairs extended from the previous kernel
  std::uint64_t deferred = 0;   ///< pairs left to the read path
};

/// One scenario: a manager absorbs a deterministic edit stream under faults,
/// "crashes" (destruction), restarts over the surviving directory, and
/// absorbs more edits. A shadow map tracks the last *committed* state; after
/// every attempt and after the restart the corpus must match the shadow
/// exactly, and the final pair answer must be oracle-exact. After every
/// step the pair is read, as a client would, so its kernel is combed. A
/// document's first version gets `base_length` extra symbols; past the
/// resume gate's crossover, appends then extend that pair kernel.
UpsertScenarioResult run_upsert_scenario(std::uint64_t seed, const std::string& dir,
                                         Index base_length = 0) {
  const FaultPlan plan = upsert_fault_plan(seed);
  FaultyEnv env(plan);
  UpsertScenarioResult result;

  Rng rng(seed * 6364136223846793005ULL + 3);
  std::map<std::string, Sequence> shadow;
  std::uint64_t shadow_generation = 0;

  const auto corpus_options = [&] {
    CorpusManagerOptions options;
    options.dir = dir + "/corpus";
    options.chunk = base_length > 0 ? 64 : 16;  // one strip per long-shape append
    options.drain_inline = true;
    options.env = &env;
    return options;
  };

  const auto check_matches_shadow = [&](CorpusManager& corpus) {
    ASSERT_EQ(corpus.generation(), shadow_generation);
    ASSERT_EQ(corpus.documents(), shadow.size());
    for (const auto& [id, bytes] : shadow) {
      const auto held = corpus.document(id);
      ASSERT_TRUE(held.has_value()) << id;
      // The all-or-nothing core: a torn upsert must never leave NEW bytes
      // behind an OLD generation (or vice versa).
      ASSERT_EQ(*held, bytes) << id;
    }
  };

  const auto drive = [&](ComparisonEngine& engine, CorpusManager& corpus, int steps) {
    for (int step = 0; step < steps; ++step) {
      const std::string id = rng.uniform(0, 1) == 0 ? "a" : "b";
      Sequence bytes = shadow.count(id) ? shadow.at(id) : Sequence{};
      // Deterministic edit: mostly appends (the fast path), some rewrites.
      if (bytes.empty() || rng.bernoulli(0.75)) {
        const Index grow = (bytes.empty() ? base_length : 0) + rng.uniform(1, 40);
        for (Index i = 0; i < grow; ++i) {
          bytes.push_back(static_cast<Symbol>(rng.uniform(0, 3)));
        }
      } else {
        const auto pos = static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(bytes.size()) - 1));
        bytes[pos] = static_cast<Symbol>(rng.uniform(0, 3));
      }
      try {
        const UpsertReport report = corpus.upsert_document(id, bytes);
        shadow[id] = bytes;
        shadow_generation = report.generation;
        ++result.committed;
        result.resumed += report.prefix_reused;
        result.deferred += report.pairs - report.chunks_reused - report.prefix_reused;
      } catch (const CorpusPublishError&) {
        // Commit failed: the manager must have rolled back to the shadow.
      }
      check_matches_shadow(corpus);
      if (::testing::Test::HasFatalFailure()) return;
      if (shadow.count("a") && shadow.count("b")) {
        (void)engine_lcs(engine, shadow.at("a"), shadow.at("b"));
      }
    }
  };

  {
    ComparisonEngine engine(faulty_drain_engine(dir + "/store", &env));
    CorpusManager corpus(engine, corpus_options());
    drive(engine, corpus, 6);
    if (::testing::Test::HasFatalFailure()) return result;
  }  // crash: whatever was mid-flight is gone; only commits survive

  {
    ComparisonEngine engine(faulty_drain_engine(dir + "/store", &env));
    CorpusManager corpus(engine, corpus_options());
    // The restart must load exactly the last committed generation.
    check_matches_shadow(corpus);
    if (::testing::Test::HasFatalFailure()) return result;
    drive(engine, corpus, 4);
    if (::testing::Test::HasFatalFailure()) return result;

    // Queries over the surviving corpus are oracle-exact (the kernel store
    // may have degraded arbitrarily; answers may recompute, never lie).
    if (shadow.count("a") && shadow.count("b")) {
      EXPECT_EQ(engine_lcs(engine, shadow.at("a"), shadow.at("b")),
                testing::lcs_oracle(shadow.at("a"), shadow.at("b")));
    }
  }

  result.trace = env.trace_text();
  result.faults = env.faults_injected();
  return result;
}

/// Runs one upsert schedule twice; the replays must match byte for byte.
void replay_upsert_scenario(std::uint64_t seed, Index base_length,
                            UpsertScenarioResult& out) {
  ScratchDir first_dir("run1");
  out = run_upsert_scenario(seed, first_dir.str(), base_length);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  ScratchDir second_dir("run2");
  const UpsertScenarioResult second =
      run_upsert_scenario(seed, second_dir.str(), base_length);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  ASSERT_EQ(out.trace, second.trace);
  ASSERT_EQ(out.faults, second.faults);
  ASSERT_EQ(out.committed, second.committed);
}

/// Seeded upsert->crash->restart->query schedules with byte-identical trace
/// replay, sharing the SEMILOCAL_FAULT_SEED_BASE/SEMILOCAL_FAULT_SEEDS
/// replay contract with the main schedule sweep. Three more fixed seeds run
/// on documents of 6000+ symbols, where appends take the Resume plan, so a
/// fault between a tail strip's put and the composed kernel's put is covered.
TEST(FaultSchedules, UpsertCrashRestartCyclesNeverBlendGenerations) {
  const std::uint64_t base = env_u64("SEMILOCAL_FAULT_SEED_BASE", 1);
  const std::uint64_t seeds = env_u64("SEMILOCAL_FAULT_SEEDS", 60);
  std::uint64_t total_faults = 0;
  std::uint64_t total_committed = 0;
  std::uint64_t total_resumed = 0;
  std::uint64_t total_deferred = 0;
  const auto run = [&](std::uint64_t seed, Index base_length) {
    SCOPED_TRACE(base_length > 0
                     ? "upsert fault seed " + std::to_string(seed) +
                           " on 6000-symbol documents (fixed; replay: ./test_faults"
                           " --gtest_filter='FaultSchedules.Upsert*')"
                     : "upsert fault seed " + std::to_string(seed) +
                           " (replay: SEMILOCAL_FAULT_SEED_BASE=" + std::to_string(seed) +
                           " SEMILOCAL_FAULT_SEEDS=1 ./test_faults"
                           " --gtest_filter='FaultSchedules.Upsert*')");
    UpsertScenarioResult result;
    replay_upsert_scenario(seed, base_length, result);
    total_faults += result.faults;
    total_committed += result.committed;
    total_resumed += result.resumed;
    total_deferred += result.deferred;
  };
  for (std::uint64_t seed = base; seed < base + seeds; ++seed) {
    run(seed, 0);
    if (::testing::Test::HasFatalFailure()) return;
  }
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    run(seed, 6000);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The schedules must both bite (faults fired) and let progress through
  // (some upserts committed) -- otherwise the invariant checks are vacuous.
  EXPECT_GT(total_faults, 0u);
  EXPECT_GT(total_committed, seeds);
  // Both plans that change a pair ran under faults: Resume, and deferral to
  // the read path.
  EXPECT_GT(total_resumed, 0u);
  EXPECT_GT(total_deferred, 0u);
}

/// Corpus precompute under a hostile disk: never throws, reports exactly the
/// pairs whose kernels failed to land, and a follow-up healthy run completes
/// the store.
TEST(FaultSchedules, CorpusPrecomputeDegradesAndResumes) {
  ScratchDir dir;
  std::vector<FastaRecord> records;
  for (int r = 0; r < 4; ++r) {
    FastaRecord record;
    record.id = "r" + std::to_string(r);
    for (const Symbol s : testing::random_string(60, 4, 81 + r)) {
      record.residues.push_back(static_cast<Symbol>("ACGT"[s]));
    }
    records.push_back(std::move(record));
  }
  FaultPlan plan;
  plan.rules.push_back(fault_rule(EnvOp::kWrite, /*skip=*/2));  // disk fills up early
  FaultyEnv env(plan);
  std::size_t persisted_first = 0;
  {
    KernelStoreOptions options;
    options.dir = dir.str();
    options.env = &env;
    KernelStore store(options);
    const CorpusBuildReport report =
        precompute_corpus(records, store, SemiLocalOptions{}, /*parallel=*/false);
    EXPECT_EQ(report.entries.size(), 6u);  // C(4,2)
    EXPECT_EQ(report.computed, 6u);
    EXPECT_GT(report.persist_failures, 0u);
    EXPECT_LT(report.persist_failures, 6u);  // the first writes landed
    persisted_first = 6u - report.persist_failures;
    // The index write also goes through the env; under this plan it fails
    // loudly, not silently.
    EXPECT_THROW(
        write_corpus_index(dir.file("index.tsv"), report.entries, &env),
        std::runtime_error);
  }
  // Healthy re-run: resumes (reuses what landed), completes the rest.
  KernelStoreOptions options;
  options.dir = dir.str();
  KernelStore store(options);
  const CorpusBuildReport resumed =
      precompute_corpus(records, store, SemiLocalOptions{}, /*parallel=*/false);
  EXPECT_EQ(resumed.reused, persisted_first);
  EXPECT_EQ(resumed.computed, 6u - persisted_first);
  EXPECT_EQ(resumed.persist_failures, 0u);
  write_corpus_index(dir.file("index.tsv"), resumed.entries);
  EXPECT_EQ(read_corpus_index(dir.file("index.tsv")).size(), 6u);
}

// ---------------------------------------------------------------------------
// Protocol decoder fuzz: random bytes, truncated frames, oversized lengths.

TEST(ProtocolFuzz, RandomPayloadsAreRejectedCleanlyOrDecoded) {
  Rng rng(0xf00d);
  for (int trial = 0; trial < 4000; ++trial) {
    const auto len = static_cast<std::size_t>(rng.uniform(0, 96));
    std::string payload(len, '\0');
    for (char& c : payload) c = static_cast<char>(rng.uniform(0, 255));
    // Either a clean ProtocolError or a successful decode; anything else
    // (crash, bad_alloc from a hostile length field, other exception types)
    // fails the test.
    try {
      (void)decode_request(payload);
    } catch (const ProtocolError&) {
    }
    try {
      (void)decode_response(payload);
    } catch (const ProtocolError&) {
    }
  }
}

TEST(ProtocolFuzz, TruncatedAndBitFlippedBatchRequestsNeverCrash) {
  Request request;
  request.op = Op::kBatchQuery;
  request.a = testing::random_string(40, 4, 1);
  request.b = testing::random_string(33, 4, 2);
  for (int w = 0; w < 5; ++w) {
    request.windows.push_back(
        {static_cast<QueryKind>(w % 3), w, w + 3});
  }
  const std::string valid = encode_request(request);
  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    EXPECT_THROW((void)decode_request(valid.substr(0, cut)), ProtocolError) << cut;
  }
  Rng rng(7);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string corrupt = valid;
    const auto flips = static_cast<int>(rng.uniform(1, 4));
    for (int f = 0; f < flips; ++f) {
      const auto byte = static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(corrupt.size()) - 1));
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << rng.uniform(0, 7)));
    }
    try {
      const Request decoded = decode_request(corrupt);
      // Structurally valid mutations must still respect the batch cap --
      // the decoder's allocation bound.
      EXPECT_LE(decoded.windows.size(), kMaxBatchWindows);
    } catch (const ProtocolError&) {
    }
  }
}

TEST(ProtocolFuzz, OversizedDeclaredLengthsAreRejectedWithoutAllocation) {
  // Frame headers declaring up to 4 GiB: read_frame must reject past the
  // 64 MiB cap before allocating or reading the body.
  for (const std::uint32_t declared :
       {std::uint32_t{1} << 26 | 1u, std::uint32_t{1} << 27, std::uint32_t{1} << 31,
        0xffffffffu}) {
    std::string header(4, '\0');
    for (int i = 0; i < 4; ++i) {
      header[static_cast<std::size_t>(i)] =
          static_cast<char>((declared >> (8 * i)) & 0xff);
    }
    std::stringstream wire(header);
    EXPECT_THROW((void)read_frame(wire), ProtocolError) << declared;
  }
  // A declared length within the cap but beyond the actual bytes: clean
  // truncation error, and the decoder never hands back a partial frame.
  std::stringstream short_body(std::string("\x10\x00\x00\x00""abc", 7));
  EXPECT_THROW((void)read_frame(short_body), ProtocolError);
  // Batch-window counts past the cap are rejected by the payload decoder
  // before reserving space for them.
  Request request;
  request.op = Op::kBatchQuery;
  std::string payload = encode_request(request);
  // The window-count u32 is the last 4 bytes of a windowless payload.
  const std::uint32_t huge = 0x7fffffffu;
  for (int i = 0; i < 4; ++i) {
    payload[payload.size() - 4 + static_cast<std::size_t>(i)] =
        static_cast<char>((huge >> (8 * i)) & 0xff);
  }
  EXPECT_THROW((void)decode_request(payload), ProtocolError);
}

}  // namespace
}  // namespace semilocal
