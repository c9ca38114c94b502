// Versioned incremental corpus: differential oracle tests.
//
// The load-bearing suite is EditScriptDifferentialOracle: 200+ seeded random
// edit steps (append / in-place edit / truncate / delete / re-add) against a
// CorpusManager, where after EVERY upsert the pair kernel of every document
// pair, read the way a client reads it, is bit-compared -- the full
// permutation, not a summary statistic -- against a fresh semi_local_kernel
// computed from the shadow copy of the documents. Any divergence on an
// upsert plan (a Cached kernel under the wrong key, a Resume composed in the
// wrong order or off by one at a strip boundary) fails here
// deterministically. The 216 small scripts defer every changed pair to the
// read; a few more scripts on documents past the resume gate's crossover
// drive the Resume plan through the same oracle.
//
// The suite also pins the resume gate and each plan's accounting, pins
// IncrementalKernel::append_a/append_b against fresh kernels across uneven
// chunk sizes (1, prime, power-of-two), exercises the
// generation/version bookkeeping (idempotent re-sends, restart loads, index
// back-compat), and hammers concurrent upserts + reads for TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/api.hpp"
#include "core/incremental.hpp"
#include "engine/corpus.hpp"
#include "engine/corpus_version.hpp"
#include "engine/engine.hpp"
#include "oracles.hpp"
#include "scratch.hpp"
#include "util/random.hpp"

namespace semilocal {
namespace {

using testing::ScratchDir;

/// Deterministic single-thread engine: strip computes queue in the scheduler
/// and run on drain() (the corpus manager drains via drain_inline).
EngineOptions test_engine_options(const std::string& store_dir) {
  EngineOptions options;
  options.store.dir = store_dir;
  options.scheduler.workers = 0;
  return options;
}

CorpusManagerOptions test_corpus_options(const std::string& dir, Index chunk) {
  CorpusManagerOptions options;
  options.dir = dir;
  options.chunk = chunk;
  options.drain_inline = true;
  return options;
}

/// Documents this long resume a one-strip append: past the gate's crossover,
/// a 64-symbol tail combed and composed beats recombing 6000 x 6000 cells.
constexpr Index kResumeLength = 6000;

/// Bit-exact kernel equality: order, m/n split, and every permutation entry.
void expect_kernel_equal(const SemiLocalKernel& got, const SemiLocalKernel& want,
                         const std::string& context) {
  ASSERT_EQ(got.m(), want.m()) << context;
  ASSERT_EQ(got.n(), want.n()) << context;
  ASSERT_EQ(got.permutation().size(), want.permutation().size()) << context;
  for (Index row = 0; row < got.permutation().size(); ++row) {
    ASSERT_EQ(got.permutation().col_of(row), want.permutation().col_of(row))
        << context << " (row " << row << ")";
  }
}

/// The pair kernel of (a, b), read as engine.entry reads it: the store's
/// entry, else combed on demand (drained here for workers = 0 engines).
CachedKernelPtr read_pair(ComparisonEngine& engine, const Sequence& a, const Sequence& b) {
  auto pending = engine.entry_async(a, b);
  engine.drain();
  return pending.get();
}

/// The published pair kernel for (a, b), read through the engine, must
/// bit-match a fresh full recompute.
void expect_published_pair_matches_oracle(ComparisonEngine& engine,
                                          const Sequence& a, const Sequence& b,
                                          const std::string& context) {
  const CachedKernelPtr cached = read_pair(engine, a, b);
  ASSERT_NE(cached, nullptr) << context << ": pair kernel not served";
  const SemiLocalKernel oracle = semi_local_kernel(a, b);
  expect_kernel_equal(cached->kernel(), oracle, context);
}

// ---------------------------------------------------------------------------
// The differential oracle sweep.

/// Upsert plans seen by a run of edit scripts: deferred pairs are those on
/// neither the Cached nor the Resume plan.
struct PlanTally {
  int scripts = 0;
  std::size_t resumed = 0;
  std::size_t deferred = 0;

  void add(const UpsertReport& report) {
    resumed += report.prefix_reused;
    deferred += report.pairs - report.chunks_reused - report.prefix_reused;
  }
};

/// Runs one seed's `edits` edit scripts over `ids` -- append / in-place edit
/// / truncate / delete / re-add, where fresh documents get `base_length`
/// plus 1..400 random symbols -- and bit-compares every live pair against a
/// fresh full recompute after each one.
void run_edit_script(int seed, int edits, Index chunk, Index base_length,
                     const std::vector<std::string>& ids, PlanTally& tally) {
  const ScratchDir scratch("oracle" + std::to_string(seed));
  ComparisonEngine engine(test_engine_options(scratch.file("store")));
  CorpusManager corpus(engine, test_corpus_options(scratch.file("corpus"), chunk));

  // Shadow truth: id -> bytes, mutated in lockstep with the manager.
  std::vector<std::pair<std::string, Sequence>> shadow;
  Rng rng(0x1CC0 + static_cast<std::uint64_t>(seed));
  std::uint64_t last_generation = corpus.generation();

  const auto find_shadow = [&](const std::string& id) {
    return std::find_if(shadow.begin(), shadow.end(),
                        [&](const auto& doc) { return doc.first == id; });
  };
  const auto fresh_bytes = [&](Index length) {
    Sequence bytes;
    bytes.reserve(static_cast<std::size_t>(length));
    for (Index i = 0; i < length; ++i) {
      bytes.push_back(static_cast<Symbol>(rng.uniform(0, 3)));
    }
    return bytes;
  };

  for (int edit = 0; edit < edits; ++edit) {
    const std::string& id = ids[static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(ids.size()) - 1))];
    const auto it = find_shadow(id);
    const int op = static_cast<int>(rng.uniform(0, 4));

    if (op == 3 && it != shadow.end()) {
      // Delete: pairs naming the id leave the index.
      corpus.remove_document(id);
      shadow.erase(it);
      EXPECT_FALSE(corpus.version(id).has_value());
    } else {
      Sequence bytes;
      if (it == shadow.end()) {
        // (Re-)add: a fresh document, deliberately not chunk-aligned.
        bytes = fresh_bytes(base_length + rng.uniform(1, 400));
      } else if (op == 0) {
        // Append: the only shape the Resume plan applies to.
        bytes = it->second;
        const Sequence tail = fresh_bytes(rng.uniform(1, 150));
        bytes.insert(bytes.end(), tail.begin(), tail.end());
      } else if (op == 1) {
        // In-place edit: flip a handful of symbols somewhere.
        bytes = it->second;
        const Index flips = rng.uniform(1, 5);
        for (Index k = 0; k < flips; ++k) {
          const auto pos = static_cast<std::size_t>(
              rng.uniform(0, static_cast<std::int64_t>(bytes.size()) - 1));
          bytes[pos] = static_cast<Symbol>(rng.uniform(0, 3));
        }
      } else {
        // Truncate (op == 2, or a delete rolled for an absent id), keeping
        // at least base_length symbols.
        bytes = it->second;
        const auto size = static_cast<Index>(bytes.size());
        const auto keep = static_cast<std::size_t>(
            rng.uniform(std::min(std::max<Index>(1, base_length), size), size));
        bytes.resize(keep);
      }

      const bool expect_change = it == shadow.end() || it->second != bytes;
      const UpsertReport report = corpus.upsert_document(id, bytes);
      EXPECT_EQ(report.changed, expect_change);
      tally.add(report);
      if (it == shadow.end()) {
        shadow.emplace_back(id, std::move(bytes));
      } else {
        it->second = std::move(bytes);
      }
      if (report.changed) {
        EXPECT_GT(report.generation, last_generation);
        last_generation = report.generation;
      }
    }

    // Differential oracle: every live pair, read (so combed if deferred) and
    // bit-compared against a fresh full recompute of the shadow bytes.
    std::sort(shadow.begin(), shadow.end());
    for (std::size_t i = 0; i < shadow.size(); ++i) {
      for (std::size_t j = i + 1; j < shadow.size(); ++j) {
        expect_published_pair_matches_oracle(
            engine, shadow[i].second, shadow[j].second,
            "seed " + std::to_string(seed) + " edit " + std::to_string(edit) +
                " pair " + shadow[i].first + "/" + shadow[j].first);
      }
    }
    EXPECT_EQ(corpus.index_entries().size(),
              shadow.size() < 2 ? 0 : shadow.size() * (shadow.size() - 1) / 2);
    ++tally.scripts;
  }
}

TEST(IncrementalCorpus, EditScriptDifferentialOracle) {
  constexpr int kSeeds = 12;
  constexpr int kEditsPerSeed = 18;  // 12 * 18 = 216 seeded edit scripts
  PlanTally small;
  for (int seed = 0; seed < kSeeds; ++seed) {
    run_edit_script(seed, kEditsPerSeed, /*chunk=*/64, /*base_length=*/0,
                    {"alpha", "beta", "gamma"}, small);
  }
  EXPECT_GE(small.scripts, 200);
  EXPECT_GT(small.deferred, 0u);

  // 36 more scripts on two documents of at least 4500 symbols, past the
  // gate's crossover: once both documents exist, an append resumes from the
  // pair kernel the previous step's read left (one tail strip, as chunk >=
  // every tail), everything else is deferred.
  PlanTally large;
  for (int seed = kSeeds; seed < kSeeds + 3; ++seed) {
    run_edit_script(seed, /*edits=*/12, /*chunk=*/150, /*base_length=*/4500,
                    {"alpha", "beta"}, large);
  }
  EXPECT_GT(large.resumed, 0u);
  EXPECT_GT(large.deferred, 0u);
}

// ---------------------------------------------------------------------------
// The resume gate and each upsert plan's accounting.

TEST(IncrementalCorpus, ResumeGateFollowsTheCostModel) {
  // Small shapes: a compose costs more than recombing the whole pair.
  EXPECT_FALSE(resume_profitable(110, 100, 10, 64));
  EXPECT_FALSE(resume_profitable(464, 400, 64, 64));
  // corpus_mixed: 3000-symbol documents and 256-symbol appends; at the top
  // of its range (4500 symbols) the append resumes.
  EXPECT_FALSE(resume_profitable(3256, 3000, 256, 1024));
  EXPECT_TRUE(resume_profitable(4500, 3000, 256, 1024));
  // Appends above the crossover resume, as in upsert_sweep's append legs.
  EXPECT_TRUE(resume_profitable(9000, 8000, 1000, 1000));
  EXPECT_TRUE(resume_profitable(33000, 32000, 1000, 1000));
  EXPECT_TRUE(resume_profitable(kResumeLength + 64, kResumeLength, 64, 64));
  // Each strip adds a compose: at 10000 two strips still resume, three not.
  EXPECT_TRUE(resume_profitable(10128, 10000, 128, 64));
  EXPECT_FALSE(resume_profitable(10150, 10000, 150, 64));
  // upsert_mid_* as a resume from the edit's chunk boundary, recombing the
  // half after it: the composes outweigh the cells kept, so Whole wins.
  EXPECT_FALSE(resume_profitable(8000, 8000, 4000, 1000));
  EXPECT_FALSE(resume_profitable(32000, 32000, 16000, 1000));
  // Nothing kept, nothing appended, or an empty other side: Whole.
  EXPECT_FALSE(resume_profitable(9000, 8000, 9000, 1000));
  EXPECT_FALSE(resume_profitable(9000, 8000, 0, 1000));
  EXPECT_FALSE(resume_profitable(9000, 0, 1000, 1000));
}

TEST(IncrementalCorpus, AppendReusesWholeDocumentPrefix) {
  const ScratchDir scratch;
  ComparisonEngine engine(test_engine_options(scratch.file("store")));
  CorpusManager corpus(engine, test_corpus_options(scratch.file("corpus"), 64));

  const Sequence other = testing::random_string(kResumeLength, 4, 11);
  Sequence doc = testing::random_string(kResumeLength, 4, 12);
  corpus.upsert_document("other", other);
  corpus.upsert_document("doc", doc);
  (void)read_pair(engine, doc, other);  // the read combs the pair kernel

  // Append one chunk: the previous pair kernel is in the store, so only the
  // new strip is combed and one compose stitches it on. Nothing from the
  // old document is recomputed.
  const Sequence tail = testing::random_string(64, 4, 13);
  doc.insert(doc.end(), tail.begin(), tail.end());
  const UpsertReport report = corpus.upsert_document("doc", doc);
  EXPECT_TRUE(report.changed);
  EXPECT_EQ(report.pairs, 1u);
  EXPECT_EQ(report.prefix_reused, 1u);
  EXPECT_EQ(report.chunks_computed, 1u);
  EXPECT_EQ(report.chunks_reused, 0u);
  EXPECT_EQ(report.composes, 1u);
  expect_published_pair_matches_oracle(engine, doc, other, "append");
}

TEST(IncrementalCorpus, AppendResumesAcrossSeveralTailStrips) {
  const ScratchDir scratch;
  ComparisonEngine engine(test_engine_options(scratch.file("store")));
  CorpusManager corpus(engine, test_corpus_options(scratch.file("corpus"), 64));

  // At 10000 symbols a two-strip resume still beats recombing the pair.
  const Sequence other = testing::random_string(10000, 4, 14);
  Sequence doc = testing::random_string(10000, 4, 15);
  corpus.upsert_document("a", other);
  corpus.upsert_document("b", doc);
  (void)read_pair(engine, other, doc);

  // The grown document is the pair's b side, so both 64-symbol tail strips
  // are composed vertically, in order.
  const Sequence tail = testing::random_string(128, 4, 16);
  doc.insert(doc.end(), tail.begin(), tail.end());
  const UpsertReport report = corpus.upsert_document("b", doc);
  EXPECT_EQ(report.prefix_reused, 1u);
  EXPECT_EQ(report.chunks_computed, 2u);
  EXPECT_EQ(report.composes, 2u);
  expect_published_pair_matches_oracle(engine, other, doc, "two-strip append");
}

TEST(IncrementalCorpus, MidEditRecomputesPairWhole) {
  const ScratchDir scratch;
  ComparisonEngine engine(test_engine_options(scratch.file("store")));
  CorpusManager corpus(engine, test_corpus_options(scratch.file("corpus"), 64));

  const Sequence other = testing::random_string(kResumeLength, 4, 21);
  Sequence doc = testing::random_string(kResumeLength, 4, 22);
  corpus.upsert_document("other", other);
  corpus.upsert_document("doc", doc);
  (void)read_pair(engine, doc, other);

  // Even at a length where appends resume, and with the previous pair
  // kernel in the store, an in-place edit is not an extension: the upsert
  // combs nothing, and the pair's first read recombs it as one job.
  doc[kResumeLength / 2] = (doc[kResumeLength / 2] + 1) % 4;
  const std::uint64_t computed = engine.stats().scheduler.computed;
  const UpsertReport report = corpus.upsert_document("doc", doc);
  EXPECT_TRUE(report.changed);
  EXPECT_EQ(report.pairs, 1u);
  EXPECT_EQ(report.prefix_reused, 0u);
  EXPECT_EQ(report.chunks_computed, 0u);
  EXPECT_EQ(report.chunks_reused, 0u);
  EXPECT_EQ(report.composes, 0u);
  EXPECT_EQ(engine.stats().scheduler.computed, computed);
  expect_published_pair_matches_oracle(engine, doc, other, "mid-edit");
  EXPECT_EQ(engine.stats().scheduler.computed, computed + 1);
}

TEST(IncrementalCorpus, TruncationBackToEarlierBytesIsCached) {
  const ScratchDir scratch;
  ComparisonEngine engine(test_engine_options(scratch.file("store")));
  CorpusManager corpus(engine, test_corpus_options(scratch.file("corpus"), 64));

  const Sequence other = testing::random_string(300, 4, 31);
  const Sequence doc = testing::random_string(400, 4, 32);
  corpus.upsert_document("other", other);
  corpus.upsert_document("doc", doc);
  (void)read_pair(engine, doc, other);  // version 1's pair kernel, combed by a read
  Sequence grown = doc;
  const Sequence tail = testing::random_string(90, 4, 33);
  grown.insert(grown.end(), tail.begin(), tail.end());
  corpus.upsert_document("doc", grown);

  // Truncating the tail away restores version 1's bytes, whose pair kernel
  // is still in the store under its content key: nothing is combed.
  const std::uint64_t computed = engine.stats().scheduler.computed;
  const UpsertReport report = corpus.upsert_document("doc", doc);
  EXPECT_TRUE(report.changed);
  EXPECT_EQ(report.version, 3);
  EXPECT_EQ(report.chunks_reused, 1u);
  EXPECT_EQ(report.chunks_computed, 0u);
  EXPECT_EQ(report.prefix_reused, 0u);
  EXPECT_EQ(report.composes, 0u);
  EXPECT_EQ(engine.stats().scheduler.computed, computed);
  expect_published_pair_matches_oracle(engine, doc, other, "truncation");
}

TEST(IncrementalCorpus, UpsertBuildsNoIndexUntilAPointQuery) {
  // An upsert combs no pair; the pair's first kernel-backed read combs it,
  // on a real worker, without a QueryIndex. Point queries on the published
  // pair are scanned until they have cost about one build
  // (CachedKernel::kScansPerBuild): two build none.
  const ScratchDir scratch;
  EngineOptions engine_options = test_engine_options(scratch.file("store"));
  engine_options.scheduler.workers = 1;
  ComparisonEngine engine(engine_options);
  CorpusManagerOptions corpus_options = test_corpus_options(scratch.file("corpus"), 64);
  corpus_options.drain_inline = false;
  CorpusManager corpus(engine, corpus_options);

  const Sequence other = testing::random_string(300, 4, 41);
  const Sequence doc = testing::random_string(320, 4, 42);
  corpus.upsert_document("other", other);
  const std::uint64_t computed = engine.stats().scheduler.computed;
  const UpsertReport report = corpus.upsert_document("doc", doc);
  ASSERT_EQ(report.pairs, 1u);
  ASSERT_EQ(report.chunks_computed, 0u);  // deferred to the read path
  EXPECT_EQ(engine.stats().scheduler.computed, computed);

  const SemiLocalKernel oracle = semi_local_kernel(doc, other);
  EXPECT_EQ(engine.string_substring(doc, other, 17, 250),
            oracle.string_substring(17, 250));
  EXPECT_EQ(engine.substring_string(doc, other, 30, 301),
            oracle.substring_string(30, 301));
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.scheduler.computed, computed + 1) << "the pair is combed once, on read";
  EXPECT_EQ(stats.queries.index_builds, 0u);
  EXPECT_EQ(stats.queries.scanned, 2u);
  EXPECT_EQ(stats.queries.indexed, 0u);
}

TEST(IncrementalCorpus, UpsertCombsNoPairUntilItIsAsked) {
  // An upsert commits bytes and versions only. The pair kernels it leaves
  // out are combed by the read path on demand: a pair's first one-window
  // ask is a window job, its second combs the kernel, its third hits it.
  const ScratchDir scratch;
  ComparisonEngine engine(test_engine_options(scratch.file("store")));
  CorpusManager corpus(engine, test_corpus_options(scratch.file("corpus"), 64));
  const Sequence a = testing::random_string(260, 4, 44);
  const Sequence d = testing::random_string(300, 4, 45);
  corpus.upsert_document("a", a);
  corpus.upsert_document("b", testing::random_string(240, 4, 46));
  corpus.upsert_document("c", testing::random_string(280, 4, 47));

  const EngineStats before = engine.stats();
  const UpsertReport report = corpus.upsert_document("d", d);
  EXPECT_EQ(report.pairs, 3u);
  EXPECT_EQ(report.chunks_computed, 0u);
  EXPECT_EQ(report.chunks_reused, 0u);
  EXPECT_EQ(report.prefix_reused, 0u);
  EXPECT_EQ(engine.stats().scheduler.computed, before.scheduler.computed);
  EXPECT_EQ(engine.stats().scheduler.scores_computed, before.scheduler.scores_computed);
  EXPECT_EQ(corpus.index_entries().size(), 6u);  // every live pair is listed

  // Asks one window of (a, d); returns whether it was answered at once.
  const auto ask = [&](Index x, Index y) {
    const Index want = testing::lcs_oracle(
        a, SequenceView(d).subspan(static_cast<std::size_t>(x), static_cast<std::size_t>(y - x)));
    std::optional<Index> got;
    const std::optional<Index> now = engine.score_then(
        a, d, {QueryKind::kStringSubstring, x, y},
        [&got](Index value, std::exception_ptr failure) {
          if (!failure) got = value;
        });
    engine.drain();
    EXPECT_EQ(now.has_value() ? now : got, std::optional<Index>(want)) << x << ".." << y;
    return now.has_value();
  };
  EXPECT_FALSE(ask(10, 200));  // a window job
  EXPECT_EQ(engine.stats().scheduler.scores_computed, before.scheduler.scores_computed + 1);
  EXPECT_EQ(engine.stats().scheduler.computed, before.scheduler.computed);
  EXPECT_FALSE(ask(0, 300));  // the kernel, combed
  EXPECT_EQ(engine.stats().scheduler.computed, before.scheduler.computed + 1);
  EXPECT_TRUE(ask(45, 123));  // a hit
  const EngineStats after = engine.stats();
  EXPECT_EQ(after.scheduler.computed, before.scheduler.computed + 1);
  EXPECT_EQ(after.scheduler.scores_computed, before.scheduler.scores_computed + 1);
}

// ---------------------------------------------------------------------------
// Versioning and publish bookkeeping.

TEST(IncrementalCorpus, IdempotentSameBytesResend) {
  const ScratchDir scratch;
  ComparisonEngine engine(test_engine_options(scratch.file("store")));
  CorpusManager corpus(engine, test_corpus_options(scratch.file("corpus"), 64));

  const Sequence doc = testing::random_string(200, 4, 31);
  const UpsertReport first = corpus.upsert_document("doc", doc);
  EXPECT_TRUE(first.changed);
  EXPECT_EQ(first.version, 1);

  // A failed-over client re-sending the same bytes must not burn a version
  // or a generation -- this is what makes router retries safe.
  const UpsertReport again = corpus.upsert_document("doc", doc);
  EXPECT_FALSE(again.changed);
  EXPECT_EQ(again.version, 1);
  EXPECT_EQ(again.generation, first.generation);
  EXPECT_EQ(corpus.generation(), first.generation);
}

TEST(IncrementalCorpus, RemoveThenReaddStartsAtVersionOne) {
  const ScratchDir scratch;
  ComparisonEngine engine(test_engine_options(scratch.file("store")));
  CorpusManager corpus(engine, test_corpus_options(scratch.file("corpus"), 64));

  corpus.upsert_document("doc", testing::random_string(100, 4, 41));
  corpus.upsert_document("doc", testing::random_string(120, 4, 42));
  EXPECT_EQ(corpus.version("doc"), std::optional<Index>(2));

  const UpsertReport removed = corpus.remove_document("doc");
  EXPECT_TRUE(removed.changed);
  EXPECT_EQ(corpus.documents(), 0u);
  // Removing an absent id is a no-op, like the idempotent re-send.
  EXPECT_FALSE(corpus.remove_document("doc").changed);

  const UpsertReport readd =
      corpus.upsert_document("doc", testing::random_string(80, 4, 43));
  EXPECT_EQ(readd.version, 1);
  EXPECT_GT(readd.generation, removed.generation);
}

TEST(IncrementalCorpus, RejectsInvalidDocumentIds) {
  const ScratchDir scratch;
  ComparisonEngine engine(test_engine_options(scratch.file("store")));
  CorpusManager corpus(engine, test_corpus_options(scratch.file("corpus"), 64));

  const Sequence doc = testing::random_string(10, 4, 51);
  // Ids land in index.tsv columns and document filenames: whitespace, path
  // separators, control bytes and over-long names are all rejected before
  // any state changes.
  const std::vector<std::string> bad_ids = {
      "",           "has space",            "tab\tsep",
      "new\nline",  "dot/dot",              "back\\slash",
      std::string(129, 'x'), std::string("nul\0byte", 8)};
  for (const std::string& bad : bad_ids) {
    EXPECT_THROW(corpus.upsert_document(bad, doc), std::invalid_argument) << bad;
  }
  EXPECT_EQ(corpus.documents(), 0u);
  EXPECT_TRUE(valid_document_id("ok-id_1.2"));
  EXPECT_FALSE(valid_document_id("no space"));
}

TEST(IncrementalCorpus, UpsertReportEscapesTheDocumentId) {
  // valid_document_id admits '"', so the report must escape it: perfbench
  // and the wire clients parse these reports as JSON.
  const ScratchDir scratch;
  ComparisonEngine engine(test_engine_options(scratch.file("store")));
  CorpusManager corpus(engine, test_corpus_options(scratch.file("corpus"), 64));

  corpus.upsert_document("doc", testing::random_string(100, 4, 61));
  const UpsertReport report = corpus.upsert_document("q\"x", testing::random_string(90, 4, 62));
  EXPECT_EQ(report.json(),
            "{\"id\": \"q\\\"x\", \"version\": 1, \"generation\": 2, \"changed\": 1, "
            "\"pairs\": 1, \"chunks_computed\": 0, \"chunks_reused\": 0, "
            "\"prefix_reused\": 0, \"composes\": 0}");
}

TEST(IncrementalCorpus, RestartLoadsPublishedGeneration) {
  const ScratchDir scratch;
  // Past the gate's crossover, so the post-restart append below resumes.
  const Sequence doc_a = testing::random_string(kResumeLength, 4, 61);
  const Sequence doc_b = testing::random_string(kResumeLength, 4, 62);
  std::uint64_t generation = 0;

  {
    ComparisonEngine engine(test_engine_options(scratch.file("store")));
    CorpusManager corpus(engine, test_corpus_options(scratch.file("corpus"), 64));
    corpus.upsert_document("a", testing::random_string(100, 4, 60));
    corpus.upsert_document("a", doc_a);  // version 2
    corpus.upsert_document("b", doc_b);
    (void)read_pair(engine, doc_a, doc_b);  // the read combs and persists the pair
    generation = corpus.generation();
  }

  // A fresh manager over the same directory must resume exactly where the
  // last commit left off: generation, versions, bytes, pair entries.
  ComparisonEngine engine(test_engine_options(scratch.file("store")));
  CorpusManager corpus(engine, test_corpus_options(scratch.file("corpus"), 64));
  EXPECT_EQ(corpus.generation(), generation);
  EXPECT_EQ(corpus.documents(), 2u);
  EXPECT_EQ(corpus.version("a"), std::optional<Index>(2));
  EXPECT_EQ(corpus.version("b"), std::optional<Index>(1));
  EXPECT_EQ(corpus.document("a"), std::optional<Sequence>(doc_a));
  EXPECT_EQ(corpus.document("b"), std::optional<Sequence>(doc_b));
  const auto entries = corpus.index_entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].id_a, "a");
  EXPECT_EQ(entries[0].ver_a, 2);
  EXPECT_EQ(entries[0].ver_b, 1);

  // And an idempotent re-send across the restart still recognises the bytes.
  EXPECT_FALSE(corpus.upsert_document("a", doc_a).changed);
  // The store persisted the pair kernel: an append resumes from it even
  // though this is a new process.
  Sequence grown = doc_a;
  const Sequence tail = testing::random_string(64, 4, 63);
  grown.insert(grown.end(), tail.begin(), tail.end());
  const UpsertReport report = corpus.upsert_document("a", grown);
  EXPECT_TRUE(report.changed);
  EXPECT_EQ(report.prefix_reused, 1u);
  EXPECT_EQ(report.chunks_computed, 1u);
  expect_published_pair_matches_oracle(engine, grown, doc_b, "post-restart");
}

TEST(IncrementalCorpus, ReloadIgnoresStoreFilesUnderForeignKeys) {
  // A store written under another digest holds every kernel under a name
  // the current make_pair_key never produces. Renaming each .slk file to a
  // random hex name stands in for one: a restart must recompute every pair
  // exactly, never load or quarantine a file it does not own. The documents
  // are past the gate's crossover, so a found pair kernel would resume.
  const ScratchDir scratch;
  const std::string store_dir = scratch.file("store");
  const Sequence doc_a = testing::random_string(kResumeLength, 4, 91);
  const Sequence doc_b = testing::random_string(kResumeLength, 4, 92);
  const Sequence doc_c = testing::random_string(kResumeLength, 4, 93);
  {
    ComparisonEngine engine(test_engine_options(store_dir));
    CorpusManager corpus(engine, test_corpus_options(scratch.file("corpus"), 64));
    corpus.upsert_document("a", doc_a);
    corpus.upsert_document("b", doc_b);
    corpus.upsert_document("c", doc_c);
    for (const CorpusIndexEntry& entry : corpus.index_entries()) {
      (void)read_pair(engine, *corpus.document(entry.id_a), *corpus.document(entry.id_b));
    }
  }

  std::vector<std::filesystem::path> kernels;
  for (const auto& file : std::filesystem::directory_iterator(store_dir)) {
    if (file.path().extension() == ".slk") kernels.push_back(file.path());
  }
  ASSERT_EQ(kernels.size(), 3u);  // the three pair kernels the reads combed
  Rng rng(94);
  for (const auto& path : kernels) {
    std::string name;
    for (int i = 0; i < 32; ++i) name += "0123456789abcdef"[rng.uniform(0, 15)];
    std::filesystem::rename(path, path.parent_path() / (name + ".slk"));
  }

  ComparisonEngine engine(test_engine_options(store_dir));
  CorpusManager corpus(engine, test_corpus_options(scratch.file("corpus"), 64));
  // An upsert finds no kernel of the old bytes: neither pair resumes, both
  // are deferred to the reads below.
  Sequence grown = doc_a;
  const Sequence tail = testing::random_string(64, 4, 95);
  grown.insert(grown.end(), tail.begin(), tail.end());
  const UpsertReport report = corpus.upsert_document("a", grown);
  EXPECT_EQ(report.pairs, 2u);
  EXPECT_EQ(report.prefix_reused, 0u);
  EXPECT_EQ(report.chunks_reused, 0u);
  EXPECT_EQ(report.chunks_computed, 0u);

  const auto entries = corpus.index_entries();
  ASSERT_EQ(entries.size(), 3u);
  for (const CorpusIndexEntry& entry : entries) {
    const Sequence a = *corpus.document(entry.id_a);
    const Sequence b = *corpus.document(entry.id_b);
    expect_published_pair_matches_oracle(engine, a, b, entry.id_a + "/" + entry.id_b);
  }
  const EngineStats stats = engine.stats();
  EXPECT_GT(stats.scheduler.computed, 0u);
  EXPECT_EQ(stats.store.quarantined, 0u);
  EXPECT_EQ(stats.store.disk_hits, 0u);
}

TEST(IncrementalCorpus, IndexVersionColumnsRoundTripAndMalformedLinesThrow) {
  const ScratchDir scratch;
  std::vector<CorpusIndexEntry> entries(1);
  entries[0] = {"a", "b", 10, 20, "00112233445566778899aabbccddeeff", 3, 7};

  const std::string path = scratch.file("index.tsv");
  write_corpus_index(path, entries, nullptr, 42);
  std::uint64_t generation = 0;
  const auto read = read_corpus_index(path, nullptr, &generation);
  ASSERT_EQ(read.size(), 1u);
  EXPECT_EQ(generation, 42u);
  EXPECT_EQ(read[0].ver_a, 3);
  EXPECT_EQ(read[0].ver_b, 7);
  EXPECT_EQ(read[0].key_hex, entries[0].key_hex);

  // A pair line is exactly seven columns: one without its versions, with
  // one of them, with a non-numeric one or with a column too many is
  // malformed -- never read as version 0.
  for (const std::string line : {
           "x\ty\t5\t6\tffeeddccbbaa99887766554433221100",
           "x\ty\t5\t6\tffeeddccbbaa99887766554433221100\t1",
           "x\ty\t5\t6\tffeeddccbbaa99887766554433221100\t1\tv2",
           "x\ty\t5\t6\tffeeddccbbaa99887766554433221100\t1\t2\t3",
       }) {
    const std::string bad = scratch.file("bad.tsv");
    {
      std::ofstream out(bad);
      out << "#generation\t1\n#id_a\tid_b\tm\tn\tkey\tver_a\tver_b\n" << line << "\n";
    }
    try {
      (void)read_corpus_index(bad);
      ADD_FAILURE() << "accepted: " << line;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("malformed line"), std::string::npos)
          << e.what();
    }
  }
}

// ---------------------------------------------------------------------------
// IncrementalKernel differential pins (append_a / append_b) across uneven
// chunk sizes: 1 (every boundary), a prime (never aligns with anything), and
// a power of two (the cache-friendly default shape).

void run_incremental_append_pin(bool grow_a, Index chunk_size) {
  const Sequence fixed = testing::random_string(97, 4, 71);
  const Sequence grown_total = testing::random_string(90, 4, 72);

  IncrementalKernel incremental(grow_a ? SequenceView{} : SequenceView(fixed),
                                grow_a ? SequenceView(fixed) : SequenceView{});
  Sequence grown;
  std::size_t fed = 0;
  while (fed < grown_total.size()) {
    const std::size_t take =
        std::min(static_cast<std::size_t>(chunk_size), grown_total.size() - fed);
    const SequenceView chunk(grown_total.data() + fed, take);
    grown.insert(grown.end(), chunk.begin(), chunk.end());
    fed += take;
    if (grow_a) {
      incremental.append_a(chunk);
    } else {
      incremental.append_b(chunk);
    }
    // Pin after EVERY chunk, not just at the end: a compose-order bug can
    // cancel out over a full run but not at every intermediate length.
    const SemiLocalKernel fresh = grow_a ? semi_local_kernel(grown, fixed)
                                         : semi_local_kernel(fixed, grown);
    expect_kernel_equal(incremental.kernel(), fresh,
                        (grow_a ? std::string("append_a") : std::string("append_b")) +
                            " chunk_size " + std::to_string(chunk_size) +
                            " length " + std::to_string(grown.size()));
  }
}

TEST(IncrementalKernel, AppendAPinsAcrossUnevenChunkSizes) {
  for (const Index chunk_size : {Index{1}, Index{13}, Index{32}}) {
    run_incremental_append_pin(/*grow_a=*/true, chunk_size);
  }
}

TEST(IncrementalKernel, AppendBPinsAcrossUnevenChunkSizes) {
  for (const Index chunk_size : {Index{1}, Index{13}, Index{32}}) {
    run_incremental_append_pin(/*grow_a=*/false, chunk_size);
  }
}

TEST(IncrementalKernel, InterleavedAppendsMatchFreshKernel) {
  Rng rng(81);
  IncrementalKernel incremental({}, {});
  Sequence a;
  Sequence b;
  for (int step = 0; step < 24; ++step) {
    const Index len = rng.uniform(1, 17);  // uneven on purpose
    Sequence chunk;
    for (Index i = 0; i < len; ++i) {
      chunk.push_back(static_cast<Symbol>(rng.uniform(0, 3)));
    }
    if (rng.uniform(0, 1) == 0) {
      a.insert(a.end(), chunk.begin(), chunk.end());
      incremental.append_a(chunk);
    } else {
      b.insert(b.end(), chunk.begin(), chunk.end());
      incremental.append_b(chunk);
    }
    expect_kernel_equal(incremental.kernel(), semi_local_kernel(a, b),
                        "interleaved step " + std::to_string(step));
  }
}

// ---------------------------------------------------------------------------
// Concurrency hammer (the TSan target): upserts on distinct ids racing
// queries and each other through the shared engine, store and corpus lock.

TEST(IncrementalCorpus, WritesTakeTurnsAndFinishBeforeTheManagerGoes) {
  // Three writes queued at once on a workers = 0 engine that nobody drains:
  // only the first plan is queued, the others wait for the writer turn.
  // The manager's destructor then runs them, in turn, before it lets go of
  // the state their continuations hold (the ASan slice runs this).
  ComparisonEngine engine(test_engine_options(""));
  std::vector<std::pair<Index, std::uint64_t>> reports;  // (version, generation)
  {
    CorpusManagerOptions options = test_corpus_options("", 64);
    options.drain_inline = false;
    CorpusManager corpus(engine, options);
    const auto record = [&reports](UpsertReport report, std::exception_ptr failure) {
      EXPECT_FALSE(failure);
      reports.emplace_back(report.version, report.generation);
    };
    corpus.upsert_async("a", testing::random_string(200, 4, 41), record);
    corpus.upsert_async("b", testing::random_string(200, 4, 42), record);
    corpus.upsert_async("a", testing::random_string(220, 4, 43), record);
    EXPECT_EQ(engine.stats().scheduler.queue_depth, 1u);
    EXPECT_TRUE(reports.empty());
  }
  using Report = std::pair<Index, std::uint64_t>;
  EXPECT_EQ(reports, (std::vector<Report>{{1, 1}, {1, 2}, {2, 3}}));
  EXPECT_EQ(engine.stats().scheduler.computed, 0u);  // (a, b) is left to its first read
}

TEST(IncrementalCorpus, ConcurrentUpsertsAndReads) {
  const ScratchDir scratch;
  EngineOptions engine_options = test_engine_options(scratch.file("store"));
  engine_options.scheduler.workers = 2;
  ComparisonEngine engine(engine_options);
  CorpusManagerOptions corpus_options =
      test_corpus_options(scratch.file("corpus"), 32);
  corpus_options.drain_inline = false;  // real workers this time
  CorpusManager corpus(engine, corpus_options);

  corpus.upsert_document("w0", testing::random_string(96, 4, 90));
  corpus.upsert_document("w1", testing::random_string(96, 4, 91));

  constexpr int kWriters = 2;
  constexpr int kRounds = 6;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> team;
  for (int w = 0; w < kWriters; ++w) {
    team.emplace_back([&, w] {
      try {
        const std::string id = "w" + std::to_string(w);
        Sequence doc = *corpus.document(id);
        Rng rng(100 + static_cast<std::uint64_t>(w));
        for (int round = 0; round < kRounds; ++round) {
          const Sequence tail = testing::random_string(
              rng.uniform(1, 48), 4, 200 + static_cast<std::uint64_t>(round));
          doc.insert(doc.end(), tail.begin(), tail.end());
          corpus.upsert_document(id, doc);
        }
      } catch (...) {
        failures.fetch_add(1);
      }
    });
  }
  team.emplace_back([&] {
    // Readers race the writers through the same mutex and engine, and
    // comb the pair the writers keep deferring.
    while (!stop.load(std::memory_order_relaxed)) {
      (void)corpus.generation();
      (void)corpus.index_entries();
      const auto w0 = corpus.document("w0");
      const auto w1 = corpus.document("w1");
      try {
        if (w0 && w1) (void)engine.entry(*w0, *w1);
      } catch (...) {
        failures.fetch_add(1);
      }
      std::this_thread::yield();
    }
  });
  for (int w = 0; w < kWriters; ++w) team[static_cast<std::size_t>(w)].join();
  stop.store(true, std::memory_order_relaxed);
  team.back().join();

  EXPECT_EQ(failures.load(), 0);
  ASSERT_EQ(corpus.documents(), 2u);
  const Sequence final_w0 = *corpus.document("w0");
  const Sequence final_w1 = *corpus.document("w1");
  expect_published_pair_matches_oracle(engine, final_w0, final_w1, "hammer");
}

}  // namespace
}  // namespace semilocal
