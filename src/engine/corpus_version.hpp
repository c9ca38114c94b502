// Versioned incremental corpus: cost-gated upserts.
//
// A CorpusManager owns a mutable set of named documents. An upsert commits
// the document's bytes, its version and index.tsv, which lists every live
// pair with the content key (make_pair_key of the pair's bytes) its kernel
// has in the engine's KernelStore. A pair kernel is a content-addressed
// store entry like any other: the read path combs it on demand, by the
// engine's rule (a pair's first one-window ask is a window job, its second
// combs the kernel). An upsert plans each pair (doc, other) one of three
// ways:
//
//   * Cached: the new pair kernel is already in the store (a truncation
//     back to earlier bytes, a re-add), so nothing is computed.
//   * Resume: the new bytes strictly extend the document's current bytes,
//     resume_profitable() says the append pays, and the store holds the
//     current pair kernel. The appended tail is combed in strips of at
//     most `chunk` symbols, and each strip is composed onto that kernel by
//     the steady-ant product (Thm 3.4): the comb pays only tail x n cells,
//     plus O(n log n + m) per compose (one product over the n strands
//     crossing the junction). This runs at upsert time because
//     the base kernel may be evicted before the pair is next read.
//   * Deferred: anything else. The upsert combs nothing; the pair's first
//     read combs it whole.
//
// Most pair versions are never read (a document changes again first), so
// combing only the ones someone reads saves most of the upsert's work.
//
// Writers take turns: an upsert or remove starts once the previous one has
// committed. An upsert plans on a scheduler worker and submits every
// Resume tail strip at once (entry_then), so no strip waits on another and
// all of them meet the same backpressure (EngineOverloaded) as queries; the
// thread that completes the last one composes and commits. None of them
// builds a QueryIndex; a pair builds its index once its point queries have
// cost about one build (or on its first batch), per
// CachedKernel::wants_index.
//
// Publish protocol (crash consistency; see DESIGN.md §14): composed Resume
// kernels land in the store first (additive and content-addressed, so a
// crash leaves orphans, never torn state), then the new document bytes land
// via temp-file + rename, and finally the whole index.tsv -- generation
// header, per-document version manifest, versioned pair entries -- is
// republished atomically via temp + rename. The rename is the commit point:
// a reader (or a restarted manager) sees the previous generation or the new
// one, entire, never a blend. In-memory state is mutated only after the
// commit succeeds. Old-version pair kernels are never touched: the new
// bytes hash to new keys, and stale entries age out of the cache.
#pragma once

#include <cmath>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/kernel.hpp"
#include "engine/corpus.hpp"
#include "engine/engine.hpp"

namespace semilocal {

struct CorpusManagerOptions {
  /// Corpus root: `index.tsv` plus `docs/<id>.v<version>` live here. Empty
  /// disables durability (in-memory corpus; kernels may still persist via
  /// the engine's store).
  std::string dir;
  /// Widest strip, in symbols, that a resumed append combs and composes in
  /// one step: a longer tail is split into several strips.
  Index chunk = 1024;
  /// workers = 0 engines: the blocking calls drain the scheduler on the
  /// calling thread before waiting (deterministic tests, stdio serving).
  bool drain_inline = false;
  /// Steady-ant configuration for the composition products.
  SteadyAntOptions ant = {.precalc = true, .preallocate = true};
  /// Filesystem for document bytes and the index. nullptr = real_env().
  Env* env = nullptr;
};

/// What one upsert (or remove) did, echoed to clients as the response text.
struct UpsertReport {
  std::string id;
  Index version = 0;            ///< document version after the call
  std::uint64_t generation = 0; ///< corpus generation after the call
  bool changed = false;         ///< false = same bytes, nothing republished
  /// Pairs planned against the other documents. Those on neither the
  /// Cached nor the Resume plan, pairs - chunks_reused - prefix_reused, are
  /// deferred: the upsert combs nothing for them.
  std::size_t pairs = 0;
  /// Comb jobs run: one per tail strip of a Resume pair.
  std::size_t chunks_computed = 0;
  /// Pairs on the Cached plan: the new pair kernel was already in the store.
  std::size_t chunks_reused = 0;
  /// Pairs on the Resume plan: the previous pair kernel was extended.
  std::size_t prefix_reused = 0;
  /// Steady-ant multiplications: one per Resume tail strip, none otherwise.
  std::size_t composes = 0;

  /// Compact JSON rendering (one flat object).
  [[nodiscard]] std::string json() const;
};

/// Thrown when an upsert computed its kernels but could not commit (document
/// write or index publish failed). The corpus -- in memory and on disk --
/// still serves the previous generation.
class CorpusPublishError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class CorpusManager {
 public:
  /// Binds to `engine` (whose store receives every tail strip and composed
  /// Resume kernel). If `options.dir` holds an index.tsv, the corpus -- documents,
  /// versions, generation -- is loaded from it.
  CorpusManager(ComparisonEngine& engine, CorpusManagerOptions options);
  /// Waits for the write in flight, and those queued behind it, to commit:
  /// they run on the engine's threads and hold this manager.
  ~CorpusManager();
  CorpusManager(const CorpusManager&) = delete;
  CorpusManager& operator=(const CorpusManager&) = delete;

  /// Inserts or updates a document. Identical bytes are a no-op (the
  /// current version is echoed; nothing is republished), which makes
  /// retried/failed-over upserts idempotent. Otherwise plans the pair with
  /// every other document (Cached, Resume or deferred), bumps the document
  /// version and corpus generation, and publishes atomically.
  /// Throws std::invalid_argument on a malformed id, EngineOverloaded under
  /// scheduler backpressure, CorpusPublishError when the commit fails.
  UpsertReport upsert_document(const std::string& id, Sequence bytes);

  /// The writes without a waiting thread (`bytes` = nullopt removes): `done`
  /// gets the report or the failure on the thread that commits or fails
  /// the write. Throws std::invalid_argument on a malformed id.
  void upsert_async(std::string id, std::optional<Sequence> bytes, Then<UpsertReport> done);

  /// Removes a document (its pairs leave the index; store files stay, they
  /// are content-addressed garbage). Removing an absent id is a no-op.
  UpsertReport remove_document(const std::string& id);

  [[nodiscard]] std::uint64_t generation() const;
  [[nodiscard]] std::size_t documents() const;
  /// Current version of `id`, or nullopt if absent.
  [[nodiscard]] std::optional<Index> version(const std::string& id) const;
  /// Current bytes of `id`, or nullopt if absent.
  [[nodiscard]] std::optional<Sequence> document(const std::string& id) const;
  /// The published pair entries (what index.tsv holds), id-sorted.
  [[nodiscard]] std::vector<CorpusIndexEntry> index_entries() const;

 private:
  struct Doc {
    Index version = 0;
    Sequence bytes;
  };
  struct Write;

  UpsertReport write_and_wait(const std::string& id, std::optional<Sequence> bytes);
  /// The write holds the turn: plan it (an upsert on a worker).
  void start(const std::shared_ptr<Write>& write);
  void plan(const std::shared_ptr<Write>& write);
  /// The plan or one of its comb jobs is done; the last commits and passes
  /// the turn on.
  void settle(const std::shared_ptr<Write>& write);
  /// Composes the resumed pairs and publishes the generation. Throws.
  UpsertReport commit(Write& write);

  /// The id-sorted pair entries for the current (locked) document map.
  [[nodiscard]] std::vector<CorpusIndexEntry> entries_locked() const;

  /// Serializes generation + #doc manifest + pair entries and publishes it
  /// via temp + rename. Throws CorpusPublishError on failure.
  void publish_locked(const std::vector<CorpusIndexEntry>& entries,
                      std::uint64_t generation);

  [[nodiscard]] std::string index_path() const;
  [[nodiscard]] std::string doc_path(const std::string& id, Index version) const;
  void load_from_dir();

  ComparisonEngine& engine_;
  CorpusManagerOptions options_;
  Env* env_;
  mutable std::mutex mutex_;
  /// Ordered: pair order is id order. Only the turn's writer changes it
  /// (under mutex_), so that writer reads it unlocked.
  std::map<std::string, Doc> docs_;
  std::uint64_t generation_ = 0;
  bool writing_ = false;                        // mutex_: the turn is held
  std::deque<std::shared_ptr<Write>> waiting_;  // mutex_: queued for the turn
  AntWorkspace workspace_;
};

/// Whether an append resumes from the previous pair kernel rather than
/// leaving the pair to be recombed whole when it is read. The document
/// grows to `m` symbols by a `tail`, against an `other` of `n` symbols; the
/// tail is combed in strips of at most `chunk` symbols, each composed onto
/// the kernel. Resume costs tail x n comb cells plus, per strip, one
/// steady-ant product of order n over the strands crossing the junction
/// (compose_horizontal/compose_vertical); a whole recomb costs m x n cells;
/// ties go to the recomb. The constants are committed rows of
/// results/bench_micro.json: 0.0883 ns/cell is the `comb_sizes` 8000 x 8000
/// row (the strip-mined serial comb, 5.65 ms), and 25.6 ns per n log2 n
/// step is the `compose` n = 8000 row's `ns_per_step` (a product of order
/// 8000 in 2.65 ms; precalc + preallocate, the corpus's SteadyAntOptions).
[[nodiscard]] inline bool resume_profitable(Index m, Index n, Index tail, Index chunk) {
  constexpr double kCombNsPerCell = 0.0883;
  constexpr double kComposeNsPerStep = 25.6;
  if (tail < 1 || tail >= m || n < 1 || chunk < 1) return false;
  const auto other = static_cast<double>(n);
  const auto composes = static_cast<double>((tail + chunk - 1) / chunk);
  const double resume = static_cast<double>(tail) * other * kCombNsPerCell +
                        composes * kComposeNsPerStep * other * std::log2(other);
  const double whole = static_cast<double>(m) * other * kCombNsPerCell;
  return resume < whole;
}

/// True iff `id` is usable as a document id: 1..128 printable ASCII chars,
/// no whitespace, no path separators (ids appear in index.tsv columns and
/// document filenames).
bool valid_document_id(const std::string& id);

}  // namespace semilocal
