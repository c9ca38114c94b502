// Corpus precompute: FASTA records -> a populated kernel store + index.
//
// The canonical precompute-then-query workload (Krusche-Tiskin alignment
// plots): every record pair of a corpus gets its semi-local kernel computed
// once, persisted content-addressed in a KernelStore, and listed in a
// human-readable index (`index.tsv`) that maps record-id pairs back to store
// keys so query tools can find kernels by name without rehashing sequences.
// Residues are packed with pack_dna before hashing/combing, matching what a
// DNA-mode server does to incoming requests -- the same pair therefore lands
// on the same store key whether it arrives via CLI precompute or the wire.
#pragma once

#include <string>
#include <vector>

#include "core/api.hpp"
#include "engine/env.hpp"
#include "engine/kernel_store.hpp"
#include "util/fasta.hpp"

namespace semilocal {

struct CorpusIndexEntry {
  std::string id_a;
  std::string id_b;
  Index m = 0;
  Index n = 0;
  std::string key_hex;
  /// Document versions behind this pair kernel (0 for unversioned corpora
  /// written by plain precompute; bumped per upsert by CorpusManager).
  Index ver_a = 0;
  Index ver_b = 0;
};

struct CorpusBuildReport {
  std::vector<CorpusIndexEntry> entries;  ///< one per record pair (i < j)
  std::size_t computed = 0;               ///< kernels computed this run
  std::size_t reused = 0;                 ///< pairs already on disk (skipped)
  /// Kernels computed but not persisted (store write failures during this
  /// run; they still served from the cache and a re-run recomputes them).
  std::size_t persist_failures = 0;
};

/// Computes and persists the kernels of all record pairs (i < j). Pairs whose
/// kernel file already exists are skipped, so interrupted runs resume. With
/// `parallel`, pairs are computed through the batched API (pairs are the
/// parallel unit; see core/api.hpp). Store write failures never abort the
/// run: they degrade to `persist_failures` in the report (after one retry
/// pass at the end), matching the serving path's degradation policy.
CorpusBuildReport precompute_corpus(const std::vector<FastaRecord>& records,
                                    KernelStore& store, const SemiLocalOptions& opts,
                                    bool parallel);

/// Writes / reads the tab-separated index (id_a, id_b, m, n, key, ver_a,
/// ver_b) plus a `#generation` header line. All I/O goes through `env`
/// (nullptr = real_env()), so fault-injection runs cover the index file
/// exactly like the kernel files. The reader throws on any pair line that
/// is not exactly those seven columns; a missing `#generation` reads as 0.
void write_corpus_index(const std::string& path,
                        const std::vector<CorpusIndexEntry>& entries,
                        Env* env = nullptr, std::uint64_t generation = 0);
std::vector<CorpusIndexEntry> read_corpus_index(const std::string& path,
                                                Env* env = nullptr,
                                                std::uint64_t* generation = nullptr);

/// Atomic index publish: the serialized index lands at `path + ".tmp"` first
/// and is renamed into place, so a crash mid-publish leaves the previous
/// index intact -- readers see the old generation or the new one, whole,
/// never a blend. This is the commit point of a versioned upsert.
/// `extra_header` (optional, must be '#'-prefixed lines) is embedded after
/// the generation line; CorpusManager uses it for the `#doc` manifest.
void publish_corpus_index(const std::string& path,
                          const std::vector<CorpusIndexEntry>& entries,
                          std::uint64_t generation, Env* env = nullptr,
                          const std::string& extra_header = {});

}  // namespace semilocal
