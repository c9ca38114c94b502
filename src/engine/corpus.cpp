#include "engine/corpus.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace semilocal {

CorpusBuildReport precompute_corpus(const std::vector<FastaRecord>& records,
                                    KernelStore& store, const SemiLocalOptions& opts,
                                    bool parallel) {
  std::vector<Sequence> packed;
  packed.reserve(records.size());
  for (const FastaRecord& record : records) packed.push_back(pack_dna(record.residues));

  CorpusBuildReport report;
  std::vector<SequencePair> pairs;  // the subset of pairs needing compute
  for (std::size_t i = 0; i < records.size(); ++i) {
    for (std::size_t j = i + 1; j < records.size(); ++j) {
      const PairKey key = make_pair_key(packed[i], packed[j]);
      report.entries.push_back(CorpusIndexEntry{
          .id_a = records[i].id,
          .id_b = records[j].id,
          .m = static_cast<Index>(packed[i].size()),
          .n = static_cast<Index>(packed[j].size()),
          .key_hex = key.hex()});
      if (store.on_disk(key)) {
        ++report.reused;
        continue;
      }
      pairs.push_back({packed[i], packed[j]});
    }
  }

  // Chunked so a large corpus never holds more than one batch of kernels in
  // memory on top of the store cache.
  constexpr std::size_t kChunk = 256;
  SemiLocalOptions batch_opts = opts;
  batch_opts.parallel = parallel;
  for (std::size_t base = 0; base < pairs.size(); base += kChunk) {
    const std::size_t count = std::min(kChunk, pairs.size() - base);
    auto kernels = semi_local_kernel_batch({pairs.data() + base, count}, batch_opts);
    for (std::size_t k = 0; k < count; ++k) {
      const SequencePair& pair = pairs[base + k];
      store.put(make_pair_key(pair.a, pair.b),
                std::make_shared<const CachedKernel>(
                    std::make_shared<const SemiLocalKernel>(std::move(kernels[k]))));
      ++report.computed;
    }
    // Give pairs that hit a transient write fault another chance in-run.
    store.retry_pending();
  }
  store.retry_pending();
  // Whatever this run computed but could not land on disk is its durability
  // loss; surface it instead of pretending the corpus is fully persisted.
  if (store.persists()) {
    for (const SequencePair& pair : pairs) {
      if (!store.on_disk(make_pair_key(pair.a, pair.b))) ++report.persist_failures;
    }
  }
  return report;
}

namespace {

std::string serialize_corpus_index(const std::vector<CorpusIndexEntry>& entries,
                                   std::uint64_t generation,
                                   const std::string& extra_header = {}) {
  std::string out = "#generation\t" + std::to_string(generation) + '\n';
  out += extra_header;
  out += "#id_a\tid_b\tm\tn\tkey\tver_a\tver_b\n";
  for (const CorpusIndexEntry& e : entries) {
    out += e.id_a + '\t' + e.id_b + '\t' + std::to_string(e.m) + '\t' +
           std::to_string(e.n) + '\t' + e.key_hex + '\t' +
           std::to_string(e.ver_a) + '\t' + std::to_string(e.ver_b) + '\n';
  }
  return out;
}

}  // namespace

void write_corpus_index(const std::string& path,
                        const std::vector<CorpusIndexEntry>& entries, Env* env,
                        std::uint64_t generation) {
  if (env == nullptr) env = &real_env();
  try {
    env->write_file(path, serialize_corpus_index(entries, generation));
  } catch (const EnvError& e) {
    throw std::runtime_error(std::string("write_corpus_index: ") + e.what());
  }
}

void publish_corpus_index(const std::string& path,
                          const std::vector<CorpusIndexEntry>& entries,
                          std::uint64_t generation, Env* env,
                          const std::string& extra_header) {
  if (env == nullptr) env = &real_env();
  const std::string tmp = path + ".tmp";
  try {
    env->write_file(tmp, serialize_corpus_index(entries, generation, extra_header));
    env->rename_file(tmp, path);
  } catch (const EnvError& e) {
    // The torn temp file (if any) must not shadow a later publish attempt.
    try {
      env->remove_file(tmp);
    } catch (const EnvError&) {
    }
    throw std::runtime_error(std::string("publish_corpus_index: ") + e.what());
  }
}

std::vector<CorpusIndexEntry> read_corpus_index(const std::string& path, Env* env,
                                                std::uint64_t* generation) {
  if (env == nullptr) env = &real_env();
  if (generation != nullptr) *generation = 0;
  std::string data;
  try {
    data = env->read_file(path);
  } catch (const EnvError& e) {
    throw std::runtime_error(std::string("read_corpus_index: ") + e.what());
  }
  std::vector<CorpusIndexEntry> out;
  std::istringstream in(data);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      constexpr std::string_view kGenTag = "#generation\t";
      if (generation != nullptr && line.rfind(kGenTag, 0) == 0) {
        *generation = std::stoull(line.substr(kGenTag.size()));
      }
      continue;
    }
    // A pair line is exactly seven columns: a missing or non-numeric
    // version must not read as version 0.
    std::istringstream fields(line);
    CorpusIndexEntry entry;
    if (!(fields >> entry.id_a >> entry.id_b >> entry.m >> entry.n >> entry.key_hex >>
          entry.ver_a >> entry.ver_b) ||
        !(fields >> std::ws).eof()) {
      throw std::runtime_error("read_corpus_index: malformed line: " + line);
    }
    out.push_back(std::move(entry));
  }
  return out;
}

}  // namespace semilocal
