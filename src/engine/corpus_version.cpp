#include "engine/corpus_version.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "engine/key.hpp"
#include "util/json.hpp"

namespace semilocal {

namespace {

/// Document bytes on disk: one little-endian i32 per symbol, so arbitrary
/// alphabets (packed DNA, raw bytes, the paper's integer workloads) persist
/// losslessly.
std::string encode_symbols(const Sequence& bytes) {
  std::string out;
  out.reserve(bytes.size() * 4);
  for (const Symbol s : bytes) {
    const auto u = static_cast<std::uint32_t>(s);
    out.push_back(static_cast<char>(u & 0xff));
    out.push_back(static_cast<char>((u >> 8) & 0xff));
    out.push_back(static_cast<char>((u >> 16) & 0xff));
    out.push_back(static_cast<char>((u >> 24) & 0xff));
  }
  return out;
}

Sequence decode_symbols(const std::string& blob) {
  if (blob.size() % 4 != 0) {
    throw std::runtime_error("corpus: torn document file (size not 4-aligned)");
  }
  Sequence out;
  out.reserve(blob.size() / 4);
  for (std::size_t i = 0; i < blob.size(); i += 4) {
    const auto byte = [&](std::size_t k) {
      return static_cast<std::uint32_t>(static_cast<unsigned char>(blob[i + k]));
    };
    out.push_back(static_cast<Symbol>(byte(0) | (byte(1) << 8) | (byte(2) << 16) |
                                      (byte(3) << 24)));
  }
  return out;
}

}  // namespace

bool valid_document_id(const std::string& id) {
  if (id.empty() || id.size() > 128) return false;
  for (const char c : id) {
    const auto u = static_cast<unsigned char>(c);
    // Printable, non-space ASCII only: ids land in whitespace-separated
    // index.tsv columns and in document filenames.
    if (u <= ' ' || u > '~' || c == '/' || c == '\\') return false;
  }
  return true;
}

std::string UpsertReport::json() const {
  Json out;
  out.begin_object().field("id", id).field("version", version);
  out.field("generation", generation).field("changed", changed ? 1 : 0);
  out.field("pairs", pairs).field("chunks_computed", chunks_computed);
  out.field("chunks_reused", chunks_reused).field("prefix_reused", prefix_reused);
  out.field("composes", composes).end_object();
  return out.str();
}

CorpusManager::CorpusManager(ComparisonEngine& engine, CorpusManagerOptions options)
    : engine_(engine), options_(std::move(options)) {
  env_ = options_.env != nullptr ? options_.env : &real_env();
  if (options_.chunk < 1) throw std::invalid_argument("corpus: chunk must be >= 1");
  if (!options_.dir.empty()) {
    env_->create_dirs(options_.dir);
    env_->create_dirs(options_.dir + "/docs");
    load_from_dir();
  }
}

std::string CorpusManager::index_path() const { return options_.dir + "/index.tsv"; }

std::string CorpusManager::doc_path(const std::string& id, Index version) const {
  return options_.dir + "/docs/" + id + ".v" + std::to_string(version);
}

void CorpusManager::load_from_dir() {
  const std::string path = index_path();
  if (!env_->exists(path)) return;
  std::string data;
  try {
    data = env_->read_file(path);
  } catch (const EnvError& e) {
    throw std::runtime_error(std::string("corpus load: ") + e.what());
  }
  std::istringstream in(data);
  std::string line;
  while (std::getline(in, line)) {
    constexpr std::string_view kGenTag = "#generation\t";
    constexpr std::string_view kDocTag = "#doc\t";
    if (line.rfind(kGenTag, 0) == 0) {
      generation_ = std::stoull(line.substr(kGenTag.size()));
      continue;
    }
    if (line.rfind(kDocTag, 0) != 0) continue;
    std::istringstream fields(line.substr(kDocTag.size()));
    std::string id;
    Index version = 0;
    std::size_t length = 0;
    if (!(fields >> id >> version >> length) || !valid_document_id(id)) {
      throw std::runtime_error("corpus load: malformed #doc line: " + line);
    }
    std::string blob;
    try {
      blob = env_->read_file(doc_path(id, version));
    } catch (const EnvError& e) {
      throw std::runtime_error(std::string("corpus load: ") + e.what());
    }
    Sequence bytes = decode_symbols(blob);
    if (bytes.size() != length) {
      throw std::runtime_error("corpus load: document " + id + " v" +
                               std::to_string(version) + " has " +
                               std::to_string(bytes.size()) + " symbols, manifest says " +
                               std::to_string(length));
    }
    docs_[id] = Doc{version, std::move(bytes)};
  }
}

std::vector<CorpusIndexEntry> CorpusManager::entries_locked() const {
  std::vector<CorpusIndexEntry> out;
  for (auto i = docs_.begin(); i != docs_.end(); ++i) {
    for (auto j = std::next(i); j != docs_.end(); ++j) {
      out.push_back(CorpusIndexEntry{
          .id_a = i->first,
          .id_b = j->first,
          .m = static_cast<Index>(i->second.bytes.size()),
          .n = static_cast<Index>(j->second.bytes.size()),
          .key_hex = make_pair_key(i->second.bytes, j->second.bytes).hex(),
          .ver_a = i->second.version,
          .ver_b = j->second.version});
    }
  }
  return out;
}

void CorpusManager::publish_locked(const std::vector<CorpusIndexEntry>& entries,
                                   std::uint64_t generation) {
  if (options_.dir.empty()) return;
  std::string manifest;
  for (const auto& [id, doc] : docs_) {
    manifest += "#doc\t" + id + '\t' + std::to_string(doc.version) + '\t' +
                std::to_string(doc.bytes.size()) + '\n';
  }
  try {
    publish_corpus_index(index_path(), entries, generation, env_, manifest);
  } catch (const std::runtime_error& e) {
    throw CorpusPublishError(e.what());
  }
}

UpsertReport CorpusManager::upsert_document(const std::string& id, Sequence bytes) {
  if (!valid_document_id(id)) {
    throw std::invalid_argument("corpus: bad document id");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  UpsertReport report;
  report.id = id;

  const auto it = docs_.find(id);
  if (it != docs_.end() && it->second.bytes == bytes) {
    report.version = it->second.version;
    report.generation = generation_;
    return report;  // idempotent: same bytes, nothing to republish
  }
  const bool existed = it != docs_.end();
  const Index new_version = existed ? it->second.version + 1 : 1;
  const auto new_len = static_cast<Index>(bytes.size());
  const Index kept = existed ? static_cast<Index>(it->second.bytes.size()) : 0;
  const bool extends = existed && kept < new_len &&
                       std::equal(it->second.bytes.begin(), it->second.bytes.end(),
                                  bytes.begin());

  // Plan every pair, submitting all comb jobs before joining any so the
  // scheduler batches them. Store writes are additive and content-addressed,
  // so a failure (or crash) beyond this point never corrupts the previous
  // generation.
  struct Pending {
    PairKey key;
    bool a_side = false;
    CachedKernelPtr base;  // Resume: the previous pair kernel
    std::vector<std::shared_future<CachedKernelPtr>> strips;
  };
  std::vector<Pending> pending;
  KernelStore& store = engine_.store();
  for (const auto& [other_id, other] : docs_) {
    if (other_id == id) continue;
    ++report.pairs;
    const bool a_side = id < other_id;
    const auto key_of = [&](SequenceView doc) {
      return a_side ? make_pair_key(doc, other.bytes) : make_pair_key(other.bytes, doc);
    };
    const auto comb = [&](SequenceView doc) {
      ++report.chunks_computed;
      return a_side ? engine_.entry_async(doc, other.bytes)
                    : engine_.entry_async(other.bytes, doc);
    };
    Pending pair{.key = key_of(bytes), .a_side = a_side, .base = nullptr, .strips = {}};
    if (store.find(pair.key) != nullptr) {
      ++report.chunks_reused;  // Cached
      continue;
    }
    if (extends && resume_profitable(new_len, static_cast<Index>(other.bytes.size()),
                                     new_len - kept, options_.chunk)) {
      pair.base = store.find(key_of(it->second.bytes));
    }
    if (pair.base == nullptr) {
      pair.strips.push_back(comb(bytes));  // Whole
    } else {
      ++report.prefix_reused;  // Resume
      for (Index lo = kept; lo < new_len; lo += options_.chunk) {
        pair.strips.push_back(comb(SequenceView(bytes).subspan(
            static_cast<std::size_t>(lo),
            static_cast<std::size_t>(std::min(options_.chunk, new_len - lo)))));
      }
    }
    pending.push_back(std::move(pair));
  }
  if (options_.drain_inline) engine_.drain();

  for (Pending& pair : pending) {
    if (pair.base == nullptr) {
      (void)pair.strips.front().get();  // the scheduler published it
      continue;
    }
    CachedKernelPtr acc = std::move(pair.base);
    for (const auto& strip : pair.strips) {
      const SemiLocalKernel& tail = strip.get()->kernel();
      SemiLocalKernel composed =
          pair.a_side ? compose_horizontal(acc->kernel(), tail, options_.ant, &workspace_)
                      : compose_vertical(acc->kernel(), tail, options_.ant, &workspace_);
      ++report.composes;
      acc = std::make_shared<const CachedKernel>(
          std::make_shared<const SemiLocalKernel>(std::move(composed)));
    }
    store.put(pair.key, std::move(acc));
  }

  const Doc previous = existed ? it->second : Doc{};
  docs_[id] = Doc{new_version, bytes};
  const std::vector<CorpusIndexEntry> entries = entries_locked();
  const std::uint64_t new_generation = generation_ + 1;
  try {
    if (!options_.dir.empty()) {
      const std::string path = doc_path(id, new_version);
      const std::string tmp = path + ".tmp";
      try {
        env_->write_file(tmp, encode_symbols(bytes));
        env_->rename_file(tmp, path);
      } catch (const EnvError& e) {
        try {
          env_->remove_file(tmp);
        } catch (const EnvError&) {
        }
        throw CorpusPublishError(std::string("corpus: document write: ") + e.what());
      }
    }
    // Give any pair/strip kernels that hit a transient persist fault one
    // more chance to land before the index references them.
    engine_.store().retry_pending();
    publish_locked(entries, new_generation);
  } catch (...) {
    // The commit failed: disk still holds the previous generation, so roll
    // the in-memory state back to match it.
    if (existed) {
      docs_[id] = previous;
    } else {
      docs_.erase(id);
    }
    throw;
  }
  generation_ = new_generation;
  if (existed && !options_.dir.empty()) {
    // Superseded bytes are garbage once the new generation is committed.
    try {
      env_->remove_file(doc_path(id, previous.version));
    } catch (const EnvError&) {
    }
  }
  report.version = new_version;
  report.generation = generation_;
  report.changed = true;
  return report;
}

UpsertReport CorpusManager::remove_document(const std::string& id) {
  if (!valid_document_id(id)) {
    throw std::invalid_argument("corpus: bad document id");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  UpsertReport report;
  report.id = id;
  const auto it = docs_.find(id);
  if (it == docs_.end()) {
    report.generation = generation_;
    return report;  // removing an absent id is a no-op
  }
  const Doc removed = it->second;
  docs_.erase(it);
  const std::vector<CorpusIndexEntry> entries = entries_locked();
  const std::uint64_t new_generation = generation_ + 1;
  try {
    publish_locked(entries, new_generation);
  } catch (...) {
    docs_[id] = removed;
    throw;
  }
  generation_ = new_generation;
  if (!options_.dir.empty()) {
    try {
      env_->remove_file(doc_path(id, removed.version));
    } catch (const EnvError&) {
    }
  }
  report.version = removed.version;
  report.generation = generation_;
  report.changed = true;
  return report;
}

std::uint64_t CorpusManager::generation() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return generation_;
}

std::size_t CorpusManager::documents() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return docs_.size();
}

std::optional<Index> CorpusManager::version(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = docs_.find(id);
  if (it == docs_.end()) return std::nullopt;
  return it->second.version;
}

std::optional<Sequence> CorpusManager::document(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = docs_.find(id);
  if (it == docs_.end()) return std::nullopt;
  return it->second.bytes;
}

std::vector<CorpusIndexEntry> CorpusManager::index_entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_locked();
}

}  // namespace semilocal
