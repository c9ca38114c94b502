#include "engine/corpus_version.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <sstream>
#include <thread>
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

CorpusManager::~CorpusManager() {
  while (true) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!writing_) return;
    }
    // With workers = 0 nobody else runs the write.
    if (engine_.drain() == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
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

/// One upsert or remove, from its turn to its commit.
struct CorpusManager::Write {
  /// A Resume pair: the previous pair kernel and one strip per tail chunk.
  struct Pending {
    PairKey key;
    bool a_side = false;
    CachedKernelPtr base;
    std::vector<CachedKernelPtr> strips;  // filled as comb jobs land
  };

  std::string id;
  std::optional<Sequence> bytes;  ///< nullopt: a remove
  Then<UpsertReport> done;
  UpsertReport report;
  bool unchanged = false;
  std::vector<Pending> pending;
  /// The plan's own token plus one per comb job still running.
  std::atomic<std::size_t> outstanding{1};
  std::mutex failure_mutex;
  std::exception_ptr failure;  ///< the first failure, if any

  void fail(std::exception_ptr f) {
    std::lock_guard lock(failure_mutex);
    if (!failure) failure = std::move(f);
  }
};

UpsertReport CorpusManager::upsert_document(const std::string& id, Sequence bytes) {
  return write_and_wait(id, std::move(bytes));
}

UpsertReport CorpusManager::remove_document(const std::string& id) {
  return write_and_wait(id, std::nullopt);
}

UpsertReport CorpusManager::write_and_wait(const std::string& id,
                                           std::optional<Sequence> bytes) {
  auto promise = std::make_shared<std::promise<UpsertReport>>();
  std::future<UpsertReport> future = promise->get_future();
  upsert_async(id, std::move(bytes), fulfil(promise));
  if (options_.drain_inline) engine_.drain();
  return future.get();
}

void CorpusManager::upsert_async(std::string id, std::optional<Sequence> bytes,
                                 Then<UpsertReport> done) {
  if (!valid_document_id(id)) {
    throw std::invalid_argument("corpus: bad document id");
  }
  auto write = std::make_shared<Write>();
  write->id = write->report.id = std::move(id);
  write->bytes = std::move(bytes);
  write->done = std::move(done);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (writing_) {
      waiting_.push_back(std::move(write));
      return;
    }
    writing_ = true;
  }
  start(write);
}

void CorpusManager::start(const std::shared_ptr<Write>& write) {
  if (!write->bytes) return plan(write);  // a remove plans nothing
  try {
    engine_.submit_task([this, write] { plan(write); });
  } catch (...) {
    write->fail(std::current_exception());
    settle(write);
  }
}

void CorpusManager::plan(const std::shared_ptr<Write>& write) {
  try {
    UpsertReport& report = write->report;
    const auto it = docs_.find(write->id);
    if (!write->bytes || (it != docs_.end() && it->second.bytes == *write->bytes)) {
      write->unchanged = write->bytes.has_value();  // idempotent: same bytes
      return settle(write);
    }
    const Sequence& bytes = *write->bytes;
    const auto new_len = static_cast<Index>(bytes.size());
    const Index kept = it != docs_.end() ? static_cast<Index>(it->second.bytes.size()) : 0;
    const bool extends = it != docs_.end() && kept < new_len &&
                         std::equal(it->second.bytes.begin(), it->second.bytes.end(),
                                    bytes.begin());

    // Plan every pair. Only a Resume pair combs here: its tail strips are
    // submitted at once so the scheduler batches them, and each kernel
    // lands in its strip slot (`pending` is reserved: slots never move).
    // Any other pair is left to the read path, which combs it on demand.
    // Store writes are additive and content-addressed, so a failure (or
    // crash) beyond this point never corrupts the previous generation.
    KernelStore& store = engine_.store();
    write->pending.reserve(docs_.size());
    for (const auto& [other_id, other] : docs_) {
      if (other_id == write->id) continue;
      ++report.pairs;
      const bool a_side = write->id < other_id;
      const auto key_of = [&](SequenceView doc) {
        return a_side ? make_pair_key(doc, other.bytes) : make_pair_key(other.bytes, doc);
      };
      const PairKey key = key_of(bytes);
      if (store.find(key) != nullptr) {
        ++report.chunks_reused;  // Cached
        continue;
      }
      if (!extends || !resume_profitable(new_len, static_cast<Index>(other.bytes.size()),
                                         new_len - kept, options_.chunk)) {
        continue;  // deferred to the read path
      }
      CachedKernelPtr base = store.find(key_of(it->second.bytes));
      if (base == nullptr) continue;  // deferred: the previous kernel is gone
      ++report.prefix_reused;  // Resume
      std::vector<SequenceView> tails;
      for (Index lo = kept; lo < new_len; lo += options_.chunk) {
        tails.push_back(SequenceView(bytes).subspan(
            static_cast<std::size_t>(lo),
            static_cast<std::size_t>(std::min(options_.chunk, new_len - lo))));
      }
      write->pending.push_back(Write::Pending{
          .key = key, .a_side = a_side, .base = std::move(base), .strips = {}});
      std::vector<CachedKernelPtr>& strips = write->pending.back().strips;
      strips.resize(tails.size());
      for (std::size_t k = 0; k < tails.size(); ++k) {
        ++report.chunks_computed;
        CachedKernelPtr* slot = &strips[k];
        const auto landed = [this, write, slot](CachedKernelPtr strip,
                                                std::exception_ptr failure) {
          if (failure) {
            write->fail(std::move(failure));
          } else {
            *slot = std::move(strip);
          }
          settle(write);
        };
        write->outstanding.fetch_add(1, std::memory_order_relaxed);
        CachedKernelPtr hit;
        try {
          hit = a_side ? engine_.entry_then(tails[k], other.bytes, landed)
                       : engine_.entry_then(other.bytes, tails[k], landed);
        } catch (...) {
          write->outstanding.fetch_sub(1, std::memory_order_relaxed);
          throw;
        }
        if (hit) {  // landed at once; `landed` never runs
          *slot = std::move(hit);
          write->outstanding.fetch_sub(1, std::memory_order_relaxed);
        }
      }
    }
  } catch (...) {
    write->fail(std::current_exception());
  }
  settle(write);
}

void CorpusManager::settle(const std::shared_ptr<Write>& write) {
  if (write->outstanding.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  UpsertReport report;
  std::exception_ptr failure = write->failure;  // every writer of it has settled
  if (!failure) {
    try {
      report = commit(*write);
    } catch (...) {
      failure = std::current_exception();
    }
  }
  std::shared_ptr<Write> next;  // the turn passes on
  {
    std::lock_guard<std::mutex> lock(mutex_);
    writing_ = !waiting_.empty();
    if (writing_) {
      next = std::move(waiting_.front());
      waiting_.pop_front();
    }
  }
  write->done(std::move(report), failure);
  if (next) start(next);
}

UpsertReport CorpusManager::commit(Write& write) {
  for (Write::Pending& pair : write.pending) {
    CachedKernelPtr acc = std::move(pair.base);
    for (const CachedKernelPtr& strip : pair.strips) {
      const SemiLocalKernel& tail = strip->kernel();
      SemiLocalKernel composed =
          pair.a_side ? compose_horizontal(acc->kernel(), tail, options_.ant, &workspace_)
                      : compose_vertical(acc->kernel(), tail, options_.ant, &workspace_);
      ++write.report.composes;
      acc = std::make_shared<const CachedKernel>(
          std::make_shared<const SemiLocalKernel>(std::move(composed)));
    }
    engine_.store().put(pair.key, std::move(acc));
  }

  std::lock_guard<std::mutex> lock(mutex_);
  UpsertReport report = write.report;
  const std::string& id = write.id;
  const auto it = docs_.find(id);
  const bool existed = it != docs_.end();
  report.version = existed ? it->second.version : 0;
  report.generation = generation_;
  if (write.unchanged || (!write.bytes && !existed)) return report;  // nothing to publish
  const Doc previous = existed ? it->second : Doc{};
  const Index new_version = previous.version + 1;
  if (write.bytes) {
    docs_[id] = Doc{new_version, *write.bytes};
  } else {
    docs_.erase(it);
  }
  const std::vector<CorpusIndexEntry> entries = entries_locked();
  const std::uint64_t new_generation = generation_ + 1;
  try {
    if (write.bytes && !options_.dir.empty()) {
      const std::string path = doc_path(id, new_version);
      const std::string tmp = path + ".tmp";
      try {
        env_->write_file(tmp, encode_symbols(*write.bytes));
        env_->rename_file(tmp, path);
      } catch (const EnvError& e) {
        try {
          env_->remove_file(tmp);
        } catch (const EnvError&) {
        }
        throw CorpusPublishError(std::string("corpus: document write: ") + e.what());
      }
    }
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
  report.version = write.bytes ? new_version : previous.version;
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
