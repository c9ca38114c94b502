#include "replay.hpp"

#include <fstream>
#include <optional>

#include "core/api.hpp"
#include "engine/corpus_version.hpp"
#include "engine/engine.hpp"
#include "engine/key.hpp"
#include "engine/shard/router.hpp"
#include "metrics.hpp"
#include "open_loop.hpp"
#include "util/parallel.hpp"
#include "wire.hpp"

namespace perfbench {

using namespace semilocal;

namespace {

/// Spans kept in memory until the replay ends.
class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {}
  void record(bool on) { on_ = on; }
  int open(const char* name, int parent, std::size_t req) {
    if (!on_) return -1;
    spans_.push_back(Span{name, now_ns(), 0, parent, static_cast<std::uint32_t>(req)});
    return static_cast<int>(spans_.size() - 1);
  }
  void close(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  std::vector<Span> spans_;
};

class Scope {
 public:
  Scope(SpanLog& log, const char* name, int parent, std::size_t req)
      : log_(log), id_(log.open(name, parent, req)) {}
  ~Scope() { log_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

EngineOptions serve_defaults() {
  // What semilocal_serve runs with when given no engine flags.
  EngineOptions options;
  options.scheduler.workers = hardware_threads();
  return options;
}

/// A miss on the replayed request path: the pair and its submit -> ready time.
struct Miss {
  std::uint32_t sa;
  std::uint32_t sb;
  std::uint64_t resolve_ns;
};

struct Tally {
  std::uint64_t windows = 0;
  std::uint64_t bytes_hashed = 0;
  std::uint64_t keyed = 0;
  std::uint64_t plot_windows = 0;
  std::uint64_t strip_computes = 0;
  std::uint64_t miss_cells = 0;
  double upsert_cells = 0;
  std::vector<Miss> misses;
};

}  // namespace

ReplayResult replay(const Stream& s, const ReplayOptions& options) {
  SpanLog log(options.spans);
  Tally tally;

  // Query path layers, shared by every workload. corpus_mixed needs the
  // engine (plots, upserts); the others run a bare store + scheduler so the
  // scheduler is reached through its public submit().
  const EngineOptions defaults = serve_defaults();
  std::optional<ComparisonEngine> engine;
  std::optional<CorpusManager> corpus;
  std::optional<KernelStore> own_store;
  std::optional<KernelScheduler> own_scheduler;
  QueryCounters counters;
  const bool corpus_mode = s.workload == Workload::kCorpusMixed;
  if (corpus_mode) {
    engine.emplace(defaults);
    CorpusManagerOptions corpus_options;
    corpus_options.dir = options.corpus_dir;
    corpus.emplace(*engine, std::move(corpus_options));
  } else {
    own_store.emplace(defaults.store);
    own_scheduler.emplace(*own_store, defaults.scheduler, nullptr, &counters);
  }
  KernelStore& store = corpus_mode ? engine->store() : *own_store;

  const auto acquire = [&](const PairKey& key, Request& req, const Planned& p, int parent,
                           std::size_t i) {
    CachedKernelPtr entry;
    {
      Scope find(log, "kernel_store.find", parent, i);
      entry = store.find(key);
    }
    if (entry) return entry;
    const std::uint64_t t0 = now_ns();
    {
      Scope resolve(log, "scheduler.resolve", parent, i);
      entry = corpus_mode ? engine->entry_async(req.a, req.b).get()
                          : own_scheduler->submit(key, std::move(req.a), std::move(req.b)).get();
    }
    tally.misses.push_back({p.sa, p.sb, now_ns() - t0});
    tally.miss_cells += static_cast<std::uint64_t>(s.seqs[p.sa].size() * s.seqs[p.sb].size());
    return entry;
  };

  const auto serve = [&](std::size_t i, const Planned& p, bool setup) {
    const std::string payload = encode(s, i, p, setup);  // the client's work
    const Scope root(log, "request", -1, i);
    Request req;
    {
      Scope decode(log, "protocol.decode", root.id(), i);
      req = decode_request(payload);
    }
    Response resp;
    switch (p.cls) {
      case Cls::kQuery:
      case Cls::kBatch: {
        PairKey key;
        {
          Scope digest(log, "key.digest", root.id(), i);
          key = make_pair_key(req.a, req.b);
        }
        ++tally.keyed;
        tally.bytes_hashed += (req.a.size() + req.b.size()) * sizeof(Symbol);
        const CachedKernelPtr entry = acquire(key, req, p, root.id(), i);
        Scope query(log, "query", root.id(), i);
        if (p.cls == Cls::kBatch) {
          resp.values.resize(req.windows.size());
          answer_query_batch(*entry, req.windows.data(), resp.values.data(),
                             req.windows.size(), true, &counters);
          tally.windows += req.windows.size();
        } else {
          resp.value = answer_query(*entry, kind_of(req.op), req.x, req.y, true, &counters);
          ++tally.windows;
        }
        break;
      }
      case Cls::kPlot: {
        Scope plot(log, "plot", root.id(), i);
        const std::uint64_t before = engine->stats().scheduler.computed;
        engine->alignment_plot(req.a, req.b, *req.plot, [&](PlotTile&& tile) {
          Response frame;
          frame.tile = std::move(tile);
          Scope encode_tile(log, "protocol.encode", plot.id(), i);
          (void)encode_response(frame);
          return true;
        });
        tally.strip_computes += engine->stats().scheduler.computed - before;
        tally.plot_windows += static_cast<std::uint64_t>(req.plot->cells());
        return;  // the last tile was the terminal frame
      }
      case Cls::kUpsert: {
        const std::string id = to_string(req.a);
        double others = 0;
        std::size_t other_docs = 0;
        for (const std::string& other : s.doc_ids) {
          if (other == id) continue;
          if (const auto doc = corpus->document(other)) {
            others += static_cast<double>(doc->size());
            ++other_docs;
          }
        }
        UpsertReport report;
        {
          Scope upsert(log, "corpus.upsert", root.id(), i);
          report = corpus->upsert_document(id, std::move(req.b));
        }
        resp.value = report.version;
        // Each combed chunk is one strip braid against one other document.
        if (other_docs > 0) {
          tally.upsert_cells += static_cast<double>(report.chunks_computed) *
                                static_cast<double>(CorpusManagerOptions{}.chunk) * others /
                                static_cast<double>(other_docs);
        }
        break;
      }
    }
    Scope encode_resp(log, "protocol.encode", root.id(), i);
    (void)encode_response(resp);
  };

  log.record(false);  // setup traffic is not part of the replay
  for (std::size_t i = 0; i < s.setup.size(); ++i) serve(i, s.setup[i], true);
  log.record(options.spans);
  tally = Tally{};
  ReplayResult result;
  const std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; i < s.reqs.size(); ++i) serve(i, s.reqs[i], false);
  result.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  if (!options.spans) return result;

  const std::vector<Span>& spans = log.spans();
  if (!options.spans_path.empty()) {
    std::ofstream out(options.spans_path);
    out << "req\tname\tstart_ns\tend_ns\tparent\n";
    for (const Span& span : spans) {
      out << span.req << '\t' << span.name << '\t' << span.start_ns << '\t' << span.end_ns << '\t'
          << span.parent << '\n';
    }
  }

  // Per-layer totals from the spans.
  const std::vector<std::uint64_t> self = self_times(spans);
  std::map<std::string, double> self_ns;
  std::map<std::string, double> span_ns;
  std::map<std::string, double> count;
  std::vector<double> request_us;
  for (std::size_t k = 0; k < spans.size(); ++k) {
    self_ns[spans[k].name] += static_cast<double>(self[k]);
    span_ns[spans[k].name] += static_cast<double>(spans[k].end_ns - spans[k].start_ns);
    count[spans[k].name] += 1;
    if (std::string_view(spans[k].name) == "request") {
      request_us.push_back(static_cast<double>(spans[k].end_ns - spans[k].start_ns) * 1e-3);
    }
  }
  const auto per = [&](const char* name, double denom, double scale) {
    return denom > 0 ? self_ns[name] * scale / denom : 0.0;
  };
  const double n = static_cast<double>(s.reqs.size());
  auto& m = result.metrics;
  m["protocol.decode_us"] = per("protocol.decode", n, 1e-3);
  m["protocol.encode_us"] = per("protocol.encode", n, 1e-3);
  m["key.digest_us"] = per("key.digest", count["key.digest"], 1e-3);
  m["key.bytes_hashed"] =
      tally.keyed > 0 ? static_cast<double>(tally.bytes_hashed) / static_cast<double>(tally.keyed) : 0;
  m["kernel_store.find_us"] = per("kernel_store.find", count["kernel_store.find"], 1e-3);
  m["scheduler.resolve_ms"] = per("scheduler.resolve", count["scheduler.resolve"], 1e-6);
  m["query.ns_per_window"] = per("query", static_cast<double>(tally.windows), 1.0);
  m["plot.windows_per_s"] =
      span_ns["plot"] > 0 ? static_cast<double>(tally.plot_windows) / (span_ns["plot"] * 1e-9) : 0;
  m["plot.strip_computes"] = static_cast<double>(tally.strip_computes);
  m["corpus.upsert_ms"] = per("corpus.upsert", count["corpus.upsert"], 1e-6);
  m["trace.request_p50_us"] = quantile(request_us, 0.5);

  // Reference kernel and index times on the workload's own pairs: the
  // misses the replay took, or (all resident) the pairs it queried.
  std::vector<Miss> sample(tally.misses.begin(),
                           tally.misses.begin() + static_cast<std::ptrdiff_t>(
                                                      std::min<std::size_t>(16, tally.misses.size())));
  if (sample.empty()) {
    for (const Planned& p : s.reqs) {
      if (sample.size() == 16) break;
      if (p.cls == Cls::kQuery || p.cls == Cls::kBatch) sample.push_back({p.sa, p.sb, 0});
    }
  }
  double comb_ns = 0;
  double cells = 0;
  double index_ns = 0;
  double wait_ns = 0;
  for (const Miss& miss : sample) {
    const Sequence& a = s.seqs[miss.sa];
    const Sequence& b = s.seqs[miss.sb];
    std::uint64_t t = now_ns();
    const SemiLocalKernel kernel = semi_local_kernel(a, b, defaults.scheduler.compute);
    const std::uint64_t comb = now_ns() - t;
    t = now_ns();
    const QueryIndex index(kernel);
    index_ns += static_cast<double>(now_ns() - t);
    comb_ns += static_cast<double>(comb);
    cells += static_cast<double>(a.size() * b.size());
    wait_ns += static_cast<double>(miss.resolve_ns) - static_cast<double>(comb);
  }
  const double samples = static_cast<double>(std::max<std::size_t>(1, sample.size()));
  m["core.comb_ns_per_cell"] = cells > 0 ? comb_ns / cells : 0;
  m["query.index_build_ms"] = index_ns * 1e-6 / samples;
  // Derived: the index is built after the future resolves, so resolve
  // holds queueing plus the kernel; subtracting the reference kernel time
  // leaves the wait.
  m["scheduler.wait_ms"] = tally.misses.empty() ? 0.0 : wait_ns * 1e-6 / samples;
  // Cells combed on the request path: misses, plot strips, upsert chunks.
  m["core.cells"] = static_cast<double>(tally.miss_cells) +
                    static_cast<double>(tally.strip_computes) *
                        static_cast<double>(kPlotWindow * kPlotRegion) +
                    tally.upsert_cells;

  // Router hop: the same requests through ShardRouter::route and straight
  // to the backend that served them; the hop is the median difference.
  if (!options.backend_ports.empty()) {
    std::string spec;
    for (const int port : options.backend_ports) {
      if (!spec.empty()) spec += ',';
      spec += std::to_string(port);
    }
    RouterOptions router_options;
    router_options.shards = parse_shard_spec(spec);
    router_options.probe_interval_ms = 1'000;
    ShardRouter router(std::move(router_options));
    std::vector<std::unique_ptr<Connection>> direct;
    for (const int port : options.backend_ports) direct.push_back(std::make_unique<Connection>(port));
    std::vector<double> hop_us;
    const std::size_t hops = std::min<std::size_t>(s.reqs.size(), 4000);
    for (std::size_t i = 0; i < hops; ++i) {
      const std::string payload = encode(s, i, s.reqs[i]);
      const Request req = decode_request(payload);
      std::uint64_t t = now_ns();
      const Response routed = router.route(req);
      const double route_ns = static_cast<double>(now_ns() - t);
      if (routed.shard < 0 || static_cast<std::size_t>(routed.shard) >= direct.size()) continue;
      t = now_ns();
      (void)direct[static_cast<std::size_t>(routed.shard)]->call(payload);
      hop_us.push_back((route_ns - static_cast<double>(now_ns() - t)) * 1e-3);
    }
    m["shard.hop_us"] = quantile(hop_us, 0.5);
  } else {
    m["shard.hop_us"] = 0;
  }
  return result;
}

}  // namespace perfbench
