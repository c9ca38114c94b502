#include "verify.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>

#include "core/api.hpp"
#include "engine/corpus_version.hpp"
#include "engine/engine.hpp"
#include "lcs/bitparallel.hpp"
#include "wire.hpp"

namespace perfbench {

using namespace semilocal;

namespace {

constexpr std::size_t kSamplesPerRequest = 16;
/// Pairs whose fresh kernels are held at once while checking windows.
constexpr std::size_t kKernelChunk = 16;

/// Whether request i's substring windows are checked. Warm pools have few
/// distinct pairs, so every request is; fresh pairs cost a kernel each, so
/// a seeded tenth of them are.
bool window_checked(const Stream& s, std::size_t i) {
  if (s.workload == Workload::kWarmQueries || s.workload == Workload::kShardedWarm) return true;
  return Rng(mix(s.seed, 0x77696e00ULL + i)).unit() < 0.1;
}

Index window_answer(const SemiLocalKernel& k, QueryKind kind, Index x, Index y) {
  switch (kind) {
    case QueryKind::kStringSubstring:
      return k.string_substring(x, y);
    case QueryKind::kSubstringString:
      return k.substring_string(x, y);
    case QueryKind::kLcs:
      break;
  }
  return k.lcs();
}

std::vector<SemiLocalKernel> fresh_kernels(const std::vector<std::pair<SequenceView, SequenceView>>& pairs) {
  std::vector<SequencePair> batch;
  for (const auto& [a, b] : pairs) batch.push_back({a, b});
  SemiLocalOptions opts;
  opts.parallel = true;
  return semi_local_kernel_batch(batch, opts);
}

}  // namespace

std::vector<std::size_t> sampled_positions(const Stream& s, std::size_t i, std::size_t total) {
  Rng rng(mix(s.seed, 0x73616d70ULL + i));
  std::vector<std::size_t> out;
  for (std::size_t k = 0; k < kSamplesPerRequest && total > 0; ++k) out.push_back(rng.below(total));
  return out;
}

Checker::Checker(const Stream& stream)
    : s_(stream), got_(stream.reqs.size()), plots_(stream.reqs.size()) {}

void Checker::on_frame(std::size_t i, const Response& r) {
  const Planned& p = s_.reqs[i];
  Got& got = got_[i];
  const bool terminal = terminal_response_frame(r);
  if (p.cls == Cls::kPlot) {
    if (r.status == Status::kOk && r.tile) {
      const PlotSpec spec = plot_spec();
      if (!plots_[i]) plots_[i] = std::make_unique<PlotAssembler>(spec.rows, spec.cols, spec.quant);
      try {
        plots_[i]->feed(r);
      } catch (const ProtocolError&) {
        got.complete = false;
      }
    }
    if (terminal) {
      got.ok = r.status == Status::kOk;
      const PlotAssembler* plot = plots_[i].get();
      got.complete = got.complete && plot != nullptr && plot->complete();
      if (got.complete) {
        const auto cols = static_cast<std::size_t>(plot->cols());
        for (const std::size_t k : sampled_positions(
                 s_, i, static_cast<std::size_t>(plot->rows() * plot->cols()))) {
          got.samples.push_back(plot->cell(static_cast<Index>(k / cols), static_cast<Index>(k % cols)));
        }
      }
      plots_[i].reset();
    }
    return;
  }
  if (!terminal) return;
  got.ok = r.status == Status::kOk;
  got.value = r.value;
  if (p.cls == Cls::kBatch) {
    if (r.values.size() != kBatchWindows) {
      got.complete = false;
    } else {
      for (const std::size_t k : sampled_positions(s_, i, kBatchWindows)) got.samples.push_back(r.values[k]);
    }
  } else if (p.cls == Cls::kUpsert) {
    got.text = r.text;
  }
}

std::vector<std::string> Checker::upsert_reports() const {
  std::vector<std::string> out;
  for (const Got& g : got_) {
    if (!g.text.empty()) out.push_back(g.text);
  }
  return out;
}

std::vector<bool> Checker::wrong(const DueTimes& times) {
  const std::size_t n = s_.reqs.size();
  std::vector<bool> bad(n, false);

  // kLcs against the independent bit-parallel baseline, once per pair.
  std::map<std::pair<std::uint32_t, std::uint32_t>, Index> lcs;
  for (const Planned& p : s_.reqs) {
    if (p.cls == Cls::kQuery && p.op == Op::kLcs) lcs[{p.sa, p.sb}] = -1;
  }
  std::vector<std::pair<std::pair<std::uint32_t, std::uint32_t>, Index>> todo(lcs.begin(), lcs.end());
#pragma omp parallel for schedule(dynamic)
  for (std::size_t k = 0; k < todo.size(); ++k) {
    todo[k].second = lcs_bitparallel_hyyro(s_.seqs[todo[k].first.first], s_.seqs[todo[k].first.second]);
  }
  for (const auto& [pair, value] : todo) lcs[pair] = value;
  for (std::size_t i = 0; i < n; ++i) {
    const Planned& p = s_.reqs[i];
    if (p.cls == Cls::kQuery && p.op == Op::kLcs && got_[i].ok) {
      ++counts_.lcs;
      if (got_[i].value != lcs[{p.sa, p.sb}]) bad[i] = true;
    }
  }

  // Substring windows and batch samples against fresh kernels, a chunk of
  // distinct pairs at a time.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<std::size_t>> by_pair;
  for (std::size_t i = 0; i < n; ++i) {
    const Planned& p = s_.reqs[i];
    const bool windowed = p.cls == Cls::kBatch || (p.cls == Cls::kQuery && p.op != Op::kLcs);
    if (windowed && got_[i].ok && window_checked(s_, i)) by_pair[{p.sa, p.sb}].push_back(i);
  }
  std::vector<std::pair<std::pair<std::uint32_t, std::uint32_t>, std::vector<std::size_t>>> groups(
      by_pair.begin(), by_pair.end());
  for (std::size_t g0 = 0; g0 < groups.size(); g0 += kKernelChunk) {
    const std::size_t g1 = std::min(groups.size(), g0 + kKernelChunk);
    std::vector<std::pair<SequenceView, SequenceView>> pairs;
    for (std::size_t g = g0; g < g1; ++g) {
      pairs.emplace_back(s_.seqs[groups[g].first.first], s_.seqs[groups[g].first.second]);
    }
    const std::vector<SemiLocalKernel> kernels = fresh_kernels(pairs);
    for (std::size_t g = g0; g < g1; ++g) {
      const SemiLocalKernel& k = kernels[g - g0];
      for (const std::size_t i : groups[g].second) {
        const Planned& p = s_.reqs[i];
        const Got& got = got_[i];
        if (p.cls == Cls::kQuery) {
          ++counts_.windows;
          if (got.value != window_answer(k, kind_of(p.op), p.x, p.y)) bad[i] = true;
          continue;
        }
        const std::vector<WindowQuery> windows = batch_windows(s_, i, p);
        const std::vector<std::size_t> pos = sampled_positions(s_, i, kBatchWindows);
        for (std::size_t j = 0; j < got.samples.size(); ++j) {
          const WindowQuery& w = windows[pos[j]];
          ++counts_.windows;
          if (got.samples[j] != window_answer(k, w.kind, w.x, w.y)) bad[i] = true;
        }
      }
    }
  }

  // Plot cells: each sampled cell is the LCS of its two windows.
  const PlotSpec spec = plot_spec();
  std::vector<std::size_t> plots;
  for (std::size_t i = 0; i < n; ++i) {
    if (s_.reqs[i].cls == Cls::kPlot && got_[i].ok) plots.push_back(i);
  }
  std::vector<char> plot_bad(plots.size(), 0);
#pragma omp parallel for schedule(dynamic)
  for (std::size_t k = 0; k < plots.size(); ++k) {
    const std::size_t i = plots[k];
    const Planned& p = s_.reqs[i];
    const std::vector<std::size_t> pos =
        sampled_positions(s_, i, static_cast<std::size_t>(spec.rows * spec.cols));
    const Got& got = got_[i];
    for (std::size_t j = 0; j < got.samples.size(); ++j) {
      const auto u = static_cast<Index>(pos[j]) / spec.cols;
      const auto v = static_cast<Index>(pos[j]) % spec.cols;
      const SequenceView a = SequenceView(s_.seqs[p.sa]).subspan(
          static_cast<std::size_t>(p.x + spec.row_start(u)), static_cast<std::size_t>(spec.window));
      const SequenceView b = SequenceView(s_.seqs[p.sb]).subspan(
          static_cast<std::size_t>(p.y + spec.col_start(v)), static_cast<std::size_t>(spec.window));
      if (got.samples[j] != semi_local_kernel(a, b).lcs()) plot_bad[k] = 1;
    }
  }
  for (std::size_t k = 0; k < plots.size(); ++k) {
    counts_.cells += got_[plots[k]].samples.size();
    if (plot_bad[k] != 0) bad[plots[k]] = true;
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (got_[i].ok && !got_[i].complete) bad[i] = true;
  }

  // Upsert versions per document, in the order the server acknowledged
  // them (upserts on different connections may overtake each other in the
  // server's queue): each one that changes the bytes is the next version.
  // A failed upsert was perhaps applied, so answers that arrived after it
  // was sent are not checked and the document is not compared at the end.
  docs_.assign(s_.doc_ids.size(), DocState{});
  for (const Planned& p : s_.setup) {
    if (p.cls == Cls::kUpsert) docs_[p.doc].seq = p.sb;
  }
  std::vector<std::uint64_t> failed_at(docs_.size(), UINT64_MAX);
  std::vector<std::size_t> acked;
  for (std::size_t i = 0; i < n; ++i) {
    const Planned& p = s_.reqs[i];
    if (p.cls != Cls::kUpsert) continue;
    if (got_[i].ok) {
      acked.push_back(i);
    } else {
      docs_[p.doc].diverged = true;
      failed_at[p.doc] = std::min(failed_at[p.doc], times.sent[i]);
    }
  }
  std::sort(acked.begin(), acked.end(), [&times](std::size_t x, std::size_t y) {
    return std::make_pair(times.done[x], x) < std::make_pair(times.done[y], y);
  });
  for (const std::size_t i : acked) {
    const Planned& p = s_.reqs[i];
    DocState& doc = docs_[p.doc];
    if (times.done[i] >= failed_at[p.doc]) continue;
    if (s_.seqs[p.sb] != s_.seqs[doc.seq]) ++doc.version;
    doc.seq = p.sb;
    ++counts_.upserts;
    if (got_[i].value != doc.version) bad[i] = true;
  }
  return bad;
}

std::size_t check_published_corpus(const Stream& s, const std::string& corpus_dir, int port,
                                   const std::vector<DocState>& docs, CheckCounts& counts) {
  EngineOptions engine_options;
  engine_options.scheduler.workers = 0;
  ComparisonEngine engine(engine_options);
  CorpusManagerOptions corpus_options;
  corpus_options.dir = corpus_dir;
  const CorpusManager published(engine, std::move(corpus_options));

  std::size_t mismatches = 0;
  for (std::size_t d = 0; d < s.doc_ids.size(); ++d) {
    if (docs[d].diverged) continue;
    const auto doc = published.document(s.doc_ids[d]);
    if (!doc || *doc != s.seqs[docs[d].seq] || published.version(s.doc_ids[d]) != docs[d].version) {
      ++mismatches;
    }
  }

  const std::vector<CorpusIndexEntry> entries = published.index_entries();
  std::vector<Sequence> docs_a;
  std::vector<Sequence> docs_b;
  for (const CorpusIndexEntry& e : entries) {
    docs_a.push_back(published.document(e.id_a).value_or(Sequence{}));
    docs_b.push_back(published.document(e.id_b).value_or(Sequence{}));
  }
  std::vector<std::pair<SequenceView, SequenceView>> pairs;
  for (std::size_t k = 0; k < entries.size(); ++k) pairs.emplace_back(docs_a[k], docs_b[k]);
  const std::vector<SemiLocalKernel> kernels = fresh_kernels(pairs);

  Connection conn(port);
  Rng rng(mix(s.seed, 0x707562ULL));
  for (std::size_t k = 0; k < entries.size(); ++k) {
    const auto m = static_cast<Index>(docs_a[k].size());
    const auto n = static_cast<Index>(docs_b[k].size());
    for (const Op op : {Op::kLcs, Op::kStringSubstring, Op::kSubstringString}) {
      Request req;
      req.op = op;
      req.a = docs_a[k];
      req.b = docs_b[k];
      const Index len = op == Op::kSubstringString ? m : n;
      if (op != Op::kLcs) {
        req.x = static_cast<Index>(rng.below(static_cast<std::uint64_t>(len) + 1));
        req.y = static_cast<Index>(rng.below(static_cast<std::uint64_t>(len) + 1));
        if (req.x > req.y) std::swap(req.x, req.y);
      }
      const Response r = conn.call(encode_request(req));
      ++counts.published;
      if (r.status != Status::kOk || r.value != window_answer(kernels[k], kind_of(op), req.x, req.y)) {
        ++mismatches;
      }
    }
  }
  return mismatches;
}

}  // namespace perfbench
