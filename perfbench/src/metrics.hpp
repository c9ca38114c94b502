// The benchmark's arithmetic: tail-checked percentiles, due-time accounting
// for an open-loop schedule, and span self time. Kept free of I/O so the
// self-tests pin each rule on synthetic inputs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/// Samples a percentile needs beyond it before it may be reported.
inline constexpr std::size_t kTailSamples = 10;

/// Nearest-rank q-quantile (0 < q <= 1) of `v`, without the tail check.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

/// The q-quantile, or nullopt when fewer than kTailSamples samples lie
/// beyond it -- a percentile the sample cannot support.
inline std::optional<double> tail_percentile(const std::vector<double>& v, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  if (v.empty() || v.size() - std::min(rank, v.size()) < kTailSamples) return std::nullopt;
  return quantile(v, q);
}

/// Per-request timings of an open-loop run, all in ns on one clock.
/// `done` is 0 for a request that never got its final frame.
struct DueTimes {
  std::vector<std::uint64_t> due;
  std::vector<std::uint64_t> sent;
  std::vector<std::uint64_t> done;
  std::vector<bool> ok;  ///< correct kOk answer
};

struct DueAccount {
  std::vector<double> latency_ms;  ///< due -> final frame; failures at `failed_ms`
  std::vector<double> late_ms;     ///< due -> actual send
  std::size_t failed = 0;
};

/// Charges every request from its *scheduled* send time, so a generator or
/// server stall is charged to every request due during it, not hidden in
/// the send timestamps. A failed or unanswered request counts as missing
/// every latency limit: it is charged `failed_ms`.
inline DueAccount account_due(const DueTimes& t, double failed_ms) {
  DueAccount a;
  for (std::size_t i = 0; i < t.due.size(); ++i) {
    a.late_ms.push_back(t.sent[i] >= t.due[i] ? static_cast<double>(t.sent[i] - t.due[i]) * 1e-6
                                              : 0.0);
    if (!t.ok[i] || t.done[i] == 0) {
      ++a.failed;
      a.latency_ms.push_back(failed_ms);
    } else {
      a.latency_ms.push_back(static_cast<double>(t.done[i] - t.due[i]) * 1e-6);
    }
  }
  return a;
}

/// Whether the generator kept its schedule: no growing backlog (the median
/// lateness over the last tenth of the schedule stays under `backlog_ms`)
/// and no long stalls (p99 lateness under `stall_ms`). A run that fails
/// this is invalid, not slow. Shorter hiccups need no verdict: the due-time
/// accounting already charges them to every request they delayed.
inline bool schedule_kept(const std::vector<double>& late_ms, double backlog_ms,
                          double stall_ms) {
  if (late_ms.empty()) return true;
  const std::size_t tenth = std::max<std::size_t>(1, late_ms.size() / 10);
  const std::vector<double> tail(late_ms.end() - static_cast<std::ptrdiff_t>(tenth), late_ms.end());
  return quantile(tail, 0.5) <= backlog_ms && quantile(late_ms, 0.99) <= stall_ms;
}

/// One traced call into a layer. `parent` indexes the enclosing span of the
/// same request (-1 at the top); spans of one request share `req`.
struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint32_t req = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its child spans (overlapping children counted once, child
/// time outside the parent ignored).
inline std::vector<std::uint64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) children[static_cast<std::size_t>(spans[i].parent)].push_back(i);
  }
  std::vector<std::uint64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::vector<std::pair<std::uint64_t, std::uint64_t>> cover;
    for (const std::size_t c : children[i]) {
      const std::uint64_t lo = std::max(s.start_ns, spans[c].start_ns);
      const std::uint64_t hi = std::min(s.end_ns, spans[c].end_ns);
      if (lo < hi) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    std::uint64_t covered = 0;
    std::uint64_t reach = s.start_ns;
    for (const auto& [lo, hi] : cover) {
      const std::uint64_t from = std::max(lo, reach);
      if (hi > from) {
        covered += hi - from;
        reach = hi;
      }
    }
    out[i] = (s.end_ns - s.start_ns) - covered;
  }
  return out;
}

}  // namespace perfbench
