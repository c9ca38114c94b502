// The benchmark's self-tests: the rules its numbers rest on, each pinned on
// a synthetic input. Run with `perfbench_client selftest` (or
// `python3 perfbench/run.py --selftest`).
#include <cmath>
#include <iostream>
#include <string>

#include "metrics.hpp"
#include "verify.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

int failures = 0;
int checks = 0;

void expect(bool ok, const std::string& what) {
  ++checks;
  if (!ok) {
    ++failures;
    std::cerr << "selftest FAILED: " << what << "\n";
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void tail_selection() {
  std::vector<double> v;
  for (int i = 1; i <= 999; ++i) v.push_back(i);
  expect(!tail_percentile(v, 0.99), "p99 refused with 9 samples beyond it");
  v.push_back(1000);
  const auto p99 = tail_percentile(v, 0.99);
  expect(p99 && near(*p99, 990), "p99 of 1..1000 is 990 with 10 samples beyond");
  expect(!tail_percentile(std::vector<double>(50, 1.0), 0.9), "p90 refused on 50 samples");
  expect(near(quantile({3, 1, 2}, 0.5), 2), "median of {1,2,3}");
}

void due_accounting() {
  // 100 requests due every 1 ms; the generator stalls from 10 ms to 60 ms,
  // so requests 10..59 all leave at 60 ms; service takes 0.1 ms.
  DueTimes t;
  for (std::uint64_t i = 0; i < 100; ++i) {
    const std::uint64_t due = i * 1'000'000;
    const std::uint64_t sent = (i >= 10 && i < 60) ? 60'000'000 : due;
    t.due.push_back(due);
    t.sent.push_back(sent);
    t.done.push_back(sent + 100'000);
    t.ok.push_back(i != 99);  // the last one fails
  }
  const DueAccount a = account_due(t, 20'000);
  expect(near(a.latency_ms[5], 0.1), "on-time request costs its service time");
  expect(near(a.latency_ms[10], 50.1), "first stalled request charged the whole stall");
  expect(near(a.latency_ms[59], 1.1), "last stalled request charged its own wait");
  expect(near(a.late_ms[10], 50.0) && near(a.late_ms[60], 0.0), "lateness is send minus due");
  expect(a.failed == 1 && near(a.latency_ms[99], 20'000), "a failure is charged the failed latency");
  expect(!schedule_kept(a.late_ms, 10.0, 40.0), "a 50 ms stall over half the run breaks the schedule");
  std::vector<double> steady(1000, 0.05);
  steady[500] = 30.0;  // one hiccup, charged by the accounting instead
  expect(schedule_kept(steady, 10.0, 40.0), "a generator 50 us late keeps its schedule");
  std::vector<double> drifting;
  for (int i = 0; i < 1000; ++i) drifting.push_back(i * 0.015);  // backlog grows to 15 ms
  expect(!schedule_kept(drifting, 10.0, 40.0), "a growing backlog breaks the schedule");
}

void span_self_time() {
  std::vector<Span> spans = {
      {"request", 0, 100, -1, 0},
      {"a", 10, 30, 0, 0},
      {"b", 20, 50, 0, 0},   // overlaps a: the overlap counts once
      {"c", 90, 120, 0, 0},  // runs past its parent: only 90..100 counts
      {"d", 12, 18, 1, 0},   // grandchild: only a's self time shrinks
  };
  const std::vector<std::uint64_t> self = self_times(spans);
  expect(self[0] == 50, "parent self time excludes the union of its children");
  expect(self[1] == 14, "child self time excludes its own child");
  expect(self[2] == 30 && self[3] == 30 && self[4] == 6, "leaf self time is its duration");
}

void stream_determinism() {
  for (const Workload w : {Workload::kWarmQueries, Workload::kColdCompute,
                           Workload::kCorpusMixed, Workload::kShardedWarm}) {
    const std::uint64_t d1 = stream_digest(make_stream(w, 7, 2.0));
    const std::uint64_t d2 = stream_digest(make_stream(w, 7, 2.0));
    const std::uint64_t d3 = stream_digest(make_stream(w, 8, 2.0));
    expect(d1 == d2, std::string("same seed, identical stream: ") + workload_name(w));
    expect(d1 != d3, std::string("another seed, another stream: ") + workload_name(w));
  }
  expect(stream_digest(make_stream(Workload::kWarmQueries, 7, 2.0)) ==
             stream_digest(make_stream(Workload::kShardedWarm, 7, 2.0)),
         "sharded_warm sends warm_queries' stream");
}

/// Two upserts of one document whose answers arrived in the reverse of
/// their schedule order: the server applied the later one first, so the
/// later one is version 2 and the earlier one version 3. Every other
/// upsert of the document was sent after both answers and never answered.
void upsert_order() {
  const Stream s = make_stream(Workload::kCorpusMixed, 7, 20.0);
  // A document whose base and first two upserts are three distinct texts
  // (a truncation can restore the base), so each application is a version.
  std::vector<std::size_t> ups;
  for (const Planned& base : s.setup) {
    ups.clear();
    for (std::size_t i = 0; i < s.reqs.size(); ++i) {
      if (s.reqs[i].cls == Cls::kUpsert && s.reqs[i].doc == base.doc) ups.push_back(i);
    }
    if (ups.size() < 3) continue;
    const Sequence& b = s.seqs[base.sb];
    const Sequence& u0 = s.seqs[s.reqs[ups[0]].sb];
    const Sequence& u1 = s.seqs[s.reqs[ups[1]].sb];
    if (u0 != b && u1 != b && u0 != u1) break;
  }
  const auto check = [&s, &ups](Index first, Index second) {
    DueTimes t;
    t.due.assign(s.reqs.size(), 0);
    t.sent.assign(s.reqs.size(), 1'000);
    t.done.assign(s.reqs.size(), 0);
    t.ok.assign(s.reqs.size(), false);
    t.done[ups[0]] = 20;
    t.done[ups[1]] = 10;
    Checker checker(s);
    semilocal::Response r;
    r.value = first;
    checker.on_frame(ups[0], r);
    r.value = second;
    checker.on_frame(ups[1], r);
    const std::vector<bool> bad = checker.wrong(t);
    return std::make_pair(bad[ups[0]] || bad[ups[1]], checker.final_docs()[s.reqs[ups[0]].doc]);
  };
  expect(ups.size() >= 3, "corpus_mixed upserts a document at least three times");
  const auto [bad, doc] = check(3, 2);
  expect(!bad, "upserts are checked in the order they were acknowledged");
  expect(doc.diverged && doc.seq == s.reqs[ups[0]].sb && doc.version == 3,
         "the last acknowledged upsert is the document's expected state");
  expect(check(2, 3).first, "schedule-order versions are wrong when the answers crossed");
}

}  // namespace

int selftest() {
  tail_selection();
  due_accounting();
  span_self_time();
  stream_determinism();
  upsert_order();
  std::cout << "selftest: " << checks - failures << "/" << checks << " checks passed\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
