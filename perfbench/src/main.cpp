// perfbench_client -- the load generator, answer checker and traced replay
// behind perfbench/run.py.
//
//   perfbench_client drive --workload W --seed S --seconds T --out FILE
//                          [--trace] [--replay-dir DIR] [--rate-scale X]
//       Builds the seeded stream, prints `ready`, then takes commands on
//       stdin from the process that spawns the servers:
//         setup <port>                    connect, send the setup traffic,
//                                         print `setup_done <monotonic ns>`
//         measure <port> <pids> <stats ports> [corpus dir]
//                                         run the timed window, check every
//                                         answer, write FILE
//       With --trace it then prints `window_done`, waits for
//         replay [backend ports]          (servers other than the backends
//                                         stopped) and adds the traced
//                                         in-process replay to FILE.
//   perfbench_client selftest
//       The benchmark's own arithmetic and determinism checks.
#include <chrono>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <thread>

#include "core/comb_kernels.hpp"
#include "metrics.hpp"
#include "open_loop.hpp"
#include "replay.hpp"
#include "util/cli.hpp"
#include "verify.hpp"
#include "wire.hpp"
#include "workload.hpp"

namespace perfbench {
int selftest();
}

using namespace perfbench;
using semilocal::Response;
using semilocal::Status;

namespace {

/// Latency charged to a failed, refused or unanswered request: above every
/// workload's limit, so a failure always misses it.
constexpr double kFailedMs = 20'000;
constexpr std::uint64_t kDrainMs = 20'000;
/// Generator lateness beyond which a run is invalid rather than slow: a
/// backlog at the end of the window, or stalls in more than 1% of sends.
constexpr double kMaxBacklogMs = 10.0;
constexpr double kMaxStallMs = 50.0;

std::vector<int> parse_ints(const std::string& csv) {
  std::vector<int> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(std::stoi(item));
  }
  return out;
}

/// Minimal JSON object writer for the result file.
class Json {
 public:
  Json() { out_ << std::setprecision(12) << '{'; }
  Json& num(const std::string& key, double v) {
    sep(key);
    out_ << v;
    return *this;
  }
  Json& opt(const std::string& key, std::optional<double> v) {
    sep(key);
    if (v) {
      out_ << *v;
    } else {
      out_ << "null";
    }
    return *this;
  }
  Json& str(const std::string& key, const std::string& v) {
    sep(key);
    quote(v);
    return *this;
  }
  Json& raw(const std::string& key, const std::string& json) {
    sep(key);
    out_ << json;
    return *this;
  }
  Json& nums(const std::string& key, const std::vector<double>& v) {
    sep(key);
    out_ << '[';
    for (std::size_t i = 0; i < v.size(); ++i) out_ << (i > 0 ? "," : "") << v[i];
    out_ << ']';
    return *this;
  }
  Json& strs(const std::string& key, const std::vector<std::string>& v) {
    sep(key);
    out_ << '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) out_ << ',';
      quote(v[i]);
    }
    out_ << ']';
    return *this;
  }
  std::string done() { return out_.str() + '}'; }

 private:
  void sep(const std::string& key) {
    if (!first_) out_ << ',';
    first_ = false;
    quote(key);
    out_ << ':';
  }
  void quote(const std::string& v) {
    out_ << '"';
    for (const char c : v) {
      if (c == '"' || c == '\\') {
        out_ << '\\' << c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out_ << ' ';
      } else {
        out_ << c;
      }
    }
    out_ << '"';
  }
  std::ostringstream out_;
  bool first_ = true;
};

std::string latency_json(const std::vector<double>& ms) {
  return Json()
      .num("n", static_cast<double>(ms.size()))
      .num("p50_ms", quantile(ms, 0.5))
      .opt("p90_ms", tail_percentile(ms, 0.9))
      .opt("p99_ms", tail_percentile(ms, 0.99))
      .done();
}

/// Opens the connections and sends the setup traffic closed-loop, each
/// connection's share on its own thread, retrying refusals.
std::vector<std::unique_ptr<Connection>> run_setup(const Stream& s, int port) {
  std::vector<std::unique_ptr<Connection>> conns;
  for (std::uint32_t c = 0; c < kConnections; ++c) conns.push_back(std::make_unique<Connection>(port));
  std::vector<std::thread> threads;
  std::vector<std::string> errors(kConnections);
  for (std::uint32_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      try {
        for (std::size_t i = 0; i < s.setup.size(); ++i) {
          if (s.setup[i].conn != c) continue;
          for (int attempt = 0;; ++attempt) {
            const Response r = conns[c]->call(encode(s, i, s.setup[i], true));
            if (r.status == Status::kOk) break;
            if (r.status != Status::kOverloaded || attempt == 1000) {
              throw std::runtime_error("setup request failed: " + r.text);
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(std::max<long>(1, r.retry_ms)));
          }
        }
      } catch (const std::exception& e) {
        errors[c] = e.what();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& e : errors) {
    if (!e.empty()) throw std::runtime_error(e);
  }
  return conns;
}

std::vector<double> cpu_each(const std::vector<int>& pids) {
  std::vector<double> out;
  for (const int pid : pids) out.push_back(process_cpu_s(pid));
  return out;
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return s;
}

int drive(const semilocal::CliArgs& args) {
  const Workload workload = parse_workload(args.option_or("workload", ""));
  const auto seed = static_cast<std::uint64_t>(args.int_option_or("seed", 1));
  const double seconds = args.double_option_or("seconds", 10);
  const std::string out_path = args.option_or("out", "perfbench_result.json");
  const bool trace = args.has_flag("trace");
  const Stream s = make_stream(workload, seed, seconds, args.double_option_or("rate-scale", 1.0));
  std::cout << "ready" << std::endl;

  std::vector<std::unique_ptr<Connection>> conns;
  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd == "setup") {
      int port = 0;
      in >> port;
      conns.clear();
      conns = run_setup(s, port);
      std::cout << "setup_done " << now_ns() << std::endl;
      continue;
    }
    if (cmd != "measure") throw std::runtime_error("unknown command '" + cmd + "'");
    int port = 0;
    std::string pid_csv;
    std::string stats_csv;
    std::string corpus_dir;
    in >> port >> pid_csv >> stats_csv >> corpus_dir;
    const std::vector<int> pids = parse_ints(pid_csv);
    const std::vector<int> stats_ports = parse_ints(stats_csv);
    if (conns.empty()) throw std::runtime_error("measure before setup");

    std::vector<std::string> stats_before;
    for (const int p : stats_ports) stats_before.push_back(fetch_stats(p));
    const std::vector<double> cpu_before = cpu_each(pids);
    Checker checker(s);
    const OpenLoopRun run = run_open_loop(
        s, conns, [&checker](std::size_t i, const Response& r) { checker.on_frame(i, r); }, kDrainMs);
    std::vector<double> cpu_window = cpu_each(pids);
    for (std::size_t k = 0; k < pids.size(); ++k) cpu_window[k] -= cpu_before[k];
    std::vector<std::string> stats_after;
    for (const int p : stats_ports) stats_after.push_back(fetch_stats(p));
    std::vector<double> hwm_mb;
    for (const int pid : pids) hwm_mb.push_back(process_hwm_mb(pid));

    // Answers are checked outside the timed window.
    const std::vector<bool> wrong = checker.wrong(run.times);
    CheckCounts counts = checker.counts();
    std::size_t published_mismatches = 0;
    if (workload == Workload::kCorpusMixed) {
      published_mismatches =
          check_published_corpus(s, corpus_dir, port, checker.final_docs(), counts);
    }
    DueTimes times = run.times;
    std::size_t wrong_count = 0;
    std::size_t overloaded = 0;
    std::size_t errors = 0;
    std::size_t unanswered = 0;
    for (std::size_t i = 0; i < s.reqs.size(); ++i) {
      if (wrong[i]) {
        times.ok[i] = false;
        ++wrong_count;
      }
      overloaded += run.status[i] == static_cast<std::uint8_t>(Status::kOverloaded);
      errors += run.status[i] == static_cast<std::uint8_t>(Status::kError);
      unanswered += run.status[i] == 255;
    }
    const DueAccount acct = account_due(times, kFailedMs);
    std::vector<std::vector<double>> by_cls(4);
    Json wrong_by_cls;
    for (std::size_t c = 0; c < 4; ++c) {
      std::size_t k = 0;
      for (std::size_t i = 0; i < s.reqs.size(); ++i) {
        k += wrong[i] && static_cast<std::size_t>(s.reqs[i].cls) == c;
      }
      wrong_by_cls.num(kClsNames[c], static_cast<double>(k));
    }
    for (std::size_t i = 0; i < s.reqs.size(); ++i) {
      by_cls[static_cast<std::size_t>(s.reqs[i].cls)].push_back(acct.latency_ms[i]);
    }
    Json classes;
    for (std::size_t c = 0; c < 4; ++c) {
      if (!by_cls[c].empty()) classes.raw(kClsNames[c], latency_json(by_cls[c]));
    }
    double idle_cpu_frac = 0;
    if (trace) {
      const double c0 = sum(cpu_each(pids));
      const std::uint64_t t0 = now_ns();
      std::this_thread::sleep_for(std::chrono::seconds(1));
      idle_cpu_frac = (sum(cpu_each(pids)) - c0) / (static_cast<double>(now_ns() - t0) * 1e-9);
    }
    const double ok = static_cast<double>(s.reqs.size() - acct.failed);

    Json result;
    result.str("workload", workload_name(workload))
        .num("seed", static_cast<double>(seed))
        .num("rate_rps", s.rate)
        .num("limit_ms", s.limit_ms)
        .num("window_start_ns", static_cast<double>(run.start_ns))
        .num("attempted", static_cast<double>(s.reqs.size()))
        .num("failed", static_cast<double>(acct.failed))
        .num("wrong", static_cast<double>(wrong_count))
        .raw("wrong_by_class", wrong_by_cls.done())
        .num("overloaded", static_cast<double>(overloaded))
        .num("errors", static_cast<double>(errors))
        .num("unanswered", static_cast<double>(unanswered))
        .num("published_mismatches", static_cast<double>(published_mismatches))
        .raw("latency", latency_json(acct.latency_ms))
        .raw("per_class", classes.done())
        .num("late_p99_ms", quantile(acct.late_ms, 0.99))
        .num("schedule_kept", schedule_kept(acct.late_ms, kMaxBacklogMs, kMaxStallMs) ? 1 : 0)
        .num("cpu_s", sum(cpu_window))
        .nums("cpu_s_by_process", cpu_window)
        .num("ok", ok)
        .num("server_rss_mb", sum(hwm_mb))
        .nums("rss_mb_by_process", hwm_mb)
        .num("bytes_per_req", static_cast<double>(run.bytes_sent + run.bytes_received) /
                                  static_cast<double>(std::max<std::size_t>(1, s.reqs.size())))
        .num("idle_cpu_frac", idle_cpu_frac)
        .str("kernel_dispatch", std::string(semilocal::kernel_dispatch().name))
        .raw("checked", Json()
                            .num("lcs", static_cast<double>(counts.lcs))
                            .num("windows", static_cast<double>(counts.windows))
                            .num("plot_cells", static_cast<double>(counts.cells))
                            .num("upserts", static_cast<double>(counts.upserts))
                            .num("published", static_cast<double>(counts.published))
                            .done())
        .strs("stats_before", stats_before)
        .strs("stats_after", stats_after)
        .strs("upsert_reports", checker.upsert_reports());
    conns.clear();

    if (trace) {
      std::cout << "window_done" << std::endl;
      if (!std::getline(std::cin, line)) throw std::runtime_error("no replay command");
      std::istringstream rin(line);
      std::string rcmd;
      std::string backends;
      rin >> rcmd >> backends;
      ReplayOptions options;
      options.corpus_dir = args.option_or("replay-dir", ".bench_build/replay_corpus");
      options.backend_ports = parse_ints(backends);
      options.spans_path = out_path + ".spans.tsv";
      ReplayOptions plain = options;
      plain.spans = false;
      plain.backend_ports.clear();
      plain.spans_path.clear();
      plain.corpus_dir += "_plain";
      const ReplayResult off = replay(s, plain);
      const ReplayResult on = replay(s, options);
      Json layers;
      for (const auto& [name, value] : on.metrics) layers.num(name, value);
      layers.num("trace.overhead_frac", on.wall_s / off.wall_s - 1.0);
      result.raw("replay", layers.done());
    }
    std::ofstream(out_path) << result.done() << '\n';
    std::cout << "done" << std::endl;
    return 0;
  }
  throw std::runtime_error("stdin closed before measure");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) {
      std::cerr << "usage: perfbench_client (drive|selftest) [options]\n";
      return 2;
    }
    const std::string mode = argv[1];
    if (mode == "selftest") return selftest();
    const semilocal::CliArgs args = semilocal::CliArgs::parse(argc, argv, 2, {"trace"});
    if (mode == "drive") return drive(args);
    std::cerr << "unknown mode '" << mode << "'\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_client: " << e.what() << "\n";
    return 1;
  }
}
