// semilocal_serve -- the comparison engine behind a socket or stdio pipe.
//
// Speaks the length-prefixed protocol of engine/protocol.hpp. Each request
// is answered off the engine's kernel cache when possible; misses go through
// the batching scheduler; backpressure surfaces as an Overloaded response
// with a retry hint (RETRY_AFTER) instead of unbounded queueing.
//
//   semilocal_serve --stdio [engine options]
//       One session over stdin/stdout. Single-threaded end to end (the
//       scheduler still batches; compute runs inline via drain()). Same
//       dispatch core as the reactor (engine/service.hpp).
//   semilocal_serve --port P [engine options] [frontend options]
//       Epoll reactor on 127.0.0.1:P (P = 0 picks a free port; the bound
//       port is printed alone on stdout so spawning harnesses can read it
//       without port races): one event-loop thread plus the scheduler's
//       --workers threads, which post finished answers, plot rows and
//       upserts back to the loop; typed admission control (see
//       engine/frontend.hpp). With --workers 0 the loop runs the compute
//       itself. SIGINT/SIGTERM drain gracefully: in-flight requests answer
//       and flush before the process exits.
//
// Engine options:
//   --store DIR      kernel store directory (default: in-memory only)
//   --cache-mb N     LRU cache budget (default 64)
//   --workers N      scheduler threads (default: hardware)
//   --queue N        pending-job bound (default 256)
//   --batch N        misses grouped per compute batch (default 8)
//   --algorithm X    combing strategy (see semilocal_cli)
//   --no-persist     do not write computed kernels to the store
//   --no-index      answer queries via the O(m+n) scan instead of the
//                    shared QueryIndex (ablation / debugging)
//   --dna            pack request bytes as DNA (match CLI precompute keys)
//   --corpus-dir DIR versioned incremental corpus root; enables Op::kUpsert
//                    (without it upserts answer kError). Pair kernels are
//                    cached in the kernel store, so --store persistence lets
//                    a restarted server resume long appends.
//   --chunk N        widest appended-tail strip a resumed upsert combs and
//                    composes at once, in symbols (default 1024)
//
// Frontend options (TCP mode):
//   --backlog N          listen(2) backlog (default 128)
//   --max-conns N        admission gate; beyond it connections are shed
//                        with one RETRY_AFTER frame (default 10000)
//   --max-inflight N     per-connection pending-compute budget (default 64)
//   --write-cap-kb N     per-connection write-queue cap (default 1024)
//   --idle-timeout-ms N  idle connection eviction, 0 disables (default 60000)
//   --read-timeout-ms N  slow-loris partial-frame timeout, 0 disables
//                        (default 10000)
//   --drain-timeout-ms N graceful-shutdown budget (default 2000)
#include <csignal>
#include <iostream>
#include <optional>

#include "core/api.hpp"
#include "engine/corpus_version.hpp"
#include "engine/engine.hpp"
#include "engine/frontend.hpp"
#include "engine/service.hpp"
#include "util/cli.hpp"
#include "util/parallel.hpp"

using namespace semilocal;

namespace {

int usage() {
  std::cerr << "usage: semilocal_serve (--stdio | --port P) [--store DIR] [--cache-mb N]\n"
               "                       [--workers N] [--queue N] [--batch N]\n"
               "                       [--algorithm NAME] [--no-persist] [--no-index]\n"
               "                       [--dna] [--backlog N] [--max-conns N]\n"
               "                       [--max-inflight N] [--write-cap-kb N]\n"
               "                       [--idle-timeout-ms N] [--read-timeout-ms N]\n"
               "                       [--drain-timeout-ms N]\n"
               "                       [--corpus-dir DIR] [--chunk N]\n";
  return 2;
}

Strategy parse_strategy(const std::string& name) {
  if (name == "antidiag") return Strategy::kAntidiagSimd;
  if (name == "hybrid") return Strategy::kHybrid;
  if (name == "tiled") return Strategy::kHybridTiled;
  if (name == "recursive") return Strategy::kRecursive;
  if (name == "rowmajor") return Strategy::kRowMajor;
  if (name == "loadbalanced") return Strategy::kLoadBalanced;
  throw std::invalid_argument("unknown --algorithm '" + name + "'");
}

// Signal plumbing: the reactor exposes an async-signal-safe request_stop().
FrontendServer* g_reactor = nullptr;

void on_signal(int) {
  if (g_reactor != nullptr) g_reactor->request_stop();
}

void install_signal_handlers() {
  struct sigaction sa {};
  sa.sa_handler = on_signal;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);  // broken client sockets are per-write errors
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliArgs args = CliArgs::parse(
        argc, argv, 1, {"stdio", "no-persist", "no-index", "dna"});
    const bool stdio = args.has_flag("stdio");
    const auto port = args.option("port");
    if (stdio == port.has_value()) return usage();  // exactly one mode

    EngineOptions options;
    options.store.dir = args.option_or("store", "");
    options.store.cache_bytes =
        static_cast<std::size_t>(args.int_option_or("cache-mb", 64)) << 20;
    options.store.persist = !args.has_flag("no-persist");
    options.scheduler.workers =
        static_cast<int>(args.int_option_or("workers", stdio ? 0 : hardware_threads()));
    options.scheduler.max_queue =
        static_cast<std::size_t>(args.int_option_or("queue", 256));
    options.scheduler.max_batch = static_cast<std::size_t>(args.int_option_or("batch", 8));
    options.scheduler.compute.strategy =
        parse_strategy(args.option_or("algorithm", "antidiag"));
    options.index_queries = !args.has_flag("no-index");

    const bool drain_inline = options.scheduler.workers == 0;
    ComparisonEngine engine(options);

    std::optional<CorpusManager> corpus;
    if (const auto corpus_dir = args.option("corpus-dir")) {
      CorpusManagerOptions corpus_options;
      corpus_options.dir = *corpus_dir;
      corpus_options.chunk = static_cast<Index>(args.int_option_or("chunk", 1024));
      corpus_options.drain_inline = drain_inline;
      corpus.emplace(engine, std::move(corpus_options));
    }
    EngineService service(engine, corpus ? &*corpus : nullptr, args.has_flag("dna"),
                          drain_inline);

    if (stdio) {
      serve_stream(service, std::cin, std::cout);
      return 0;
    }

    FrontendOptions frontend;
    frontend.port = static_cast<int>(std::stol(*port));
    frontend.listen_backlog = static_cast<int>(args.int_option_or("backlog", 128));
    frontend.max_connections =
        static_cast<std::size_t>(args.int_option_or("max-conns", 10000));
    frontend.max_inflight_per_conn =
        static_cast<std::size_t>(args.int_option_or("max-inflight", 64));
    frontend.max_write_queue_bytes =
        static_cast<std::size_t>(args.int_option_or("write-cap-kb", 1024)) << 10;
    frontend.idle_timeout_ms =
        static_cast<std::uint64_t>(args.int_option_or("idle-timeout-ms", 60'000));
    frontend.read_timeout_ms =
        static_cast<std::uint64_t>(args.int_option_or("read-timeout-ms", 10'000));
    frontend.drain_timeout_ms =
        static_cast<std::uint64_t>(args.int_option_or("drain-timeout-ms", 2'000));

    FrontendServer server(service, frontend);
    g_reactor = &server;
    install_signal_handlers();
    // The bound port goes to *stdout* (one bare number, flushed before the
    // loop starts): with --port 0 a supervisor or test harness spawning real
    // backends reads it instead of racing for a free port. Human-readable
    // status stays on stderr.
    std::cout << server.port() << std::endl;
    std::cerr << "semilocal_serve: listening on 127.0.0.1:" << server.port() << " (reactor)"
              << std::endl;
    server.run();
    g_reactor = nullptr;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "semilocal_serve: " << e.what() << "\n";
    return 1;
  }
}
