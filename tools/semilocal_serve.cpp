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
//   --dna            pack request bytes as DNA (match CLI precompute keys)
//   --corpus-dir DIR versioned incremental corpus root; enables Op::kUpsert
//                    (without it upserts answer kError). Pair kernels are
//                    cached in the kernel store, so --store persistence lets
//                    a restarted server resume long appends.
//   --chunk N        widest appended-tail strip a resumed upsert combs and
//                    composes at once, in symbols (default 1024)
//
// Frontend options (TCP mode): --backlog, --max-conns, --max-inflight,
// --write-cap-kb, --idle-timeout-ms, --read-timeout-ms and
// --drain-timeout-ms (tools/server_cli.hpp). Unknown options are errors.
#include <iostream>
#include <optional>

#include "core/api.hpp"
#include "engine/corpus_version.hpp"
#include "engine/engine.hpp"
#include "engine/frontend.hpp"
#include "engine/service.hpp"
#include "server_cli.hpp"
#include "util/parallel.hpp"

using namespace semilocal;

namespace {

int usage() {
  std::cerr << "usage: semilocal_serve (--stdio | --port P) [--store DIR] [--cache-mb N]\n"
               "                       [--workers N] [--queue N] [--batch N]\n"
               "                       [--algorithm NAME] [--no-persist] [--dna]\n"
               "                       [--backlog N] [--max-conns N]\n"
               "                       [--max-inflight N] [--write-cap-kb N]\n"
               "                       [--idle-timeout-ms N] [--read-timeout-ms N]\n"
               "                       [--drain-timeout-ms N]\n"
               "                       [--corpus-dir DIR] [--chunk N]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliArgs args = CliArgs::parse(
        argc, argv, 1, {"stdio", "no-persist", "dna"},
        tools::with_frontend_options({"store", "cache-mb", "workers", "queue", "batch",
                                      "algorithm", "corpus-dir", "chunk"}));
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

    FrontendServer server(service, tools::frontend_options(args, *port));
    const tools::StopOnSignal stop(server);
    // The bound port goes to *stdout* (one bare number, flushed before the
    // loop starts): with --port 0 a supervisor or test harness spawning real
    // backends reads it instead of racing for a free port. Human-readable
    // status stays on stderr.
    std::cout << server.port() << std::endl;
    std::cerr << "semilocal_serve: listening on 127.0.0.1:" << server.port() << " (reactor)"
              << std::endl;
    server.run();
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "semilocal_serve: " << e.what() << "\n";
    return 1;
  }
}
