// semilocal_router -- stateless shard router over semilocal_serve backends.
//
// Speaks the same length-prefixed protocol as semilocal_serve on the front
// and reuses it verbatim as the inter-node RPC on the back: clients cannot
// tell a router from a standalone server except for the shard id stamped
// into every response. Requests are consistent-hashed by PairKey across the
// backend fleet with replica fan-out, hedging, failover and health probing
// (see engine/shard/router.hpp for the policy). The router holds no per-key
// state, so any number of router processes can front the same fleet.
//
//   semilocal_router --port P --shards 9001,9002,9003 [options]
//       P = 0 picks a free port; like semilocal_serve, the bound port is
//       printed alone on stdout so harnesses can read it without races.
//
// Shard spec: comma-separated `port`, `host:port` or `host:port:weight`
// entries; shard ids are assigned in listed order (0, 1, ...) and are what
// `semilocal_cli shardctl` and the fault labels ("shard:<id>") refer to.
//
// Router options:
//   --shards SPEC            backend fleet (required)
//   --replicas N             candidates per key: primary + failover/hedge
//                            targets (default 2); upserts go to the
//                            primary only
//   --vnodes N               ring points per unit of weight (default 64)
//   --pool N                 connections per backend pool: the bound on one
//                            shard's in-flight exchanges (default 8)
//   --connect-timeout-ms N   how long a request waits for a free pooled
//                            connection (default 1000)
//   --timeout-ms N           per-attempt budget before failing over
//                            (default 2000)
//   --hedge-ms N             latency deadline after which a hedged request
//                            fires to the next replica; 0 disables (default 0)
//   --unhealthy-after N      consecutive failures that bench a shard
//                            (default 3)
//   --retry-after-ms N       retry hint when every replica failed (default 50)
//   --probe-interval-ms N    background health-probe cadence; 0 disables
//                            (default 1000)
//
// Frontend options: --backlog, --max-conns, --max-inflight, --write-cap-kb,
// --idle-timeout-ms, --read-timeout-ms and --drain-timeout-ms as in
// semilocal_serve (tools/server_cli.hpp). Unknown options are errors. Every
// backend exchange runs on the reactor's event loop, so --pool (per shard),
// not a thread count, bounds the router's concurrency.
#include <iostream>

#include "engine/shard/router.hpp"
#include "server_cli.hpp"

using namespace semilocal;

namespace {

int usage() {
  std::cerr << "usage: semilocal_router --port P --shards SPEC [--replicas N] [--vnodes N]\n"
               "                        [--pool N] [--connect-timeout-ms N] [--timeout-ms N]\n"
               "                        [--hedge-ms N] [--unhealthy-after N]\n"
               "                        [--retry-after-ms N] [--probe-interval-ms N]\n"
               "                        [--backlog N] [--max-conns N] [--max-inflight N]\n"
               "                        [--write-cap-kb N] [--idle-timeout-ms N]\n"
               "                        [--read-timeout-ms N] [--drain-timeout-ms N]\n"
               "  SPEC = comma-separated port | host:port | host:port:weight\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliArgs args = CliArgs::parse(
        argc, argv, 1, {},
        tools::with_frontend_options({"shards", "replicas", "vnodes", "pool",
                                      "connect-timeout-ms", "timeout-ms", "hedge-ms",
                                      "unhealthy-after", "retry-after-ms",
                                      "probe-interval-ms"}));
    const auto port = args.option("port");
    const auto shards = args.option("shards");
    if (!port || !shards) return usage();

    RouterOptions router_options;
    router_options.shards = parse_shard_spec(*shards);
    router_options.replicas = static_cast<int>(args.int_option_or("replicas", 2));
    router_options.vnodes_per_weight = static_cast<int>(args.int_option_or("vnodes", 64));
    router_options.pool_connections =
        static_cast<std::size_t>(args.int_option_or("pool", 8));
    router_options.connect_timeout_ms =
        static_cast<std::uint64_t>(args.int_option_or("connect-timeout-ms", 1'000));
    router_options.attempt_timeout_ms =
        static_cast<std::uint64_t>(args.int_option_or("timeout-ms", 2'000));
    router_options.hedge_after_ms =
        static_cast<std::uint64_t>(args.int_option_or("hedge-ms", 0));
    router_options.unhealthy_after =
        static_cast<int>(args.int_option_or("unhealthy-after", 3));
    router_options.retry_after_ms = args.int_option_or("retry-after-ms", 50);
    router_options.probe_interval_ms =
        static_cast<std::uint64_t>(args.int_option_or("probe-interval-ms", 1'000));
    ShardRouter router(std::move(router_options));

    FrontendServer server(router, tools::frontend_options(args, *port));
    const tools::StopOnSignal stop(server);
    std::cout << server.port() << std::endl;
    std::cerr << "semilocal_router: listening on 127.0.0.1:" << server.port() << " ("
              << router.stats().shards.size() << " shards)" << std::endl;
    server.run();
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "semilocal_router: " << e.what() << "\n";
    return 1;
  }
}
