// Traced in-process replay of a stream: the per-layer half of the benchmark.
//
// The request path a server runs inside ComparisonEngine::entry_async is
// rebuilt here from the layers' public calls -- decode_request,
// make_pair_key, KernelStore::find, KernelScheduler::submit,
// answer_query / answer_query_batch, encode_response -- so each layer gets
// its own span and none is double-counted. Plots and upserts are timed at
// ComparisonEngine::alignment_plot and CorpusManager::upsert_document, the
// router hop at ShardRouter::route against the live backends. One replay
// thread sends the requests back to back (closed loop); the engine's own
// worker threads compute as they do in the server.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "workload.hpp"

namespace perfbench {

struct ReplayOptions {
  bool spans = true;               ///< record spans (false: the overhead baseline)
  std::string corpus_dir;          ///< corpus_mixed: scratch corpus root
  std::vector<int> backend_ports;  ///< sharded_warm: the live backends
  /// Where the spans are written when the replay ends (TSV; empty: nowhere).
  std::string spans_path;
};

struct ReplayResult {
  double wall_s = 0;  ///< replay of the timed requests, setup excluded
  /// Per-layer metrics by name (empty when spans are off).
  std::map<std::string, double> metrics;
};

ReplayResult replay(const Stream& stream, const ReplayOptions& options);

}  // namespace perfbench
