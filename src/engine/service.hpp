// The request-dispatch core: what each protocol op means, written once.
//
// A Service turns one decoded Request into a Step without blocking:
//
//   answer now   ping, stats, health, shardctl, warm cache hits and typed
//                refusals (scheduler backpressure, bad requests)
//   defer        a Job that may block -- a cold compute wait, an upsert, a
//                plot stream, a router's backend exchange -- run by whoever
//                is allowed to block (a reactor pump, the stdio loop)
//   refuse       the caller said it cannot take deferred work right now
//                (may_defer = false: a connection at its in-flight budget);
//                control ops still answer, nothing touches the scheduler
//
// Transports own only bytes, sockets and admission: the epoll reactor
// (engine/frontend.hpp) and serve_stream() below are both thin loops over
// begin(). There are two services: EngineService over a ComparisonEngine
// (+ an optional versioned corpus) and ShardRouter (engine/shard/router.hpp)
// over a backend fleet.
#pragma once

#include <functional>
#include <iosfwd>
#include <optional>

#include "engine/engine.hpp"
#include "engine/protocol.hpp"

namespace semilocal {

class CorpusManager;

/// Where a job delivers its response frames, in order. A plot stream emits
/// tile frames and ends with a terminal one (terminal_response_frame); every
/// other job emits exactly one frame. Returns false once the peer is gone or
/// the stream is cancelled -- the job must then stop emitting.
using Sink = std::function<bool(Response&&)>;

/// Deferred work: may block; must end its stream with a terminal frame
/// unless the sink returned false.
using Job = std::function<void(const Sink&)>;

/// What Service::begin decided: `answer` to send now, or `job` to run where
/// blocking is allowed. Neither set means refused for lack of deferral room
/// (only possible with may_defer = false); the transport answers with its
/// own admission verdict.
struct Step {
  std::optional<Response> answer;
  Job job;
};

class Service {
 public:
  Service() = default;
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;
  virtual ~Service() = default;

  /// Decides one request without blocking. With may_defer = false, control
  /// ops still answer and everything else is refused before any scheduler
  /// submission. Thread-safe.
  virtual Step begin(Request&& request, bool may_defer) = 0;
};

/// kError response carrying `text`.
Response error_response(const std::string& text);

/// kOverloaded (RETRY_AFTER) response: back off retry_ms (at least 1), resend.
Response overloaded_response(Index retry_ms, const std::string& text);

/// The one exception -> wire-status mapping; call only inside a catch block.
/// EngineOverloaded becomes kOverloaded with its retry hint, anything else
/// kError with the exception's message.
Response failure_response();

/// Runs one request to completion on the calling thread: the answer, or
/// every frame the job emits, goes to `sink`.
void serve_one(Service& service, Request&& request, const Sink& sink);

/// One blocking session over a byte-stream pair (the stdio transport):
/// frames in, frames out, each request run inline by serve_one, until EOF.
/// A framing error (the stream has no boundary left to resynchronize on) is
/// answered with one kError frame, then the session ends.
void serve_stream(Service& service, std::istream& in, std::ostream& out);

/// The comparison engine as a Service. Warm pairs answer off the cache
/// without blocking; cold pairs are submitted to the scheduler inside
/// begin() (so coalescing and EngineOverloaded backpressure act at arrival)
/// and their job waits on the future. Op::kLcs goes through
/// ComparisonEngine::score_async: a cached kernel or a memoized score
/// answers at once, a miss waits for a score job and builds no kernel.
/// Plots and upserts always defer.
class EngineService final : public Service {
 public:
  /// `corpus` backs Op::kUpsert (nullptr: upserts answer kError). `dna`
  /// packs sequence payloads before hashing (matches CLI precompute keys).
  /// `drain_inline` runs queued compute on the job's thread -- what keeps a
  /// workers = 0 engine making progress.
  explicit EngineService(ComparisonEngine& engine, CorpusManager* corpus = nullptr,
                         bool dna = false, bool drain_inline = false);

  Step begin(Request&& request, bool may_defer) override;

 private:
  Response answer(const CachedKernel& entry, const Request& request);
  /// Answers now if `future` is ready, else defers a job that waits for it
  /// (draining first in drain_inline mode); `respond` maps the value.
  template <typename T, typename Respond>
  Step settle(std::shared_future<T> future, Respond respond);
  void stream_plot(const Request& request, const Sink& sink);

  ComparisonEngine& engine_;
  CorpusManager* corpus_;
  bool dna_;
  bool drain_inline_;
};

}  // namespace semilocal
