// The request-dispatch core: what each protocol op means, written once.
//
// A Service turns one decoded Request into a Step without blocking:
//
//   answer now   ping, stats, health, shardctl, warm cache hits and typed
//                refusals (scheduler backpressure, bad requests)
//   loop work    everything that waits, run on the caller's event loop: a
//                router's backend exchange watches fds and deadlines there;
//                an engine miss, index build, plot or upsert computes on
//                the scheduler's workers, which post each finished frame or
//                plot row back to the loop. Either way the framed response
//                bytes go to the caller on its loop thread
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
#include <memory>
#include <optional>
#include <string_view>

#include "engine/engine.hpp"
#include "engine/protocol.hpp"

namespace semilocal {

class CorpusManager;
class EventLoop;

/// Where a blocking caller takes a request's response frames, in order. A
/// plot stream emits tile frames and ends with a terminal one
/// (terminal_response_frame); every other request emits exactly one frame.
/// Returns false once the reader is gone -- the work then stops emitting.
using Sink = std::function<bool(Response&&)>;

/// Where loop work delivers its response frames: whole wire frames (length
/// prefix + payload), in order.
class FrameOut {
 public:
  enum class Flow {
    kMore,   ///< keep going
    kPause,  ///< the consumer's queue is past its watermark: read nothing
             ///< more until resume()
    kStop,   ///< the consumer is gone: stop, as on cancel()
  };
  /// One frame; `terminal` ends the request (the flow answer is then moot).
  virtual Flow frame(std::string_view framed, bool terminal) = 0;

 protected:
  ~FrameOut() = default;
};

/// Non-blocking work that runs on the caller's event loop: it watches fds
/// and deadlines there, or waits for what other threads post to it. It ends
/// by handing `out` a terminal frame, or when told to stop (kStop, cancel()).
class LoopWork {
 public:
  LoopWork() = default;
  LoopWork(const LoopWork&) = delete;
  LoopWork& operator=(const LoopWork&) = delete;
  virtual ~LoopWork() = default;
  /// Starts the work on `loop`; `loop` and `out` outlive it.
  virtual void start(EventLoop& loop, FrameOut& out) = 0;
  /// The consumer drained below its watermark after a kPause.
  virtual void resume() = 0;
  /// The consumer is gone: release everything and emit nothing more. Safe
  /// at any time, also from inside the work's own out.frame() call.
  virtual void cancel() = 0;
};

/// What Service::begin decided: `answer` to send now, or `work` to run on
/// the caller's event loop. Neither set means refused for lack of deferral
/// room (only possible with may_defer = false); the transport answers with
/// its own admission verdict.
struct Step {
  std::optional<Response> answer;
  std::unique_ptr<LoopWork> work;
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

  /// begin() for a request still in its wire payload. This default decodes
  /// it and calls begin(); a service that can act on the payload as it is
  /// (the shard router forwards it unchanged) overrides it. Throws
  /// ProtocolError on a malformed payload.
  virtual Step begin_frame(std::string_view payload, bool may_defer);
};

/// kError response carrying `text`.
Response error_response(const std::string& text);

/// kOverloaded (RETRY_AFTER) response: back off retry_ms (at least 1), resend.
Response overloaded_response(Index retry_ms, const std::string& text);

/// The one exception -> wire-status mapping; call only inside a catch block.
/// EngineOverloaded becomes kOverloaded with its retry hint, anything else
/// kError with the exception's message.
Response failure_response();

/// Runs loop work to completion on a private EventLoop over `env` on the
/// calling thread, each frame decoded into `sink`; a sink that returns false
/// stops the work.
void run_loop_work(LoopWork& work, Env& env, const Sink& sink);

/// Runs one request to completion on the calling thread: the answer, or
/// every frame its loop work emits on a private EventLoop, goes to `sink`.
void serve_one(Service& service, Request&& request, const Sink& sink);

/// One blocking session over a byte-stream pair (the stdio transport):
/// frames in, frames out, each request run inline by serve_one, until EOF.
/// A framing error (the stream has no boundary left to resynchronize on) is
/// answered with one kError frame, then the session ends.
void serve_stream(Service& service, std::istream& in, std::ostream& out);

/// The comparison engine as a Service. Warm pairs answer off the cache
/// without blocking. Everything else is loop work: a cold pair is submitted
/// to the scheduler inside begin() (so coalescing and EngineOverloaded
/// backpressure act at arrival), a warm ask whose answer needs the entry's
/// QueryIndex built (CachedKernel::wants_index) becomes a task under the
/// same admission, and the worker that finishes either renders the answer
/// -- building the index there, never in begin() -- and posts its frame to
/// the loop. Every one-window op (kLcs, kStringSubstring, kSubstringString)
/// goes through ComparisonEngine::score_then: a cached kernel or a memoized
/// score answers at once; a kLcs miss, and the first one-window miss of a
/// pair, wait for a score job and build no kernel; a later one-window miss
/// waits for the pair's kernel. Batches read the pair's kernel
/// (entry_then). Plots stream as ComparisonEngine::plot_work, upserts run
/// through CorpusManager::upsert_async.
class EngineService final : public Service {
 public:
  /// `corpus` backs Op::kUpsert (nullptr: upserts answer kError). `dna`
  /// packs sequence payloads before hashing (matches CLI precompute keys).
  /// `drain_inline` runs queued compute on the loop work's own thread --
  /// what keeps a workers = 0 engine making progress.
  explicit EngineService(ComparisonEngine& engine, CorpusManager* corpus = nullptr,
                         bool dna = false, bool drain_inline = false);

  Step begin(Request&& request, bool may_defer) override;

 private:
  ComparisonEngine& engine_;
  CorpusManager* corpus_;
  bool dna_;
  bool drain_inline_;
};

}  // namespace semilocal
