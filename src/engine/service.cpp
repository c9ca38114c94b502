#include "engine/service.hpp"

#include <algorithm>
#include <atomic>
#include <istream>
#include <mutex>
#include <ostream>
#include <stdexcept>

#include "engine/corpus_version.hpp"
#include "engine/loop.hpp"
#include "util/fasta.hpp"

namespace semilocal {
namespace {

QueryKind kind_of(Op op) {
  switch (op) {
    case Op::kLcs:
      return QueryKind::kLcs;
    case Op::kStringSubstring:
      return QueryKind::kStringSubstring;
    case Op::kSubstringString:
      return QueryKind::kSubstringString;
    default:
      throw std::invalid_argument("op carries no query kind");
  }
}

Response text_response(std::string text) {
  Response response;
  response.text = std::move(text);
  return response;
}

Step answer_now(Response response) { return Step{std::move(response), nullptr}; }

/// The batch's windows off `entry`; nothing when `may_build` is false and
/// the answer needs the entry's QueryIndex built first.
std::optional<Response> answer_batch(ComparisonEngine& engine, const CachedKernel& entry,
                                     const Request& request, bool may_build) {
  Response response;
  response.values.resize(request.windows.size());
  response.value = static_cast<Index>(response.values.size());
  if (!engine.answer_windows(entry, request.windows.data(), response.values.data(),
                             request.windows.size(), may_build)) {
    return std::nullopt;
  }
  return response;
}

/// Loop work whose one frame is rendered by the thread that finishes the
/// engine work (a worker, or drain()'s caller) and posted to the loop that
/// started it. A frame rendered before start() waits for it; one for
/// cancelled work, or for a loop that is gone, is dropped.
class Deferred final : public LoopWork {
 public:
  struct State {
    explicit State(Request r) : request(std::move(r)) {}
    const Request request;
    std::atomic<bool> cancelled{false};
    std::mutex mutex;  ///< guards the next three
    bool started = false;
    EventLoop::Poster poster;
    std::string early;         ///< a frame sent before start()
    Deferred* work = nullptr;  ///< the loop's thread only
  };

  /// `drain` (workers = 0) runs the engine's queue on start.
  Deferred(std::shared_ptr<State> state, ComparisonEngine* drain)
      : state_(std::move(state)), drain_(drain) {}
  ~Deferred() override { cancel(); }

  /// Any thread: renders `response` and sends it to the loop.
  static void send(const std::shared_ptr<State>& state, const Response& response) {
    if (state->cancelled.load(std::memory_order_relaxed)) return;
    std::string frame = frame_payload(encode_response(response));
    std::unique_lock lock(state->mutex);
    if (!state->started) {
      state->early = std::move(frame);
      return;
    }
    const EventLoop::Poster poster = state->poster;
    lock.unlock();
    poster.post([state, frame = std::move(frame)] {
      if (state->work != nullptr) state->work->deliver(frame);
    });
  }

  void start(EventLoop& loop, FrameOut& out) override {
    out_ = &out;
    state_->work = this;
    std::unique_lock lock(state_->mutex);
    state_->started = true;
    state_->poster = loop.poster();
    const std::string early = std::move(state_->early);
    lock.unlock();
    if (!early.empty()) {
      deliver(early);
    } else if (drain_ != nullptr) {
      drain_->drain();
    }
  }

  void resume() override {}

  void cancel() override {
    state_->cancelled.store(true, std::memory_order_relaxed);
    state_->work = nullptr;
  }

 private:
  void deliver(std::string_view frame) {
    state_->work = nullptr;  // one frame, then done
    (void)out_->frame(frame, /*terminal=*/true);
  }

  std::shared_ptr<State> state_;
  ComparisonEngine* drain_;
  FrameOut* out_ = nullptr;
};

/// The continuation that sends `fill(response, value, request)`, or the
/// failure, as the Deferred work's frame.
template <typename T, typename Fill>
Then<T> reply(std::shared_ptr<Deferred::State> state, Fill fill) {
  return [state = std::move(state), fill](T value, std::exception_ptr failure) {
    if (state->cancelled.load(std::memory_order_relaxed)) return;  // nobody waits
    Response response;
    try {
      if (failure) std::rethrow_exception(failure);
      fill(response, std::move(value), state->request);
    } catch (...) {
      response = failure_response();
    }
    Deferred::send(state, response);
  };
}

}  // namespace

Response error_response(const std::string& text) {
  Response response;
  response.status = Status::kError;
  response.text = text;
  return response;
}

Response overloaded_response(Index retry_ms, const std::string& text) {
  Response response;
  response.status = Status::kOverloaded;
  response.retry_ms = std::max<Index>(1, retry_ms);
  response.text = text;
  return response;
}

Response failure_response() {
  try {
    throw;
  } catch (const EngineOverloaded& e) {
    return overloaded_response(e.retry_after_ms(), e.what());
  } catch (const std::exception& e) {
    return error_response(e.what());
  } catch (...) {
    return error_response("unknown failure");
  }
}

Step Service::begin_frame(std::string_view payload, bool may_defer) {
  return begin(decode_request(payload), may_defer);
}

void run_loop_work(LoopWork& work, Env& env, const Sink& sink) {
  /// Decodes each frame for the sink; the loop runs until the terminal one.
  struct SinkOut final : FrameOut {
    const Sink& sink;
    bool finished = false;
    explicit SinkOut(const Sink& s) : sink(s) {}
    Flow frame(std::string_view framed, bool terminal) override {
      finished = finished || terminal;
      if (!sink(decode_response(framed.substr(4)))) {
        finished = true;
        return Flow::kStop;
      }
      return Flow::kMore;
    }
  };
  EventLoop loop(env);
  SinkOut out(sink);
  work.start(loop, out);
  if (!loop.run_until([&out] { return out.finished; })) {
    work.cancel();
    (void)sink(error_response("event loop failed"));
  }
}

void serve_one(Service& service, Request&& request, const Sink& sink) {
  Step step = service.begin(std::move(request), /*may_defer=*/true);
  if (step.work) {
    run_loop_work(*step.work, real_env(), sink);
  } else {
    (void)sink(std::move(*step.answer));
  }
}

void serve_stream(Service& service, std::istream& in, std::ostream& out) {
  const Sink sink = [&out](Response&& response) {
    try {
      write_frame(out, encode_response(response));
      return true;
    } catch (const std::runtime_error&) {
      return false;  // the reader is gone
    }
  };
  while (out) {
    std::optional<std::string> payload;
    try {
      payload = read_frame(in);
    } catch (const ProtocolError& e) {
      (void)sink(error_response(e.what()));
      return;
    }
    if (!payload) return;  // clean EOF
    Request request;
    try {
      request = decode_request(*payload);
    } catch (const ProtocolError& e) {
      // Well framed but malformed: a request failure, the session goes on.
      (void)sink(error_response(e.what()));
      continue;
    }
    serve_one(service, std::move(request), sink);
  }
}

// ---------------------------------------------------------------------------
// EngineService.

EngineService::EngineService(ComparisonEngine& engine, CorpusManager* corpus, bool dna,
                             bool drain_inline)
    : engine_(engine), corpus_(corpus), dna_(dna), drain_inline_(drain_inline) {}

Step EngineService::begin(Request&& request, bool may_defer) {
  switch (request.op) {
    case Op::kPing:
      return answer_now(Response{});
    case Op::kStats:
      return answer_now(text_response(stats_json(engine_.stats())));
    case Op::kHealth:
      return answer_now(text_response(health_json(engine_.stats())));
    case Op::kShardCtl:
      return answer_now(error_response("shardctl: not a router"));
    case Op::kUpsert:
      if (corpus_ == nullptr) return answer_now(error_response("upsert: no corpus attached"));
      break;
    default:
      break;
  }
  if (!may_defer) return {};
  const auto ingest = [this](Sequence& raw) {
    if (dna_) raw = pack_dna(raw);
  };
  if (request.op != Op::kUpsert) ingest(request.a);  // an upsert's `a` is its document id
  ingest(request.b);

  // What waits is loop work: a plot stream, or a Deferred frame.
  const auto later = [this](std::shared_ptr<Deferred::State> state) {
    return Step{std::nullopt,
                std::make_unique<Deferred>(std::move(state), drain_inline_ ? &engine_ : nullptr)};
  };
  try {
    if (request.op == Op::kAlignmentPlot) {
      // Even a fully warm plot emits megabytes of tiles: always loop work,
      // so the transport can pace it against its write queue.
      if (!request.plot) throw std::out_of_range("plot request without a plot spec");
      return Step{std::nullopt, engine_.plot_work(std::move(request.a), std::move(request.b),
                                                  *request.plot, drain_inline_)};
    }
    if (request.op == Op::kUpsert) {
      // Milliseconds of combs and a publish, all on workers.
      auto state = std::make_shared<Deferred::State>(Request{});
      corpus_->upsert_async(
          to_string(request.a), std::optional<Sequence>(std::move(request.b)),
          reply<UpsertReport>(state, [](Response& response, UpsertReport report, const Request&) {
            response.value = report.version;
            response.text = report.json();
          }));
      return later(std::move(state));
    }
    auto state = std::make_shared<Deferred::State>(std::move(request));
    const Request& asked = state->request;
    if (asked.op != Op::kBatchQuery) {
      // One window: a global score never builds a kernel, and neither does
      // the first window asked of a pair (see ComparisonEngine::score_then).
      const std::optional<Index> now = engine_.score_then(
          asked.a, asked.b, WindowQuery{kind_of(asked.op), asked.x, asked.y},
          reply<Index>(state, [](Response& response, Index value, const Request&) {
            response.value = value;
          }));
      if (!now) return later(std::move(state));
      Response response;
      response.value = *now;
      return answer_now(std::move(response));
    }
    // A batch reads the pair's kernel. The continuation may run after this
    // service is gone, so it holds the engine, not `this`.
    const auto respond = [&state, &engine = engine_] {
      return reply<CachedKernelPtr>(state, [&engine](Response& response,
                                                     const CachedKernelPtr& entry,
                                                     const Request& asked) {
        response = *answer_batch(engine, *entry, asked, /*may_build=*/true);
      });
    };
    CachedKernelPtr hit = engine_.entry_then(asked.a, asked.b, respond());
    if (!hit) return later(std::move(state));
    // Warm: an indexed entry's O(log n) descents, or the O(m + n) scan of a
    // one-window batch that is the entry's first ask -- no stall. An answer
    // that needs an index build never runs here, on the reactor: a worker
    // builds and answers it.
    if (std::optional<Response> now = answer_batch(engine_, *hit, asked, /*may_build=*/false)) {
      return answer_now(std::move(*now));
    }
    engine_.submit_task([then = respond(), hit = std::move(hit)] { then(hit, nullptr); });
    return later(std::move(state));
  } catch (...) {
    return answer_now(failure_response());
  }
}

}  // namespace semilocal
