#include "engine/service.hpp"

#include <algorithm>
#include <chrono>
#include <future>
#include <istream>
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

Step answer_now(Response response) { return Step{std::move(response), {}}; }

Step defer(Job job) { return Step{std::nullopt, std::move(job)}; }

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
  if (step.job) {
    step.job(sink);
  } else if (step.work) {
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

std::optional<Response> EngineService::answer(const CachedKernel& entry,
                                              const Request& request, bool may_build) {
  Response response;
  bool answered = false;
  if (request.op == Op::kBatchQuery) {
    response.values.resize(request.windows.size());
    response.value = static_cast<Index>(response.values.size());
    answered = engine_.answer_windows(entry, request.windows.data(), response.values.data(),
                                      request.windows.size(), may_build);
  } else {
    const WindowQuery window{kind_of(request.op), request.x, request.y};
    answered = engine_.answer_windows(entry, &window, &response.value, 1, may_build);
  }
  if (!answered) return std::nullopt;
  return response;
}

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

  if (request.op == Op::kUpsert) {
    // Combs pair kernels through the scheduler and publishes a generation:
    // milliseconds of work that never runs on the caller's thread.
    return defer([this, request = std::move(request)](const Sink& sink) mutable {
      Response response;
      try {
        const UpsertReport report =
            corpus_->upsert_document(to_string(request.a), std::move(request.b));
        response.value = report.version;
        response.text = report.json();
      } catch (...) {
        response = failure_response();
      }
      (void)sink(std::move(response));
    });
  }
  if (request.op == Op::kAlignmentPlot) {
    // Even a fully warm plot emits megabytes of tiles: always a job, so the
    // transport can pace it against its write queue one tile at a time.
    return defer([this, request = std::move(request)](const Sink& sink) {
      stream_plot(request, sink);
    });
  }

  // A global score never builds a kernel; every other query reads one.
  if (request.op == Op::kLcs) {
    std::shared_future<Index> score;
    try {
      score = engine_.score_async(request.a, request.b);
    } catch (...) {
      return answer_now(failure_response());
    }
    return settle(std::move(score), [](Index value, bool /*may_build*/) {
      Response response;
      response.value = value;
      return std::optional<Response>(std::move(response));
    });
  }
  std::shared_future<CachedKernelPtr> future;
  try {
    future = engine_.entry_async(request.a, request.b);
  } catch (...) {
    return answer_now(failure_response());
  }
  return settle(std::move(future), [this, request = std::move(request)](
                                       const CachedKernelPtr& entry, bool may_build) {
    return answer(*entry, request, may_build);
  });
}

template <typename T, typename Respond>
Step EngineService::settle(std::shared_future<T> future, Respond respond) {
  if (future.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
    // Warm: a memoized score, an indexed entry's O(log n) descent, or the
    // O(m + n) scan of an entry's first window -- no stall. An answer that
    // needs an index build is never built here, on the caller's (the
    // reactor's) thread: it defers below, and the job builds and answers.
    try {
      if (std::optional<Response> now = respond(future.get(), /*may_build=*/false)) {
        return answer_now(std::move(*now));
      }
    } catch (...) {
      return answer_now(failure_response());
    }
  }
  return defer([this, future = std::move(future),
                respond = std::move(respond)](const Sink& sink) {
    Response response;
    try {
      if (drain_inline_) engine_.drain();
      response = *respond(future.get(), /*may_build=*/true);
    } catch (...) {
      response = failure_response();
    }
    (void)sink(std::move(response));
  });
}

void EngineService::stream_plot(const Request& request, const Sink& sink) {
  bool open = true;
  try {
    if (!request.plot) throw std::out_of_range("plot request without a plot spec");
    engine_.alignment_plot(
        request.a, request.b, *request.plot,
        [&](PlotTile&& tile) {
          Response frame;
          frame.tile = std::move(tile);
          open = sink(std::move(frame));
          return open;
        },
        drain_inline_);
  } catch (...) {
    if (open) (void)sink(failure_response());
  }
}

}  // namespace semilocal
