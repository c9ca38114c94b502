// Batching request scheduler for kernel and score computations.
//
// The scheduler turns independent cache misses into efficient compute:
//
//   * Three job kinds, one queue. A kernel job combs the full semi-local
//     kernel and publishes it to the store. A score job computes one LCS
//     score with the paper's bit-parallel combing over the pair's dense
//     alphabet and never touches the store: the global score, H(m, n),
//     which it keeps in a small score memo, or -- a window job -- the LCS
//     of one window's slices, (a, b[x, y)) or (a[x, y), b), which it keeps
//     nowhere. A kernel submit that finds its pair's global score job still
//     queued upgrades that job to a kernel job. A task runs a given
//     function on a worker (an answer off a cached kernel that builds its
//     index, a plot row off a cached strip, an upsert's plan).
//   * The "asked" mark. A score job's submit writes its pair's key into the
//     pair's score memo slot, where it stays until a pair sharing the slot
//     takes it over. A window submit that finds the key there, or finds the
//     pair in flight, is not the pair's first ask: it queues nothing, and
//     the caller combs the kernel (submit), which later asks reuse. So only
//     the first one-window ask of a pair is a window job. A window job
//     copies only its slices, is never in the in-flight map, and nothing
//     joins or upgrades it.
//   * Callbacks. A job calls its waiters on the thread that completes it,
//     after the books are settled; submit()'s future is one such waiter.
//   * Coalescing. An in-flight map keyed by PairKey attaches every duplicate
//     submission to the pair's queued or running kernel or global score job
//     -- N concurrent requests for one pair cost one computation.
//   * Batching. Workers pop up to max_batch queued kernel and score jobs at
//     once (a task runs alone, so tasks queued together spread over the
//     workers) and run the kernel jobs through semi_local_kernel_batch, so
//     each worker reuses its persistent tls_workspace() across the batch
//     and reaches its zero-allocation steady state.
//   * No index builds. A job publishes a bare kernel; whether and when an
//     entry builds its QueryIndex is the entry's own decision, made by the
//     queries asked of it (CachedKernel::wants_index).
//   * Backpressure. The queue is bounded (all kinds count); a submit that
//     would exceed it throws EngineOverloaded carrying a retry-after hint
//     instead of letting latency grow without bound.
//
// workers = 0 runs no threads; call drain() to execute queued batches on the
// calling thread (deterministic tests, single-threaded stdio serving).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <optional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/api.hpp"
#include "engine/env.hpp"
#include "engine/kernel_store.hpp"
#include "engine/latency.hpp"
#include "engine/query.hpp"

namespace semilocal {

/// Thrown by submit() when the pending queue is full. `retry_after_ms` is a
/// load-based hint for when the client should try again.
class EngineOverloaded : public std::runtime_error {
 public:
  EngineOverloaded(const std::string& what, Index retry_after_ms)
      : std::runtime_error(what), retry_after_ms_(retry_after_ms) {}

  [[nodiscard]] Index retry_after_ms() const { return retry_after_ms_; }

 private:
  Index retry_after_ms_;
};

struct SchedulerOptions {
  /// Worker threads. 0 = none; use drain().
  int workers = 2;
  /// Pending-job bound; submissions beyond it are rejected.
  std::size_t max_queue = 256;
  /// Jobs popped per batch; its kernel jobs share one
  /// semi_local_kernel_batch call.
  std::size_t max_batch = 8;
  /// Per-pair compute configuration (`parallel` is forced off: pairs are
  /// the parallel unit, one batch per worker thread).
  SemiLocalOptions compute;
  /// Clock source for latency samples. nullptr = real_env().
  Env* env = nullptr;
};

struct SchedulerStats {
  std::uint64_t submitted = 0;  ///< kernel and score submissions (incl. coalesced + fast-path)
  std::uint64_t coalesced = 0;  ///< submissions attached to the pair's in-flight job
  std::uint64_t computed = 0;   ///< kernels actually computed (score jobs excluded)
  /// Score jobs run, global or window: a bit-parallel score, no kernel.
  std::uint64_t scores_computed = 0;
  std::uint64_t score_memo_hits = 0;  ///< score submissions answered by the score memo
  std::uint64_t batches = 0;    ///< semi_local_kernel_batch invocations
  std::uint64_t rejected = 0;   ///< submissions of any kind refused by backpressure
  std::uint64_t tasks = 0;      ///< tasks queued (submit_task calls admitted)
  std::size_t queue_depth = 0;  ///< jobs of any kind currently queued
  std::size_t inflight = 0;     ///< distinct pairs queued or being computed
};

/// A job's continuation: called once, with the value or with the exception
/// that failed the job (the value is then empty), on the thread that
/// completes the job, outside the scheduler's lock. It must not throw.
template <typename T>
using Then = std::function<void(T value, std::exception_ptr failure)>;
using EntryThen = Then<CachedKernelPtr>;
using ScoreThen = Then<Index>;

/// The continuation that feeds a future: resolves `promise`.
template <typename T>
Then<T> fulfil(std::shared_ptr<std::promise<T>> promise) {
  return [promise = std::move(promise)](T value, std::exception_ptr failure) {
    if (failure) {
      promise->set_exception(failure);
    } else {
      promise->set_value(std::move(value));
    }
  };
}

/// A score job's work: LCS(a, b) by the paper's bit-parallel combing over
/// the pair's dense alphabet, serial (exact for any symbols).
Index bit_parallel_score(SequenceView a, SequenceView b);

class KernelScheduler {
 public:
  /// `latency` (optional) receives one sample per completed kernel or score
  /// job, measured submit-to-completion. Store results are published via
  /// `store.put`. The QueryCounters pointer is not used: the scheduler
  /// builds no index, so it has nothing to count there. It stays so that
  /// existing callers compile.
  KernelScheduler(KernelStore& store, SchedulerOptions options,
                  LatencyRecorder* latency = nullptr,
                  QueryCounters* /*unused*/ = nullptr);
  ~KernelScheduler();
  KernelScheduler(const KernelScheduler&) = delete;
  KernelScheduler& operator=(const KernelScheduler&) = delete;

  /// Schedules the kernel of (a, b): the stored entry if the store holds it
  /// (`then` is dropped), else nullptr and `then` runs once a worker (or
  /// drain()) computes it. A kernel job in flight is joined; a queued score
  /// job for the pair becomes this kernel job. Throws EngineOverloaded when
  /// the queue is full.
  CachedKernelPtr submit(const PairKey& key, Sequence a, Sequence b, EntryThen then);
  /// The same, resolving a future.
  std::shared_future<CachedKernelPtr> submit(const PairKey& key, Sequence a, Sequence b);

  /// Schedules the global LCS score of (a, b): the score memo answers at
  /// once (returned; `then` is dropped); else `then` gets the score of the
  /// pair's job in flight -- read off the kernel for a kernel job -- or of
  /// a new score job (the only case that copies a and b). Marks the pair
  /// asked. The store is not probed -- callers look for a cached kernel
  /// first. Throws EngineOverloaded when the queue is full.
  std::optional<Index> submit_score(const PairKey& key, SequenceView a, SequenceView b,
                                    ScoreThen then);

  /// The first one-window ask of the pair `key` names: queues a window job
  /// that scores LCS(a, b) of the window's slices `a` and `b`, copying only
  /// those, marks the pair asked and returns true; `then` gets the score.
  /// Returns false, queuing nothing and leaving `then` untouched, when the
  /// pair was asked before or has a job in flight: the caller then combs
  /// the kernel (submit). The store is not probed. Throws EngineOverloaded
  /// when the queue is full.
  bool submit_window(const PairKey& key, SequenceView a, SequenceView b, ScoreThen& then);

  /// Queues `task` to run on a worker (or in drain()), ahead of the kernel
  /// and score jobs. It counts against max_queue: throws EngineOverloaded
  /// when the queue is full. It must not throw.
  void submit_task(std::function<void()> task);

  /// Runs queued batches (all job kinds, including those their waiters
  /// queue) on the calling thread until the queue is empty. Returns the
  /// number of batches executed.
  std::size_t drain();

  [[nodiscard]] SchedulerStats stats() const;

 private:
  struct Job {
    PairKey key;
    Sequence a;  ///< a window job's are the window's slices
    Sequence b;
    /// false = a score job (or a task). Final once `running` is set.
    bool kernel = false;
    /// A window job: a score job outside inflight_ whose score no memo keeps.
    bool window = false;
    bool running = false;  ///< popped by a worker or drain()
    std::vector<EntryThen> entry_waiters;
    /// A kernel job answers these off its kernel.
    std::vector<ScoreThen> score_waiters;
    std::function<void()> task;  ///< set for a task: no key, no waiters
    std::uint64_t queued_ns = 0;  // env clock at submission; read at completion
  };
  using JobPtr = std::shared_ptr<Job>;

  /// One direct-mapped memo slot. `key` is the pair last asked of the
  /// slot (an empty slot's PairKey{} matches no pair: every digest, even
  /// the empty sequence's, is nonzero); score < 0 = not scored yet.
  struct MemoSlot {
    PairKey key;
    Index score = -1;
  };
  /// 4096 slots x 40 bytes = 160 KiB.
  static constexpr std::size_t kMemoSlots = 4096;

  void worker_loop();
  /// Throws EngineOverloaded if the queue is full. `mutex_` held.
  void admit();
  /// Queues `job` and maps its key to it. `mutex_` held.
  void enqueue(JobPtr job);
  /// Drops `job`'s in-flight entry unless a newer job already owns the
  /// key. `mutex_` held.
  void retire(const Job& job);
  /// `mutex_` held.
  MemoSlot& memo_slot(const PairKey& key) {
    return memo_[PairKeyHash{}(key) % kMemoSlots];
  }
  /// Queues a score job over (a, b), copied, for `then`. `mutex_` held and
  /// released (then notifies a worker).
  void queue_score(std::unique_lock<std::mutex>& lock, const PairKey& key, SequenceView a,
                   SequenceView b, ScoreThen then, bool window);
  /// Pops and runs one batch. `lock` is held on entry and exit, released
  /// during compute, waiters and tasks. Returns false if the queue was
  /// empty.
  bool run_one_batch(std::unique_lock<std::mutex>& lock);
  /// Entered and left with `lock` released.
  void run_scores(std::unique_lock<std::mutex>& lock, const std::vector<JobPtr>& jobs);
  void run_kernels(std::unique_lock<std::mutex>& lock, const std::vector<JobPtr>& jobs);

  KernelStore& store_;
  SchedulerOptions options_;
  Env* env_;
  LatencyRecorder* latency_;

  mutable std::mutex mutex_;
  std::condition_variable work_ready_;
  std::deque<JobPtr> queue_;
  std::unordered_map<PairKey, JobPtr, PairKeyHash> inflight_;
  std::vector<MemoSlot> memo_;
  std::uint64_t submitted_ = 0;
  std::uint64_t coalesced_ = 0;
  std::uint64_t computed_ = 0;
  std::uint64_t scores_computed_ = 0;
  std::uint64_t score_memo_hits_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t tasks_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace semilocal
