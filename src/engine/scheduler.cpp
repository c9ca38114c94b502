#include "engine/scheduler.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "bitlcs/bitwise_combing.hpp"
#include "bitlcs/encoding.hpp"
#include "lcs/prefix.hpp"

namespace semilocal {

// The paper's bit-parallel combing (Listing 8, generalized to bit-planes),
// serial like every per-pair compute here. Wire symbols are bytes, so a
// served pair always fits the kernel's 8 planes; a library caller's pair
// with more than 256 distinct symbols falls back to the anti-diagonal
// prefix DP.
Index bit_parallel_score(SequenceView a, SequenceView b) {
  const DensePair dense = dense_remap(a, b);
  if (dense.alphabet > (Symbol{1} << kMaxPlanes)) return lcs_prefix_antidiag(a, b);
  return lcs_bit_combing_alphabet(dense.a, dense.b, std::max<Symbol>(2, dense.alphabet),
                                  /*parallel=*/false);
}

KernelScheduler::KernelScheduler(KernelStore& store, SchedulerOptions options,
                                 LatencyRecorder* latency, QueryCounters* /*unused*/)
    : store_(store),
      options_(std::move(options)),
      env_(options_.env ? options_.env : &real_env()),
      latency_(latency),
      memo_(kMemoSlots) {
  threads_.reserve(static_cast<std::size_t>(std::max(0, options_.workers)));
  for (int i = 0; i < options_.workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

KernelScheduler::~KernelScheduler() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void KernelScheduler::admit() {
  if (queue_.size() < options_.max_queue) return;
  ++rejected_;
  // Hint scales with how many batches are queued ahead of the retrier.
  const auto waves =
      static_cast<Index>(queue_.size() / std::max<std::size_t>(1, options_.max_batch));
  const Index retry_ms = 5 * (waves + 1) / std::max(1, options_.workers) + 1;
  throw EngineOverloaded("engine overloaded: " + std::to_string(queue_.size()) +
                             " jobs queued (limit " + std::to_string(options_.max_queue) +
                             ")",
                         retry_ms);
}

void KernelScheduler::enqueue(JobPtr job) {
  job->queued_ns = env_->now_ns();
  if (!job->window) inflight_.insert_or_assign(job->key, job);
  queue_.push_back(std::move(job));
}

void KernelScheduler::retire(const Job& job) {
  const auto it = inflight_.find(job.key);
  if (it != inflight_.end() && it->second.get() == &job) inflight_.erase(it);
}

CachedKernelPtr KernelScheduler::submit(const PairKey& key, Sequence a, Sequence b,
                                        EntryThen then) {
  std::unique_lock lock(mutex_);
  ++submitted_;
  if (const auto it = inflight_.find(key); it != inflight_.end()) {
    Job& job = *it->second;
    // Duplicate of an in-flight kernel: attach to the existing computation.
    if (job.kernel) {
      ++coalesced_;
      job.entry_waiters.push_back(std::move(then));
      return nullptr;
    }
    // A queued score job becomes this kernel job; its score waiters are
    // answered off the kernel. A running one cannot change: the kernel gets
    // a job of its own below, which takes over the in-flight entry.
    if (!job.running) {
      job.kernel = true;
      job.entry_waiters.push_back(std::move(then));
      return nullptr;
    }
  }
  // A pair that completed between the caller's cache probe and this lock is
  // gone from inflight_ but present in the store; re-probe so it is never
  // recomputed. (Lock order scheduler -> store; the store never calls back.)
  if (CachedKernelPtr hit = store_.find(key)) return hit;
  admit();
  auto job = std::make_shared<Job>();
  job->key = key;
  job->a = std::move(a);
  job->b = std::move(b);
  job->kernel = true;
  job->entry_waiters.push_back(std::move(then));
  enqueue(std::move(job));
  lock.unlock();
  work_ready_.notify_one();
  return nullptr;
}

std::shared_future<CachedKernelPtr> KernelScheduler::submit(const PairKey& key,
                                                            Sequence a, Sequence b) {
  auto promise = std::make_shared<std::promise<CachedKernelPtr>>();
  std::shared_future<CachedKernelPtr> future = promise->get_future().share();
  if (CachedKernelPtr hit = submit(key, std::move(a), std::move(b), fulfil(promise))) {
    promise->set_value(std::move(hit));
  }
  return future;
}

std::optional<Index> KernelScheduler::submit_score(const PairKey& key, SequenceView a,
                                                   SequenceView b, ScoreThen then) {
  std::unique_lock lock(mutex_);
  ++submitted_;
  if (const MemoSlot& slot = memo_slot(key); slot.score >= 0 && slot.key == key) {
    ++score_memo_hits_;
    return slot.score;
  }
  if (const auto it = inflight_.find(key); it != inflight_.end()) {
    ++coalesced_;
    it->second->score_waiters.push_back(std::move(then));
    return std::nullopt;
  }
  queue_score(lock, key, a, b, std::move(then), /*window=*/false);
  return std::nullopt;
}

bool KernelScheduler::submit_window(const PairKey& key, SequenceView a, SequenceView b,
                                    ScoreThen& then) {
  std::unique_lock lock(mutex_);
  if (memo_slot(key).key == key || inflight_.contains(key)) return false;
  ++submitted_;
  queue_score(lock, key, a, b, std::move(then), /*window=*/true);
  return true;
}

void KernelScheduler::queue_score(std::unique_lock<std::mutex>& lock, const PairKey& key,
                                  SequenceView a, SequenceView b, ScoreThen then,
                                  bool window) {
  admit();
  // Mark the pair asked; a score already memoized for it stays.
  if (MemoSlot& slot = memo_slot(key); !(slot.key == key)) slot = MemoSlot{key, -1};
  auto job = std::make_shared<Job>();
  job->key = key;
  job->a.assign(a.begin(), a.end());
  job->b.assign(b.begin(), b.end());
  job->window = window;
  job->score_waiters.push_back(std::move(then));
  enqueue(std::move(job));
  lock.unlock();
  work_ready_.notify_one();
}

void KernelScheduler::submit_task(std::function<void()> task) {
  std::unique_lock lock(mutex_);
  admit();
  ++tasks_;
  auto job = std::make_shared<Job>();
  job->task = std::move(task);
  // Ahead of the kernel and score jobs: a task finishes a request whose
  // compute is done. Keyless: never in inflight_.
  queue_.push_front(std::move(job));
  lock.unlock();
  work_ready_.notify_one();
}

void KernelScheduler::worker_loop() {
  std::unique_lock lock(mutex_);
  while (true) {
    work_ready_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stop_) return;
      continue;
    }
    run_one_batch(lock);
  }
}

bool KernelScheduler::run_one_batch(std::unique_lock<std::mutex>& lock) {
  if (queue_.empty()) return false;
  if (queue_.front()->task) {
    // A task runs alone, so tasks queued together spread over the workers.
    const JobPtr job = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    job->task();
    lock.lock();
    return true;
  }
  std::vector<JobPtr> kernels;
  std::vector<JobPtr> scores;
  while (!queue_.empty() && !queue_.front()->task &&
         kernels.size() + scores.size() < options_.max_batch) {
    JobPtr job = std::move(queue_.front());
    queue_.pop_front();
    job->running = true;
    (job->kernel ? kernels : scores).push_back(std::move(job));
  }
  if (!kernels.empty()) ++batches_;
  lock.unlock();
  // Scores first: each is a fraction of one kernel's comb, so its waiters
  // should not sit behind the batch's kernels.
  if (!scores.empty()) run_scores(lock, scores);
  if (!kernels.empty()) run_kernels(lock, kernels);
  lock.lock();
  return true;
}

namespace {

/// Hands each waiter the job's outcome, in submission order.
template <typename T>
void resolve(std::vector<Then<T>>& waiters, const T& value, std::exception_ptr failure) {
  for (Then<T>& then : waiters) then(value, failure);
}

}  // namespace

void KernelScheduler::run_scores(std::unique_lock<std::mutex>& lock,
                                 const std::vector<JobPtr>& jobs) {
  std::vector<Index> values(jobs.size());
  std::vector<std::exception_ptr> failures(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    try {
      values[i] = bit_parallel_score(jobs[i]->a, jobs[i]->b);
    } catch (...) {
      failures[i] = std::current_exception();
    }
  }
  // Memo first, then inflight_, all under the lock: no submit_score() window
  // finds a finished score in neither place. A window job is in neither.
  lock.lock();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    Job& job = *jobs[i];
    if (!job.window) retire(job);
    if (failures[i]) continue;
    ++scores_computed_;
    if (!job.window) memo_slot(job.key) = MemoSlot{job.key, values[i]};
    if (latency_) {
      latency_->record(static_cast<double>(env_->now_ns() - job.queued_ns) / 1e6);
    }
  }
  lock.unlock();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    resolve(jobs[i]->score_waiters, values[i], failures[i]);
  }
}

void KernelScheduler::run_kernels(std::unique_lock<std::mutex>& lock,
                                  const std::vector<JobPtr>& batch) {
  std::vector<SequencePair> pairs;
  pairs.reserve(batch.size());
  for (const JobPtr& job : batch) pairs.push_back({job->a, job->b});
  SemiLocalOptions per_pair = options_.compute;
  per_pair.parallel = false;  // this thread's tls_workspace serves the batch
  std::vector<CachedKernelPtr> results(batch.size());
  std::exception_ptr failure;
  try {
    auto kernels = semi_local_kernel_batch(pairs, per_pair);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      results[i] = std::make_shared<const CachedKernel>(
          std::make_shared<const SemiLocalKernel>(std::move(kernels[i])));
    }
  } catch (...) {
    failure = std::current_exception();
  }

  // Publish to the store before resolving waiters or clearing inflight_,
  // so no submit() window exists in which a finished pair is found nowhere.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (results[i]) store_.put(batch[i]->key, results[i]);
  }
  // Entries whose earlier persist failed get their retry here, piggybacked
  // on compute batches so a recovered disk drains the pending set without a
  // dedicated timer thread.
  store_.retry_pending();

  // Settle the books before resolving the waiters: a waiter (or a caller
  // whose future.get() has returned) must observe the computation in
  // stats().
  lock.lock();
  computed_ += failure ? 0 : batch.size();
  for (const JobPtr& job : batch) {
    retire(*job);
    if (!failure && latency_) {
      latency_->record(static_cast<double>(env_->now_ns() - job->queued_ns) / 1e6);
    }
  }
  lock.unlock();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Job& job = *batch[i];
    resolve(job.entry_waiters, results[i], failure);
    // Score waiters (of an upgraded score job, or joined) read H(m, n) off
    // the kernel.
    if (!job.score_waiters.empty()) {
      resolve(job.score_waiters, failure ? Index{0} : results[i]->kernel().lcs(),
              failure);
    }
  }
}

std::size_t KernelScheduler::drain() {
  std::unique_lock lock(mutex_);
  std::size_t batches = 0;
  while (run_one_batch(lock)) ++batches;
  return batches;
}

SchedulerStats KernelScheduler::stats() const {
  std::lock_guard lock(mutex_);
  return SchedulerStats{.submitted = submitted_,
                        .coalesced = coalesced_,
                        .computed = computed_,
                        .scores_computed = scores_computed_,
                        .score_memo_hits = score_memo_hits_,
                        .batches = batches_,
                        .rejected = rejected_,
                        .tasks = tasks_,
                        .queue_depth = queue_.size(),
                        .inflight = inflight_.size()};
}

}  // namespace semilocal
