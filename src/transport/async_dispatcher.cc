#include "transport/async_dispatcher.h"

#include <chrono>

#include "util/check.h"

namespace lbsagg {

namespace {
// Every blocking wait in this file is a timed re-check loop, not a bare
// condition_variable::wait: glibc < 2.41 condvars can drop a signal under
// contention (glibc bug 25847 — a waiter "steals" a signal and the undo
// path misses a sleeper), which turned one in ~10^7 batch handshakes into
// a permanent hang on a single-core host. The predicate, not the wakeup,
// is authoritative; a lost signal degrades to one tick of extra latency.
constexpr std::chrono::milliseconds kWaitTick{100};

template <typename Predicate>
void WaitRobust(std::condition_variable& cv, std::unique_lock<std::mutex>& lock,
                Predicate pred) {
  while (!pred()) cv.wait_for(lock, kWaitTick);
}
}  // namespace

// Completion bookkeeping shared by one QueryBatch call and the workers
// fulfilling its jobs; lives on the caller's stack for the call duration.
struct AsyncDispatcher::BatchState {
  std::mutex mu;
  std::condition_variable done;
  size_t remaining = 0;
};

AsyncDispatcher::AsyncDispatcher(LbsTransport* transport,
                                 DispatcherOptions options)
    : transport_(transport),
      num_workers_(options.num_workers),
      queue_capacity_(options.queue_capacity) {
  LBSAGG_CHECK(transport_ != nullptr);
  LBSAGG_CHECK_GT(num_workers_, 0u);
  LBSAGG_CHECK_GT(queue_capacity_, 0u);
  workers_.reserve(num_workers_);
  for (unsigned i = 0; i < num_workers_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

AsyncDispatcher::~AsyncDispatcher() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  queue_not_empty_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void AsyncDispatcher::WorkerLoop() {
  while (true) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      WaitRobust(queue_not_empty_, lock,
                 [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    queue_not_full_.notify_one();
    *job.slot = transport_->Fulfill(
        job.plan, job.q, job.k, job.filter ? *job.filter : TupleFilter());
    // Notify while holding the mutex: BatchState lives on the submitter's
    // stack, and the submitter may destroy it the moment it observes
    // remaining == 0 — which it cannot do before this lock is released,
    // i.e. not until notify_one has returned. Signaling after unlock would
    // race the condvar's destruction.
    std::lock_guard<std::mutex> lock(job.batch->mu);
    --job.batch->remaining;
    job.batch->done.notify_one();
  }
}

std::vector<TransportReply> AsyncDispatcher::QueryBatch(
    const std::vector<Vec2>& queries, int k, const TupleFilter& filter) {
  std::vector<TransportReply> replies(queries.size());
  if (queries.empty()) return replies;

  BatchState batch;
  batch.remaining = queries.size();
  for (size_t i = 0; i < queries.size(); ++i) {
    // Plans are made on this thread, in submission order — the transport's
    // stateful policy pipeline never sees worker-thread nondeterminism.
    Job job{queries[i], k,        filter ? &filter : nullptr,
            transport_->Prepare(queries[i], k), &replies[i], &batch};
    {
      std::unique_lock<std::mutex> lock(mu_);
      WaitRobust(queue_not_full_, lock,
                 [this] { return queue_.size() < queue_capacity_; });
      queue_.push_back(std::move(job));
    }
    queue_not_empty_.notify_one();
  }

  std::unique_lock<std::mutex> lock(batch.mu);
  WaitRobust(batch.done, lock, [&batch] { return batch.remaining == 0; });
  return replies;
}

}  // namespace lbsagg
