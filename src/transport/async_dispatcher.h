#ifndef LBSAGG_TRANSPORT_ASYNC_DISPATCHER_H_
#define LBSAGG_TRANSPORT_ASYNC_DISPATCHER_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "transport/transport.h"

namespace lbsagg {

struct DispatcherOptions {
  // Worker threads performing backend fulfillment; at least 1. A client
  // without a dispatcher runs its batches sequentially on the calling
  // thread, which is the determinism oracle the worker counts match.
  unsigned num_workers = 4;

  // Bounded submission queue; QueryBatch blocks (backpressure) when full.
  size_t queue_capacity = 64;
};

// Worker pool + bounded queue pipelining independent probe queries through
// a transport. Submission order is the determinism anchor: plans are
// Prepared on the submitting thread in batch order (so the transport's
// policy state evolves identically for any worker count), workers only run
// the pure Fulfill step, and replies land in submission-order slots. Hence
// the reply sequence — and the transport's metrics — are bit-identical
// whether a batch runs on 1 worker, on 8, or with no dispatcher at all
// (transport_determinism_test.cc).
class AsyncDispatcher final : public BatchExecutor {
 public:
  // `transport` must outlive the dispatcher and keep Fulfill thread-safe.
  explicit AsyncDispatcher(LbsTransport* transport,
                           DispatcherOptions options = {});
  ~AsyncDispatcher() override;

  AsyncDispatcher(const AsyncDispatcher&) = delete;
  AsyncDispatcher& operator=(const AsyncDispatcher&) = delete;

  // Pipelines the whole batch and returns replies in submission order.
  // Thread-safe: concurrent batches interleave in the queue, each batch
  // waits only for its own jobs.
  std::vector<TransportReply> QueryBatch(
      const std::vector<Vec2>& queries, int k,
      const TupleFilter& filter = nullptr) override;

  unsigned num_workers() const { return num_workers_; }

 private:
  struct BatchState;
  struct Job {
    Vec2 q;
    int k = 0;
    const TupleFilter* filter = nullptr;
    TransportPlan plan;
    TransportReply* slot = nullptr;
    BatchState* batch = nullptr;
  };

  void WorkerLoop();

  LbsTransport* transport_;
  const unsigned num_workers_;
  const size_t queue_capacity_;

  std::mutex mu_;
  std::condition_variable queue_not_empty_;
  std::condition_variable queue_not_full_;
  std::deque<Job> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace lbsagg

#endif  // LBSAGG_TRANSPORT_ASYNC_DISPATCHER_H_
