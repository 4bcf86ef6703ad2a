// Dynamic micro-batching queue: the request-forming half of SnnServer.
//
// Producers (any thread) push single-image requests; consumers (the server's
// replica threads, each popping only when it is free to run the batch) block
// in pop_batch() until a batch is ready. Requests are keyed by model id and
// NEVER co-batch across models — the queue is a set of per-model FIFO lanes,
// and every popped batch is uniform in model.
// A lane's batch forms when either
//   * size   — the lane reaches max_batch pending requests, or
//   * delay  — the lane's oldest pending request has waited max_delay,
// whichever comes first; among simultaneously-ready lanes the one whose
// front has waited longest pops first, so no model starves behind a chatty
// one. close() starts the drain: pushes are refused, but pop_batch() keeps
// handing out (size-capped, still per-model) batches until every lane is
// empty and only then returns an empty vector — that empty batch is the
// consumer's shutdown signal.
//
// Admission: `capacity` bounds how many requests may sit across ALL lanes
// (models share one submit budget, exactly like they share the compute
// pool). A push against a full queue returns kRejectedFull at once and
// leaves the request with the caller; nobody waits and nothing queued is
// dropped. capacity == 0 means unbounded.
//
// A queued request leaves in exactly one of two ways: in a popped batch, or
// in the close() drain (which is also a popped batch). The batcher owns
// nothing but the queue; completing requests is the server's job.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "serve/result.h"
#include "tensor/tensor.h"
#include "util/thread_annotations.h"

namespace ttfs::snn {
class ModelHandle;
}

namespace ttfs::serve {

// One queued request, alive from submit until its callback has run.
struct PendingRequest {
  // Which registry model this request targets. Requests with equal model_id
  // (including the default empty id of direct batcher users) share a lane;
  // different ids never share a batch.
  std::string model_id;
  // Lease on the resolved model, taken at submit time: a request pinned to a
  // handle keeps that network + pack alive until it resolves, so a live swap
  // drains in-flight work on the OLD pack.
  std::shared_ptr<const snn::ModelHandle> handle;
  Tensor image;  // (C, H, W)
  std::chrono::steady_clock::time_point enqueued;
  // The request's one consumer, invoked exactly once with its ServeResult
  // (SnnServer::submit wraps a promise in it). It runs on whatever thread
  // resolves the request — a replica scheduler for served or failed work,
  // the submitter for refusals, the stopping thread for drain rejections —
  // and must not block.
  std::function<void(ServeResult)> on_complete;
};

// Outcome of MicroBatcher::push.
enum class PushOutcome { kQueued, kRejectedFull, kClosed };

struct BatcherOptions {
  std::int64_t max_batch = 8;                 // flush-on-size threshold (per lane)
  std::chrono::microseconds max_delay{2000};  // flush-on-deadline bound (per lane)
  std::size_t capacity = 0;                   // submit-queue bound across all
                                              // lanes; 0 = unbounded
};

class MicroBatcher {
 public:
  explicit MicroBatcher(BatcherOptions opts);

  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  // Enqueues a request into its model's lane. On kQueued the request was
  // consumed; on kRejectedFull (the bounded queue is full) or kClosed `req`
  // is left valid for the caller to resolve. Never blocks on space.
  PushOutcome push(PendingRequest& req);

  // Blocks until some lane is ready per the size/delay policy, then pops up
  // to max_batch requests of that ONE model in FIFO order (among ready lanes,
  // the longest-waiting front wins). Returns an empty vector only when the
  // batcher is closed and fully drained. Safe for multiple concurrent
  // consumers (each batch goes to exactly one; a pop that leaves requests
  // queued wakes one more consumer, so a lane never waits on a busy
  // consumer while another one sleeps).
  std::vector<PendingRequest> pop_batch();

  // Refuses further pushes and wakes the consumers; pending requests keep
  // flowing out of pop_batch() until drained. Idempotent.
  void close();

  // Pending requests across all lanes.
  std::size_t depth() const;
  // Pending requests per model lane (empty lanes are pruned).
  std::map<std::string, std::size_t> depth_by_model() const;
  bool closed() const;
  const BatcherOptions& options() const { return opts_; }

 private:
  using Lane = std::deque<PendingRequest>;
  using LaneMap = std::map<std::string, Lane>;

  bool full_locked() const TTFS_REQUIRES(mu_) {
    return opts_.capacity != 0 && total_ >= opts_.capacity;
  }
  // Lane whose front has waited longest (lanes are never empty in lanes_);
  // lanes_.end() when no lane qualifies under `pred`.
  template <typename Pred>
  LaneMap::iterator oldest_front_locked(Pred pred) TTFS_REQUIRES(mu_);
  // Pops up to max_batch requests from `lane` (erasing it when emptied) and
  // hands any remaining work on to the next waiting consumer.
  std::vector<PendingRequest> take_locked(LaneMap::iterator lane) TTFS_REQUIRES(mu_);

  const BatcherOptions opts_;
  mutable util::Mutex mu_;
  util::CondVar cv_;  // consumers wait for batch-ready
  LaneMap lanes_ TTFS_GUARDED_BY(mu_);      // model id -> FIFO lane; no empty lanes
  std::size_t total_ TTFS_GUARDED_BY(mu_) = 0;  // requests across all lanes
  bool closed_ TTFS_GUARDED_BY(mu_) = false;
};

}  // namespace ttfs::serve
