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
// Admission control: `capacity` bounds how many requests may sit across ALL
// lanes (models share one submit budget, exactly like they share the compute
// pool), and `admission` chooses what a push does against a full queue —
//   * kBlock          — push() blocks the submitter until space frees up
//                       (a pop, a cancel, or close(), which unblocks with
//                       kClosed);
//   * kRejectWhenFull — push() returns kRejectedFull immediately, the
//                       request untouched, for the caller to refuse;
//   * kShedOldest     — the *globally oldest* queued request (any lane) is
//                       evicted into `shed` to make room, so fresh work
//                       replaces stale work whichever model it belongs to
//                       (drop-head; under overload the head has waited
//                       longest and is the most likely to be past its
//                       deadline anyway).
// capacity == 0 means unbounded, which makes the policy moot.
//
// The batcher owns nothing but the queue; completing requests (served,
// failed, cancelled, rejected, shed) is the server's job, which is why
// cancel() and shed hand the removed request back instead of resolving it.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
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
  std::uint64_t id = 0;
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

// What a push does when the bounded queue is full (see header comment).
enum class AdmissionPolicy { kBlock, kRejectWhenFull, kShedOldest };

// "block" / "reject" / "shed" — the spelling shared by the --admission bench
// flag and the BENCH_*.json "admission" field.
std::string to_string(AdmissionPolicy policy);
// Inverse of to_string; throws std::invalid_argument on an unknown name.
AdmissionPolicy admission_policy_from_string(const std::string& name);

// Outcome of MicroBatcher::push. kShed requests still count as queued — the
// *evicted* request comes back through the `shed` out-parameter.
enum class PushOutcome { kQueued, kRejectedFull, kClosed };

struct BatcherOptions {
  std::int64_t max_batch = 8;                 // flush-on-size threshold (per lane)
  std::chrono::microseconds max_delay{2000};  // flush-on-deadline bound (per lane)
  std::size_t capacity = 0;                   // submit-queue bound across all
                                              // lanes; 0 = unbounded
  AdmissionPolicy admission = AdmissionPolicy::kBlock;
};

class MicroBatcher {
 public:
  explicit MicroBatcher(BatcherOptions opts);

  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  // Enqueues a request into its model's lane per the admission policy. On
  // kQueued the request was consumed (and `shed` may carry the evicted
  // globally-oldest request under kShedOldest); on kRejectedFull / kClosed
  // `req` is left valid for the caller to resolve. `shed` is mandatory
  // (checked) when the policy is kShedOldest and the queue is bounded — the
  // evicted request must reach the caller, never be destroyed unresolved.
  PushOutcome push(PendingRequest& req, std::optional<PendingRequest>* shed = nullptr);

  // Blocks until some lane is ready per the size/delay policy, then pops up
  // to max_batch requests of that ONE model in FIFO order (among ready lanes,
  // the longest-waiting front wins). Returns an empty vector only when the
  // batcher is closed and fully drained. Safe for multiple concurrent
  // consumers (each batch goes to exactly one; a pop that leaves requests
  // queued wakes one more consumer, so a lane never waits on a busy
  // consumer while another one sleeps).
  std::vector<PendingRequest> pop_batch();

  // Removes the request with this id if it is still queued (i.e. its batch
  // has not formed yet) and hands it back; nullopt when it was already popped
  // or never existed.
  std::optional<PendingRequest> cancel(std::uint64_t id);

  // Refuses further pushes (blocked ones wake with kClosed) and wakes the
  // consumers; pending requests keep flowing out of pop_batch() until
  // drained. Idempotent.
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
  util::CondVar cv_;        // consumers wait for batch-ready
  util::CondVar space_cv_;  // kBlock pushers wait for space
  LaneMap lanes_ TTFS_GUARDED_BY(mu_);      // model id -> FIFO lane; no empty lanes
  std::size_t total_ TTFS_GUARDED_BY(mu_) = 0;  // requests across all lanes
  bool closed_ TTFS_GUARDED_BY(mu_) = false;
};

}  // namespace ttfs::serve
