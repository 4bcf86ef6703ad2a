// SnnServer — request-level, multi-model serving front end over the SNN
// inference core.
//
// The inference engine (snn/engine.h) is batch-oriented and blocking:
// callers hand a session a batch and wait. A serving workload is the
// opposite shape — latency-sensitive single-image requests arriving on many
// threads (T2FSNN-style TTFS inference is per-request), naming any of the
// models a process hosts. SnnServer bridges the two, sharded across R
// replicas of the compute path and fronted by a snn::ModelRegistry (a
// one-model registry serves a single network):
//
//   submit(model_id, image) / submit_async(model_id, image, callback)
//   (any thread)
//     -> registry lookup: model_id -> ModelHandle lease (unknown ids resolve
//        kRejected; the lease keeps net + pack alive until the request
//        resolves, so a live swap drains in-flight work on the OLD pack)
//     -> bounded submit queue + admission policy (Block / RejectWhenFull /
//        ShedOldest: predictable degradation when arrival outruns compute)
//     -> MicroBatcher per-model lanes (flush on max_batch or max_delay;
//        models NEVER co-batch). The R replica scheduler threads are the
//        batcher's consumers: a free replica pops the next ready batch
//        itself, so no batch forms ahead of a free replica and waiting work
//        stays in its lane (counted in queue_depth, cancellable); any
//        replica serves any model
//     -> replica scheduler thread r: rebinds its cached per-model
//        InferenceSession to the batch's handle if needed, pins the handle
//        against pack eviction (ModelRegistry::pin_for_run), then
//        a traced InferenceSession::run — per-replica-per-model arenas,
//        stateless shared backends, traces from the process-wide bin
//     -> each request's completion callback receives its ServeResult (logits,
//        predicted class and SnnRunStats, all read off the request's trace,
//        and latency); submit() is the same path
//        with a callback that fulfils the returned future.
//
// Every request resolves exactly once, to one ServeResult, whichever way it
// was submitted: kOk, kCancelled, kRejected, kShed, or kFailed when the
// backend throws mid-batch.
//
// Determinism: per-sample results are bit-identical to running the same
// model's backend sequentially on the same inputs, no matter how requests
// interleave into batches, which replica runs each batch, or what other
// models share the server (sessions guarantee sample independence; pack
// eviction/rebuild is bit-identical; asserted in tests/serve_registry_test.cpp
// against dedicated one-model servers for R in {1, 2, 4}).
//
// Lifecycle: stop() (or the destructor) closes the batcher; every replica
// keeps popping batches until the batcher is drained, then the scheduler
// threads are joined — no accepted request is ever dropped, and
// requests holding a swapped-out handle still complete on it. Submissions
// racing past stop() (including kBlock submitters parked on a full queue)
// resolve with kRejected. cancel(id) removes a request only while it is
// still queued; once a replica has popped its batch it completes normally.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/batcher.h"
#include "serve/result.h"
#include "serve/stats.h"
#include "snn/engine.h"
#include "snn/network.h"
#include "snn/registry.h"

namespace ttfs {
class ThreadPool;
}

namespace ttfs::serve {

struct ServeOptions {
  std::int64_t max_batch = 8;                 // flush when this many queued (per model)
  std::chrono::microseconds max_delay{2000};  // flush when a model's oldest waited this long
  // Compute replicas: independent scheduler threads, each with its own cache
  // of per-model InferenceSessions (own arenas) over the registry's shared
  // backends and networks. More replicas keep the compute pool busy when a
  // single batch cannot fill it. Any replica serves any model.
  std::int64_t replicas = 1;
  // Bound on queued (not yet batch-formed) requests across ALL models;
  // 0 = unbounded. Together with `admission` this is the overload valve:
  // when request arrival outruns the replicas, the queue fills and the
  // policy decides who pays — the submitter (kBlock), the newest request
  // (kRejectWhenFull) or the globally oldest (kShedOldest).
  std::size_t queue_capacity = 0;
  AdmissionPolicy admission = AdmissionPolicy::kBlock;
  // Compute pool for batch fan-out: global_pool() when null; a 0-thread pool
  // runs batches inline on the replica scheduler threads.
  ThreadPool* pool = nullptr;
  // The registry whose models this server fronts (required). Each
  // registered model carries its own backend and input shape; models may be
  // load()ed / swapped / unload()ed while the server runs. The server shares
  // ownership.
  std::shared_ptr<snn::ModelRegistry> registry;
};

// Thread-safety summary: every public method is safe to call from any thread
// while the server runs, unless its contract below says otherwise. The
// internal discipline is annotated under the thread_annotations.h scheme —
// StatsCollector/MicroBatcher each own a util::Mutex; the server itself
// holds no lock on the submit path beyond theirs.
class SnnServer {
 public:
  // Server over opts.registry (required non-null). Models registered later
  // are served as soon as load() returns; swapped models take effect
  // per-request at submit time. [ctor: one thread]
  explicit SnnServer(ServeOptions opts);
  ~SnnServer();  // stop()

  SnnServer(const SnnServer&) = delete;
  SnnServer& operator=(const SnnServer&) = delete;

  struct Submission {
    std::uint64_t id = 0;                    // handle for cancel()
    std::future<ServeResult> result;
  };

  // Enqueues one image for `model_id` from any thread; `on_complete`
  // (required non-null) is invoked EXACTLY once with the request's
  // ServeResult. An unknown model id resolves kRejected (models can be
  // unloaded at any time, so this is a data error, not a programming
  // error). Throws std::invalid_argument — without counting the request or
  // invoking the callback — when the image does not match the model's input
  // shape. Never blocks on inference; under kBlock it MAY block on a full
  // submit queue until space frees (that is the policy's point). The
  // callback may run on the calling thread (synchronous refusal), a replica
  // scheduler, or the stop()ping thread, so it must be quick and must not
  // re-enter the server. Returns the request id (valid for cancel()).
  // [thread-safe]
  std::uint64_t submit_async(const std::string& model_id, Tensor image,
                             std::function<void(ServeResult)> on_complete);
  // submit_async() with a callback that fulfils the returned future: same
  // admission, blocking and failure semantics. [thread-safe]
  Submission submit(const std::string& model_id, Tensor image);

  // True iff the request was still queued: it resolves kCancelled.
  // False once a replica has popped its batch — the result arrives normally.
  // [thread-safe]
  bool cancel(std::uint64_t id);

  // Stops accepting, drains everything pending through normal batches on all
  // replicas, joins the schedulers. Idempotent; the destructor
  // calls it. [thread-safe; blocks until the drain completes]
  void stop();

  // Consistent point-in-time snapshot (one lock acquisition; see
  // StatsCollector::snapshot). [thread-safe]
  ServerStats stats() const;
  // Immutable after construction. [thread-safe]
  const ServeOptions& options() const { return opts_; }
  // The registry is itself fully thread-safe; loads/swaps through it take
  // effect per-request. [thread-safe]
  snn::ModelRegistry& registry() const { return *registry_; }
  // Registered model ids, most recently used first. [thread-safe]
  std::vector<std::string> models() const { return registry_->ids(); }
  // Immutable after construction. [thread-safe]
  std::int64_t replicas() const { return opts_.replicas; }

 private:
  // One replica's cached binding for one model: the handle lease its session
  // was built over. Rebuilt when the registry serves a different handle for
  // the id (i.e. after a swap).
  struct Bound {
    std::shared_ptr<const snn::ModelHandle> handle;
    snn::InferenceSession session;
  };

  void replica_loop(std::size_t r);
  void run_batch(std::size_t r, std::vector<PendingRequest> batch);
  // Runs batch[begin, end) — a maximal run of requests sharing one handle —
  // on replica r's session for that handle, resolving every request in it.
  void run_segment(std::size_t r, std::vector<PendingRequest>& batch, std::size_t begin,
                   std::size_t end);
  void resolve_refused(PendingRequest req, RequestStatus status);

  const ServeOptions opts_;
  const std::shared_ptr<snn::ModelRegistry> registry_;
  // bindings_[r] is touched only by replica thread r: model id -> cached
  // session. Sessions pin nothing while idle — eviction of a cached model's
  // pack is fine; the next run re-warms through pin_for_run and the session's
  // arenas stay valid (the pack rebuild is bit-identical).
  std::vector<std::unordered_map<std::string, Bound>> bindings_;
  MicroBatcher batcher_;
  // busy_[r] is true while replica r runs a batch; observability only
  // (stats()), the batcher's lock orders the actual hand-off.
  std::vector<std::atomic<bool>> busy_;
  StatsCollector stats_;
  std::atomic<std::uint64_t> next_id_{1};
  std::vector<std::thread> schedulers_;
  std::once_flag stopped_;
};

}  // namespace ttfs::serve
