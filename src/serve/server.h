// SnnServer — request-level, multi-model serving front end over the SNN
// inference core.
//
// The inference engine (snn/engine.h) is batch-oriented and blocking:
// callers hand a session a batch and wait. A serving workload is the
// opposite shape — latency-sensitive single-image requests arriving on many
// threads (T2FSNN-style TTFS inference is per-request), naming any of the
// models a process hosts. SnnServer bridges the two, sharded across R
// replicas of the compute path and fronted by a snn::ModelRegistry:
//
//   submit(model_id, image) (any thread)
//     -> registry lookup: model_id -> ModelHandle lease (unknown ids resolve
//        kRejected; the lease keeps net + pack alive until the promise
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
//        InferenceSession::run — per-replica-per-model arenas, stateless
//        shared backends
//     -> futures resolve with logits, predicted class, SnnRunStats, latency
//
// Single-model callers keep the original surface: the (net, input_shape,
// opts) constructor wraps the network in an internal one-model registry
// under the id "default", and submit(image) targets the default model — no
// behavior change from the pre-registry server.
//
// Determinism: per-sample results are bit-identical to running the same
// model's backend sequentially on the same inputs, no matter how requests
// interleave into batches, which replica runs each batch, or what other
// models share the server (sessions guarantee sample independence; pack
// eviction/rebuild is bit-identical; asserted in tests/serve_registry_test.cpp
// against dedicated single-model servers for R in {1, 2, 4}).
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
  // Single-model constructor only: the backend its internal registry loads
  // "default" with (event-sim when null). Registry-fronted servers ignore
  // this — each registered model carries its own backend.
  std::shared_ptr<const snn::InferenceBackend> backend;
  // Compute pool for batch fan-out: global_pool() when null; a 0-thread pool
  // runs batches inline on the replica scheduler threads.
  ThreadPool* pool = nullptr;
  // Multi-model serving: the registry whose models this server fronts.
  // Required by the registry constructor; models may be load()ed / swapped /
  // unload()ed while the server runs. The server shares ownership.
  std::shared_ptr<snn::ModelRegistry> registry;
  // Model served by the one-argument submit(image). Resolved at
  // construction: this id when non-empty (must be registered), else the
  // registry's only model when it holds exactly one, else no default (the
  // one-argument submit then throws).
  std::string default_model;
};

// Thread-safety summary: every public method is safe to call from any thread
// while the server runs, unless its contract below says otherwise. The
// internal discipline is annotated under the thread_annotations.h scheme —
// StatsCollector/MicroBatcher each own a util::Mutex; the server itself
// holds no lock on the submit path beyond theirs.
class SnnServer {
 public:
  // Multi-model server over opts.registry (required non-null). Models
  // registered later are served as soon as load() returns; swapped models
  // take effect per-request at submit time. [ctor: one thread]
  explicit SnnServer(ServeOptions opts);

  // Single-model convenience: wraps `net` in an internal one-model registry
  // under the id "default". The network must outlive the server and must not
  // be mutated while it is running. `input_shape` is the mandatory (C, H, W)
  // of every request image — fixed up front so batches are uniform and each
  // replica's arenas are pre-reserved once. [ctor: one thread]
  SnnServer(const snn::SnnNetwork& net, std::vector<std::int64_t> input_shape,
            ServeOptions opts = {});
  ~SnnServer();  // stop()

  SnnServer(const SnnServer&) = delete;
  SnnServer& operator=(const SnnServer&) = delete;

  struct Submission {
    std::uint64_t id = 0;                    // handle for cancel()
    std::future<ServeResult> result;
  };

  // Enqueues one image for `model_id` from any thread. An unknown model id
  // resolves the future with kRejected (models can be unloaded at any time,
  // so this is a data error, not a programming error). Throws
  // std::invalid_argument when the image does not match the model's input
  // shape. Never blocks on inference; under kBlock it MAY block on a full
  // submit queue until space frees (that is the policy's point).
  // [thread-safe]
  Submission submit(const std::string& model_id, Tensor image);
  // Same, for the default model; throws when the server has none.
  // [thread-safe]
  Submission submit(Tensor image);

  // Callback flavor of submit() for event-loop front ends (net/wire_server)
  // that cannot park a thread per future: `on_complete` (required non-null)
  // is invoked EXACTLY once with the same ServeResult the future flavor
  // would resolve with — including refusals (kRejected/kShed) and, uniquely
  // to this path, kFailed when the backend throws mid-batch. It may run on
  // the calling thread (synchronous refusal), a replica scheduler, or the
  // stop()ping thread, so it must be quick and must not re-enter the server.
  // Same admission/blocking semantics as submit(). Returns the request id
  // (valid for cancel()). [thread-safe]
  std::uint64_t submit_async(const std::string& model_id, Tensor image,
                             std::function<void(ServeResult)> on_complete);

  // True iff the request was still queued: its future resolves kCancelled.
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
  // Empty when the server has no default model; immutable after
  // construction. [thread-safe]
  const std::string& default_model() const { return default_model_; }
  // Input shape / backend of the default model as resolved at construction
  // (the single-model server's original accessors). Throw when no default.
  // [thread-safe: the construction-time lease is immutable]
  const std::vector<std::int64_t>& input_shape() const;
  const snn::InferenceBackend& backend() const;
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

  // The one funnel every submission flavor goes through; `on_complete`
  // empty = future-consumed request.
  Submission enqueue(const std::string& model_id, Tensor image,
                     std::function<void(ServeResult)> on_complete, bool want_future);
  // Resolves a request to its single consumer: the callback when set, the
  // promise otherwise.
  static void deliver(PendingRequest& req, ServeResult result);

  void replica_loop(std::size_t r);
  void run_batch(std::size_t r, std::vector<PendingRequest> batch);
  // Runs batch[begin, end) — a maximal run of requests sharing one handle —
  // on replica r's session for that handle, resolving their promises.
  void run_segment(std::size_t r, std::vector<PendingRequest>& batch, std::size_t begin,
                   std::size_t end);
  void resolve_refused(PendingRequest req, RequestStatus status);

  const ServeOptions opts_;
  const std::shared_ptr<snn::ModelRegistry> registry_;
  const std::string default_model_;
  // Lease on the default model taken at construction — keeps input_shape()/
  // backend() valid even across later swaps/unloads of the default id.
  const std::shared_ptr<const snn::ModelHandle> default_seed_;
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
